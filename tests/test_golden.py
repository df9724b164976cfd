"""Pinned per-trial output: the sweep must keep producing the same numbers.

The fixture holds the per-trial mean per-beam throughput, in Mbps, of every
(scheme, power) cell of two short seeded sweeps.  A refactor that only
moves code must reproduce it to rtol 1e-9.  Running this file as a script
adds the cases of CASES that the fixture lacks and leaves every pinned case
byte for byte as it is:

    PYTHONPATH=src python tests/test_golden.py

Re-pin a case only for a change that is meant to move its numbers, by
naming it (for example `... tests/test_golden.py paper_m1`), and say why in
CHANGES.md.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from satcoop.harness import SimConfig, run_sweep

FIXTURE = Path(__file__).with_name("golden_means.json")
RTOL = 1e-9

CASES = {
    "paper_m1": SimConfig(trials=4, master_seed=1, workers=1),
    "csidata_m3": SimConfig(trials=2, master_seed=1, workers=1,
                            schemes=("csidata",), m_per_neighbour=3),
    # more power points than one global SINR block holds
    "paper_m1_wide": SimConfig(
        trials=1, master_seed=1, workers=1,
        power_grid_dbw_per_beam=tuple(-15.0 + 2.5 * i for i in range(13))),
    # no edge users: every gateway of a precoded scheme has K streams
    "csi_m0": SimConfig(trials=2, master_seed=1, workers=1,
                        schemes=("rzf", "csi", "csidata"), m_per_neighbour=0),
    # every edge user of each neighbour: rows of 21 streams
    "csidata_m7": SimConfig(trials=1, master_seed=1, workers=1,
                            schemes=("csidata",), m_per_neighbour=7),
    # csi at m=3, and the precoded schemes out of their default order
    "csi_m3_reversed": SimConfig(trials=1, master_seed=1, workers=1,
                                 schemes=("csidata", "csi", "rzf"),
                                 m_per_neighbour=3),
    # 7-stream rzf and csi rows padded to the 21 slots of m=7
    "rzf_csi_m7": SimConfig(trials=1, master_seed=1, workers=1,
                            schemes=("csi", "rzf"), m_per_neighbour=7),
}


def _record(config: SimConfig) -> dict:
    report = run_sweep(config)
    return {
        "schemes": list(report.schemes),
        "power_grid_dbw": list(report.power_grid_dbw),
        "trial_mbps": report.trial_mbps.tolist(),   # (S, P, T)
    }


def write_fixture(path: Path, cases: dict, repin=()) -> list:
    """Pin the cases missing from the fixture at path, and re-pin those
    named in repin; every other case keeps its entry as it is.  Returns the
    names written, in the order of cases."""
    unknown = sorted(set(repin) - set(cases))
    if unknown:
        raise ValueError(f"unknown golden cases: {', '.join(unknown)}")
    golden = json.loads(path.read_text()) if path.exists() else {}
    written = [case for case in cases if case not in golden or case in repin]
    for case in written:
        config = {k: v for k, v in dataclasses.asdict(cases[case]).items()
                  if k in ("trials", "master_seed", "schemes",
                           "m_per_neighbour")}
        golden[case] = {"config": config, **_record(cases[case])}
    path.write_text(json.dumps(golden, indent=1) + "\n")
    return written


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_per_trial_means_match_pinned_fixture(golden, case):
    expected = golden[case]
    got = _record(CASES[case])
    assert got["schemes"] == expected["schemes"]
    assert got["power_grid_dbw"] == expected["power_grid_dbw"]
    np.testing.assert_allclose(np.array(got["trial_mbps"]),
                               np.array(expected["trial_mbps"]),
                               rtol=RTOL, atol=0.0)


def test_writer_leaves_pinned_cases_byte_identical(tmp_path):
    pinned = FIXTURE.read_text()
    copy = tmp_path / "golden.json"
    copy.write_text(pinned)
    # nothing missing, nothing named: the file comes back unchanged
    assert write_fixture(copy, CASES) == []
    assert copy.read_text() == pinned
    # a missing case is added after the pinned ones, which stay byte-identical
    tiny = {"tiny": SimConfig(trials=1, master_seed=1, workers=1,
                              schemes=("coloring",),
                              power_grid_dbw_per_beam=(0.0,))}
    assert write_fixture(copy, {**CASES, **tiny}) == ["tiny"]
    grown = json.loads(copy.read_text())
    assert list(grown) == [*json.loads(pinned), "tiny"]
    pinned_part = {case: grown[case] for case in json.loads(pinned)}
    assert json.dumps(pinned_part, indent=1) + "\n" == pinned
    # a named case is re-pinned, and only it
    grown["tiny"]["trial_mbps"] = [[[0.0]]]
    copy.write_text(json.dumps(grown, indent=1) + "\n")
    assert write_fixture(copy, {**CASES, **tiny}, repin=["tiny"]) == ["tiny"]
    repinned = json.loads(copy.read_text())
    assert repinned["tiny"]["trial_mbps"] != [[[0.0]]]
    assert repinned["tiny"]["trial_mbps"] == _record(tiny["tiny"])["trial_mbps"]
    assert json.dumps({case: repinned[case] for case in json.loads(pinned)},
                      indent=1) + "\n" == pinned
    with pytest.raises(ValueError, match="unknown golden cases: nope"):
        write_fixture(copy, CASES, repin=["nope"])


if __name__ == "__main__":
    try:
        names = write_fixture(FIXTURE, CASES, repin=sys.argv[1:])
    except ValueError as exc:
        sys.exit(str(exc))
    print(f"wrote {', '.join(names) or 'nothing'} to {FIXTURE}")
