"""Pinned per-trial output: the sweep must keep producing the same numbers.

The fixture holds the per-trial mean per-beam throughput, in Mbps, of every
(scheme, power) cell of two short seeded sweeps.  A refactor that only
moves code must reproduce it to rtol 1e-9.  Regenerate the fixture only for
a change that is meant to move the numbers, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import json
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
}


def _record(config: SimConfig) -> dict:
    report = run_sweep(config)
    return {
        "schemes": list(report.schemes),
        "power_grid_dbw": list(report.power_grid_dbw),
        "trial_mbps": report.trial_mbps.tolist(),   # (S, P, T)
    }


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


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {case: {"config": {k: v for k, v in dataclasses.asdict(cfg).items()
                           if k in ("trials", "master_seed", "schemes",
                                    "m_per_neighbour")},
                **_record(cfg)}
         for case, cfg in CASES.items()}, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
