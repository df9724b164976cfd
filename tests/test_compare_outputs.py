import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
         "--trials", "1", *args],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def test_compare_passes_on_saved_outputs_and_fails_on_an_edit(tmp_path):
    saved = tmp_path / "outputs.npz"
    first = run_script(tmp_path, "--save", str(saved))
    assert first.returncode == 0, first.stderr
    again = run_script(tmp_path, "--compare", str(saved))
    assert again.returncode == 0, again.stderr
    with np.load(saved) as data:
        arrays = dict(data)
    # every output of the first trial, less the saved trial count
    assert f"all {len(arrays) - 1} arrays match {saved}" in again.stdout

    # one rate cell moved by one ulp no longer matches, and only it
    name = "run_schemes/t0/m1/all/p7/rate"
    rate = arrays[name]
    cell = np.unravel_index(rate.argmax(), rate.shape)
    rate[cell] = np.nextafter(rate[cell], np.inf)
    edited = tmp_path / "edited.npz"
    np.savez_compressed(edited, **arrays)
    broken = run_script(tmp_path, "--compare", str(edited))
    assert broken.returncode == 1
    assert f"{name}: 1 of {rate.size} cells differ" in broken.stderr
    assert f"1 of {len(arrays) - 1} arrays differ from {edited}" \
        in broken.stderr

    report = run_script(tmp_path, "--report", str(edited))
    assert report.returncode == 0, report.stderr
    moved = [line for line in report.stdout.splitlines()
             if "unchanged" not in line]
    assert moved[0].startswith(f"{name}: 1 of {rate.size} cells differ, "
                               "largest relative move ")
    assert 0.0 < float(moved[0].rsplit(" ", 1)[1]) < 1e-15


def test_rejects_fewer_than_one_trial(tmp_path):
    # argparse keeps the last --trials, so these override run_script's 1
    for trials in ("0", "-1"):
        saved = tmp_path / "outputs.npz"
        result = run_script(tmp_path, "--trials", trials, "--save", str(saved))
        assert result.returncode == 1
        assert "--trials must be at least 1" in result.stderr
        assert not saved.exists()
    # a saved file with no trial would compare no simulator output
    empty = tmp_path / "empty.npz"
    np.savez_compressed(empty, trials=0)
    result = run_script(tmp_path, "--compare", str(empty))
    assert result.returncode == 1
    assert f"{empty} holds no trial" in result.stderr
