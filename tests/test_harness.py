import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import satcoop
import satcoop.cli as cli
import satcoop.harness as harness
import satcoop.schemes as schemes
from satcoop.cli import (_glue_negative_values, _merge_config, build_parser,
                         load_config_file, main, parse_power_grid,
                         parse_schemes)
from satcoop.harness import (SimConfig, SweepReport, aggregate_mean_stderr,
                             export_report, run_sweep)

QUICK = dict(trials=2, power_grid_dbw_per_beam=(-5.0, 5.0),
             schemes=("coloring", "rzf"), workers=1)


def quick_config(**overrides):
    return dataclasses.replace(SimConfig(), **{**QUICK, **overrides})


def read_rows(path, fmt="csv"):
    """Rows of an exported report, as the file holds them."""
    with open(path, newline="") as fh:
        if fmt == "csv":
            return list(csv.DictReader(fh))
        return json.load(fh)["rows"]


def schemes_of(rows):
    return tuple(dict.fromkeys(row["scheme"] for row in rows))


def grid_of(rows):
    return tuple(dict.fromkeys(float(row["per_beam_power_dbw"]) for row in rows))


def column(rows, key, shape):
    """One numeric column of the (scheme, power) rows as an array."""
    return np.array([float(row[key]) for row in rows]).reshape(shape)


@pytest.fixture(scope="module")
def quick_report():
    return run_sweep(quick_config())


class TestRunSweep:
    def test_single_trial_aggregation_identity(self):
        report = run_sweep(quick_config(trials=1, schemes=("coloring",),
                                        power_grid_dbw_per_beam=(0.0,)))
        assert report.mean_mbps.shape == (1, 1)
        assert report.mean_mbps[0, 0] == report.trial_mbps[0, 0, 0]
        assert report.stderr_mbps[0, 0] == 0.0

    def test_schemes_share_realizations(self, quick_report):
        assert len(quick_report.checksums) == 2
        assert len(set(quick_report.checksums)) == 2  # trials differ

    def test_seed_ladder_prefix_stable(self):
        short = run_sweep(quick_config(trials=2))
        longer = run_sweep(quick_config(trials=4))
        np.testing.assert_array_equal(short.trial_mbps,
                                      longer.trial_mbps[:, :, :2])
        assert short.checksums == longer.checksums[:2]

    def test_master_seed_changes_realizations(self):
        a = run_sweep(quick_config(trials=1, master_seed=1))
        b = run_sweep(quick_config(trials=1, master_seed=2))
        assert a.checksums != b.checksums
        assert not np.array_equal(a.trial_mbps, b.trial_mbps)

    def test_worker_count_does_not_change_results(self):
        seq = run_sweep(quick_config(workers=1))
        par = run_sweep(quick_config(workers=2))
        np.testing.assert_array_equal(seq.trial_mbps, par.trial_mbps)
        assert seq.checksums == par.checksums

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(quick_config(schemes=("nope",)))
        with pytest.raises(ValueError):
            run_sweep(quick_config(power_grid_dbw_per_beam=()))
        with pytest.raises(ValueError):
            run_sweep(quick_config(trials=0))
        with pytest.raises(ValueError):
            run_sweep(quick_config(out_format="xml"))
        with pytest.raises(ValueError, match="nonnegative"):
            run_sweep(quick_config(m_per_neighbour=-1))
        with pytest.raises(ValueError, match="exceeds the 7 users"):
            run_sweep(quick_config(m_per_neighbour=8))
        with pytest.raises(ValueError, match="1001 points"):
            run_sweep(quick_config(power_grid_dbw_per_beam=tuple(
                i / 1000 for i in range(1001))))
        with pytest.raises(ValueError, match="master_seed must be nonnegative"):
            run_sweep(quick_config(master_seed=-1))

    def test_one_checksum_and_one_scheme_pass_per_trial(self, monkeypatch):
        # every (scheme, power) cell comes from one run_schemes call on one
        # read-only realization, whose checksum is taken once
        from satcoop.channel import ChannelRealization, LinkBudget
        from satcoop.geometry import build_topology
        calls = {"checksum": 0, "run_schemes": 0}
        checksum = ChannelRealization.checksum
        run_schemes = harness.run_schemes

        def counting_checksum(self):
            calls["checksum"] += 1
            return checksum(self)

        def counting_run_schemes(*args):
            calls["run_schemes"] += 1
            return run_schemes(*args)

        monkeypatch.setattr(ChannelRealization, "checksum", counting_checksum)
        monkeypatch.setattr(harness, "run_schemes", counting_run_schemes)
        cfg = quick_config(trials=1, schemes=("coloring", "rzf", "csi"))
        topo = build_topology(cfg.coverage_diameter_km)
        means, _, _ = harness.run_trial(topo, LinkBudget(), cfg, 0)
        assert means.shape == (3, 2)
        assert calls == {"checksum": 1, "run_schemes": 1}

    def test_trial_seed_derivation_is_pinned(self):
        # trial t draws from SeedSequence([master_seed, t]) spawned into
        # (drop, channel); the sweep's checksums must match an independent
        # reconstruction, or stored results would not be comparable across
        # versions and worker counts
        from satcoop.channel import LinkBudget, synthesize_channels
        from satcoop.geometry import build_topology, drop_users
        from satcoop.harness import run_trial
        cfg = quick_config(trials=1, master_seed=31)
        topo = build_topology(cfg.coverage_diameter_km)
        _, checksum, _ = run_trial(topo, LinkBudget(), cfg, 0)
        seq = np.random.SeedSequence([31, 0])
        drop_seq, chan_seq = seq.spawn(2)
        drop = drop_users(topo, np.random.default_rng(drop_seq))
        real = synthesize_channels(topo, drop, LinkBudget(),
                                   np.random.default_rng(chan_seq))
        assert real.checksum() == checksum


class TestWorkerResolution:
    def test_explicit_wins(self):
        from satcoop.harness import resolve_workers
        assert resolve_workers(3) == 3

    def test_environment_override(self, monkeypatch):
        from satcoop.harness import WORKERS_ENV_VAR, resolve_workers
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_workers(None) == 5
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert resolve_workers(None) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    def test_bad_environment_value_rejected(self, monkeypatch, value):
        from satcoop.harness import WORKERS_ENV_VAR, resolve_workers
        monkeypatch.setenv(WORKERS_ENV_VAR, value)
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            resolve_workers(None)

    def test_bad_environment_value_is_configuration_error(self, tmp_path,
                                                          monkeypatch, capsys):
        from satcoop.harness import WORKERS_ENV_VAR
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        code = main(["--trials", "1", "--schemes", "coloring", "--power-dbw",
                     "0", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert WORKERS_ENV_VAR in capsys.readouterr().err


class TestWorkerPool:
    class RecordingPool:
        """Stands in for multiprocessing.Pool: records its size, forks nothing
        and returns a placeholder outcome per trial."""

        sizes = []

        def __init__(self, processes):
            self.sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            config = jobs[0][2]
            shape = (len(config.schemes), len(config.power_grid_dbw_per_beam))
            return [(np.ones(shape), "placeholder", np.zeros(shape, dtype=int))
                    for _ in jobs]

    # (CPUs, --workers, --trials, expected pool size)
    @pytest.mark.parametrize("cpus, workers, trials, size", [
        (3, 100000, 100000, 3),
        (64, 100, 5, 5),
    ])
    def test_pool_capped_at_cpus_and_trials(self, tmp_path, monkeypatch,
                                            cpus, workers, trials, size):
        self.RecordingPool.sizes = []
        monkeypatch.setattr(harness.multiprocessing, "Pool", self.RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        code = main(["--workers", str(workers), "--trials", str(trials),
                     "--schemes", "coloring", "--power-dbw", "0",
                     "--out", str(tmp_path / "flood.csv")])
        assert code == 0
        assert self.RecordingPool.sizes == [size]


class TestAggregation:
    def test_mean_and_stderr(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        mean, se = aggregate_mean_stderr(values)
        assert mean == 2.5
        assert se == pytest.approx(values.std(ddof=1) / 2.0)

    def test_stderr_shrinks_like_sqrt_n(self):
        rng = np.random.default_rng(0)
        base = rng.normal(0.0, 1.0, size=6400)
        _, se_small = aggregate_mean_stderr(base[:100])
        _, se_large = aggregate_mean_stderr(base)
        assert se_large == pytest.approx(se_small / 8.0, rel=0.35)

    def test_single_sample_has_zero_stderr(self):
        assert aggregate_mean_stderr(np.array([5.0])) == (5.0, 0.0)


class TestExport:
    def test_empty_report_writes_header_only(self, tmp_path):
        empty = SweepReport(schemes=(), power_grid_dbw=(), trials=0,
                            mean_mbps=np.zeros((0, 0)),
                            stderr_mbps=np.zeros((0, 0)),
                            trial_mbps=np.zeros((0, 0, 0)), checksums=(),
                            nonconverged=np.zeros((0, 0), int))
        path = tmp_path / "empty.csv"
        export_report(empty, str(path), "csv")
        lines = path.read_text().strip().splitlines()
        assert lines == ["scheme,per_beam_power_dbw,mean_throughput_mbps,"
                         "std_error_mbps,trials"]

    def test_row_cardinality(self, tmp_path, quick_report):
        path = tmp_path / "r.csv"
        export_report(quick_report, str(path), "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + schemes x powers

    def test_csv_roundtrip(self, tmp_path, quick_report):
        path = tmp_path / "r.csv"
        export_report(quick_report, str(path), "csv")
        rows = read_rows(path, "csv")
        shape = quick_report.mean_mbps.shape
        assert schemes_of(rows) == quick_report.schemes
        assert grid_of(rows) == quick_report.power_grid_dbw
        assert {int(row["trials"]) for row in rows} == {quick_report.trials}
        np.testing.assert_allclose(
            column(rows, "mean_throughput_mbps", shape), quick_report.mean_mbps,
            rtol=1e-9)
        np.testing.assert_allclose(
            column(rows, "std_error_mbps", shape), quick_report.stderr_mbps,
            rtol=1e-9, atol=1e-15)

    def test_json_roundtrip(self, tmp_path, quick_report):
        path = tmp_path / "r.json"
        export_report(quick_report, str(path), "json")
        rows = read_rows(path, "json")
        np.testing.assert_allclose(
            column(rows, "mean_throughput_mbps", quick_report.mean_mbps.shape),
            quick_report.mean_mbps, rtol=1e-9)

    def test_plot_companion_file(self, tmp_path, quick_report):
        path = tmp_path / "r.csv"
        export_report(quick_report, str(path), "csv")
        dat = (tmp_path / "r.dat").read_text().splitlines()
        assert dat[0] == "# per_beam_power_dbw coloring rzf"
        assert len(dat) == 1 + len(quick_report.power_grid_dbw)
        first = [float(x) for x in dat[1].split()]
        assert first[0] == quick_report.power_grid_dbw[0]
        assert first[1] == pytest.approx(quick_report.mean_mbps[0, 0], rel=1e-9)

    def test_export_is_deterministic(self, tmp_path):
        cfg = quick_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_report(run_sweep(cfg), str(a), "csv")
        export_report(run_sweep(cfg), str(b), "csv")
        assert a.read_bytes() == b.read_bytes()


class TestCliParsing:
    def test_power_grid_range_form(self):
        assert parse_power_grid("0:30:5") == (0, 5, 10, 15, 20, 25, 30)
        assert parse_power_grid("-15:15:5") == (-15, -10, -5, 0, 5, 10, 15)
        assert len(parse_power_grid("0:999:1")) == 1000

    def test_power_grid_list_form(self):
        assert parse_power_grid("1.5,2,8") == (1.5, 2.0, 8.0)

    def test_power_grid_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_power_grid("0:30")
        with pytest.raises(ValueError):
            parse_power_grid("30:0:5")
        for unbounded in ("0:inf:1", "nan:10:1", "0:10:nan"):
            with pytest.raises(ValueError, match="finite"):
                parse_power_grid(unbounded)
        for too_long in ("0:1e9:1e-6", "0:1000:1"):
            with pytest.raises(ValueError, match="points"):
                parse_power_grid(too_long)

    def test_scheme_list(self):
        assert parse_schemes("coloring,csidata") == ("coloring", "csidata")
        assert parse_schemes(" rzf , ,csi,") == ("rzf", "csi")

    def test_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("# sweep setup\ntrials = 3\nschemes = coloring\n"
                       "power_dbw = 0:10:5\npaper_literal_coloring = true\n")
        values = load_config_file(str(cfg))
        assert values == {"trials": "3", "schemes": "coloring",
                          "power_dbw": "0:10:5",
                          "paper_literal_coloring": "true"}

    def test_config_file_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("frobnicate = 1\n")
        with pytest.raises(ValueError):
            load_config_file(str(cfg))


class TestCliMain:
    def run_main(self, tmp_path, *extra):
        out = tmp_path / "out.csv"
        argv = ["--trials", "1", "--schemes", "coloring", "--power-dbw", "0",
                "--workers", "1", "--out", str(out), *extra]
        return main(argv), out

    def test_success_exit_code(self, tmp_path, capsys):
        code, out = self.run_main(tmp_path)
        assert code == 0
        assert out.exists()
        assert "coloring" in capsys.readouterr().out

    def test_configuration_error_exit_code(self, tmp_path, capsys):
        code = main(["--schemes", "bogus", "--trials", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(["--trials", "1", "--schemes", "coloring", "--power-dbw",
                     "0", "--workers", "1",
                     "--out", str(tmp_path / "missing_dir" / "x.csv")])
        assert code == 2
        assert "I/O error" in capsys.readouterr().err

    # key: (config-file value, overriding flag, SimConfig field, flag's value)
    OVERRIDES = {
        "trials": ("1", ["--trials", "2"], "trials", 2),
        "seed": ("1", ["--seed", "2"], "master_seed", 2),
        "schemes": ("coloring,rzf", ["--schemes", "coloring"], "schemes",
                    ("coloring",)),
        "power_dbw": ("0", ["--power-dbw", "-5,5"],
                      "power_grid_dbw_per_beam", (-5.0, 5.0)),
        "m": ("1", ["--m", "0"], "m_per_neighbour", 0),
        "out": ("from_file.csv", ["--out", "from_flag.csv"], "out_path",
                "from_flag.csv"),
        "format": ("csv", ["--format", "json"], "out_format", "json"),
        "paper_literal_coloring": ("false", ["--paper-literal-coloring"],
                                   "paper_literal_coloring", True),
        "workers": ("1", ["--workers", "2"], "workers", 2),
    }

    @pytest.mark.parametrize("key", list(OVERRIDES))
    def test_flags_override_config_file(self, tmp_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("".join(f"{k} = {file_value}\n" for k, (file_value, *_)
                               in self.OVERRIDES.items()))
        _, flag, field, flag_value = self.OVERRIDES[key]
        argv = ["--config", str(cfg), *flag]
        config = _merge_config(build_parser().parse_args(
            _glue_negative_values(argv)))
        file_only = _merge_config(build_parser().parse_args(argv[:2]))
        assert getattr(config, field) == flag_value
        assert getattr(file_only, field) != flag_value
        # every other key keeps its config-file value
        assert dataclasses.replace(config, **{field: getattr(file_only, field)}) \
            == file_only
        assert main(argv) == 0
        rows = read_rows(config.out_path, config.out_format)
        assert schemes_of(rows) == config.schemes
        assert grid_of(rows) == config.power_grid_dbw_per_beam
        assert {int(row["trials"]) for row in rows} == {config.trials}

    def test_unknown_scheme_in_config_file_is_configuration_error(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schemes = coloring,bogus\n")
        out = tmp_path / "x.csv"
        code = main(["--config", str(cfg), "--trials", "1", "--out", str(out)])
        assert code == 1
        assert ("configuration error: unknown scheme 'bogus'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_seed_is_configuration_error(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        code, out = self.run_main(tmp_path, "--seed", "-1")
        assert code == 1
        assert ("configuration error: master_seed must be nonnegative, got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_out_path_that_is_its_own_companion_is_rejected(
            self, tmp_path, capsys, monkeypatch):
        # the .dat companion would overwrite the results just written
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        out = tmp_path / "r.dat"
        code = main(["--trials", "1", "--schemes", "coloring", "--power-dbw",
                     "0", "--workers", "1", "--out", str(out)])
        assert code == 1
        assert "is its own .dat companion" in capsys.readouterr().err
        assert not out.exists()

    def test_gain_line_matches_mean_ratios(self, tmp_path, monkeypatch,
                                           capsys):
        reports = record_reports(monkeypatch)
        code, _ = self.run_main(tmp_path, "--trials", "2", "--schemes",
                                "rzf,coloring,csi", "--power-dbw", "-5,5")
        assert code == 0
        mean = reports[-1].mean_mbps
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("mean-throughput gain over the 4-colour "
                            "baseline at each power:")
        printed = {}
        for line in lines[start + 1:]:
            name, _, cells = line.partition(":")
            printed[name.strip()] = [float(c.rstrip("%")) for c in cells.split()]
        assert list(printed) == ["rzf", "csi"]
        for name, si in (("rzf", 0), ("csi", 2)):
            np.testing.assert_allclose(printed[name],
                                       100 * (mean[si] / mean[1] - 1.0),
                                       atol=0.05 + 1e-9)

    def test_missing_config_file_is_configuration_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 1

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cli.csv"
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "satcoop.cli", "--trials", "1",
             "--schemes", "coloring", "--power-dbw", "0",
             "--workers", "1", "--out", str(out)],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_help_documents_all_flags(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--trials", "--seed", "--schemes",
                     "--power-dbw", "--m", "--out", "--format",
                     "--paper-literal-coloring", "--workers"):
            assert flag in text

    def test_negative_power_grid_accepted(self, tmp_path):
        out = tmp_path / "neg.csv"
        code = main(["--trials", "1", "--schemes", "coloring", "--power-dbw",
                     "-10:0:10", "--workers", "1", "--out", str(out)])
        assert code == 0
        assert grid_of(read_rows(out)) == (-10.0, 0.0)

    @pytest.mark.parametrize("grid", ["0:inf:1", "0:1e9:1e-6",
                                      # point counts that overflow an int
                                      "0:1e308:1e-308", "-1e308:1e308:1",
                                      "0:1:1e-320"])
    def test_unbounded_power_grid_is_configuration_error(self, tmp_path,
                                                         capsys, grid):
        code = main(["--trials", "1", "--schemes", "coloring", "--power-dbw",
                     grid, "--workers", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("dbw", ["1e20", "-1e20", "3000", "300", "-300",
                                     "60.5", "nan", "inf", "-inf"])
    def test_out_of_range_power_is_configuration_error(self, tmp_path, capsys,
                                                       dbw):
        # per-beam power outside [-60, 60] dBW; 1e20 dBW would overflow the
        # linear budget and -1e20 dBW underflow it to 0
        code = main(["--trials", "1", "--schemes", "coloring", "--power-dbw",
                     dbw, "--workers", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_power_range_edges_and_default_grid_accepted(self, tmp_path):
        SimConfig().validate()
        out = tmp_path / "edges.csv"
        code = main(["--trials", "1", "--schemes", "coloring", "--power-dbw",
                     "-60,60", "--workers", "1", "--out", str(out)])
        assert code == 0
        assert grid_of(read_rows(out)) == (-60.0, 60.0)

    def test_nonconvergence_reported_on_stderr(self, tmp_path, monkeypatch,
                                               capsys):
        argv = ["--trials", "1", "--schemes", "coloring,rzf", "--power-dbw",
                "0", "--workers", "1", "--out", str(tmp_path / "x.csv")]
        reports = record_reports(monkeypatch)
        assert main(argv) == 0
        assert reports[-1].nonconverged.sum() == 0
        assert capsys.readouterr().err == ""

        allocate = schemes.allocate_sumrate_batch

        def capped(gains, noise_w, p_total):
            return allocate(gains, noise_w, p_total, tol=1e-300, max_iters=1)

        monkeypatch.setattr(schemes, "allocate_sumrate_batch", capped)
        assert main(argv) == 0
        total = reports[-1].nonconverged.sum()
        assert total > 0
        assert reports[-1].nonconverged[0].sum() == 0   # coloring has no solver
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"{total} power allocation problems did not converge" in err[0]
        assert f"rzf at 0 dBW ({total})" in err[0]

    @pytest.mark.parametrize("value", ["ture", "", "2", "on", "False!"])
    def test_flag_typo_in_config_file_is_configuration_error(self, tmp_path,
                                                             capsys, value):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"paper_literal_coloring = {value}\n")
        code, out = self.run_main(tmp_path, "--config", str(cfg))
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("false", False), ("NO", False)])
    def test_flag_spellings_in_config_file(self, tmp_path, value, expected):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"paper_literal_coloring = {value}\n")
        config = _merge_config(build_parser().parse_args(
            ["--config", str(cfg)]))
        assert config.paper_literal_coloring is expected

    @pytest.mark.parametrize("flags, repeat", [
        (["--schemes", "coloring,coloring"], "scheme 'coloring' is repeated"),
        (["--power-dbw", "0,0"], "power grid point 0 dBW per beam is repeated")])
    def test_repeated_scheme_or_power_is_configuration_error(
            self, tmp_path, capsys, flags, repeat):
        code, out = self.run_main(tmp_path, *flags)
        assert code == 1
        assert f"configuration error: {repeat}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("schemes", ["coloring,rzf", "csi"])
    def test_edge_count_above_cluster_size_is_configuration_error(
            self, tmp_path, capsys, monkeypatch, schemes):
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        code, out = self.run_main(tmp_path, "--schemes", schemes, "--m", "8")
        assert code == 1
        assert ("configuration error: m_per_neighbour=8 exceeds the 7 users"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_long_comma_power_list_is_configuration_error(
            self, tmp_path, capsys, monkeypatch):
        # a comma list is capped like a range, before any trial runs
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        grid = ",".join(f"{i / 1000:.3f}" for i in range(1001))
        code, out = self.run_main(tmp_path, "--power-dbw", grid)
        assert code == 1
        assert ("configuration error: power grid has 1001 points; at most "
                "1000 are allowed" in capsys.readouterr().err)
        assert not out.exists()

    def test_usage_error_maps_to_configuration_exit(self):
        assert main(["--trials", "not_a_number"]) == 1


def _no_sweep(config):
    raise AssertionError("the sweep must not start")


def record_reports(monkeypatch):
    """Make cli.main append each SweepReport it gets to the returned list."""
    reports = []
    run_sweep = cli.run_sweep

    def recording(config):
        reports.append(run_sweep(config))
        return reports[-1]

    monkeypatch.setattr(cli, "run_sweep", recording)
    return reports


def test_public_names_resolve():
    for name in satcoop.__all__:
        assert hasattr(satcoop, name), name


class TestBenchmarkHooks:
    def test_satbench_spans_fire(self, tmp_path, monkeypatch):
        # the benchmark wraps module attributes that callers look up at call
        # time; each wrapped layer must still run in a csidata trial
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "satbench"))
        import spans
        tracer = spans.Tracer()
        replacements, traced_main = spans.install(tracer, cli.main)
        with spans.patched(replacements):
            code = traced_main(["--trials", "1", "--schemes", "csidata",
                                "--power-dbw", "0", "--workers", "1",
                                "--out", str(tmp_path / "x.csv")])
        assert code == 0
        fired = {rec[spans.NAME] for rec in tracer.spans}
        assert {"precoding.select_edge_users",
                "power_alloc.allocate_sumrate_batch",
                "power_alloc.project_power", "channel.checksum"} <= fired
        # the allocator span's tag unpacks the five values that
        # allocate_sumrate_batch returns into [problems, streams, iterations,
        # non-converged]; one csidata power solves one problem per gateway
        tags = [rec[spans.TAG] for rec in tracer.spans
                if rec[spans.NAME] == "power_alloc.allocate_sumrate_batch"]
        assert tags and all(len(tag) == 4 for tag in tags)
        assert sum(tag[0] for tag in tags) == 19
        assert sum(tag[3] for tag in tags) == 0
        # the benchmark's calibration checkpoint patches this name
        assert callable(harness.run_scheme)

    def test_setup_probe_runs(self):
        # the benchmark's set-up probe reads the layout constants of SimConfig
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "satbench" / "setup_probe.py")],
            capture_output=True, text=True, cwd=root,
            env=dict(os.environ, PYTHONPATH="src"))
        assert proc.returncode == 0, proc.stderr


def test_config_fields_are_the_cli_settings():
    assert ({f.name for f in dataclasses.fields(SimConfig)}
            == {field for _, field, _ in cli._CONFIG_TABLE})
