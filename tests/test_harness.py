import csv
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import satcoop
import satcoop.cli as cli
import satcoop.harness as harness
import satcoop.power_alloc as power_alloc
from satcoop.cli import (_glue_negative_values, _merge_config, build_parser,
                         load_config_file, main, parse_power_grid,
                         parse_schemes)
from oracles import bootstrap_gain_stderr
from satcoop.harness import (SimConfig, SweepReport, aggregate_mean_stderr,
                             export_report, paired_gain, run_sweep)

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
        np.testing.assert_array_equal(seq.nonconverged, par.nonconverged)
        assert seq.checksums == par.checksums

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap thresholds are glibc's mallopt")
    def test_steady_state_trials_fault_in_no_heap(self):
        # with glibc's default thresholds every paper-shaped trial handed
        # its freed heap back to the kernel and faulted it in again, about
        # 1366 minor faults per trial
        def faults(trials):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_sweep(dataclasses.replace(SimConfig(), trials=trials,
                                          workers=1))
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(10)   # the heap grows to these trials' peak once
        assert faults(10) / 10 <= 10

    def test_sweep_runs_where_libc_has_no_mallopt(self, monkeypatch,
                                                  quick_report):
        looked_up = []

        def libc_without_mallopt(name):
            looked_up.append(name)
            return object()

        monkeypatch.setattr(harness.ctypes, "CDLL", libc_without_mallopt)
        report = run_sweep(quick_config())
        assert looked_up == [None]
        np.testing.assert_array_equal(report.trial_mbps,
                                      quick_report.trial_mbps)
        assert report.checksums == quick_report.checksums

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

    def test_trial_count_capped(self):
        SimConfig(trials=harness.MAX_TRIALS).validate()
        with pytest.raises(ValueError, match=f"trials={harness.MAX_TRIALS + 1} "
                                             "exceeds the cap"):
            SimConfig(trials=harness.MAX_TRIALS + 1).validate()

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

    def test_trial_calls_drop_and_synthesis_through_module_names(
            self, monkeypatch):
        # run_trial looks up harness.drop_users and harness.synthesize_channels
        # when it runs, once each, so a wrapper set on those names (as the
        # benchmark's geometry and channel spans are) sees every trial
        from satcoop.channel import LinkBudget
        from satcoop.geometry import build_topology
        calls = {"drop_users": 0, "synthesize_channels": 0}

        def counting(name):
            inner = getattr(harness, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(harness, name, counting(name))
        cfg = quick_config(trials=2, schemes=("coloring",))
        topo = build_topology(cfg.coverage_diameter_km)
        harness.run_trial(topo, LinkBudget(), cfg, 0)
        assert calls == {"drop_users": 1, "synthesize_channels": 1}
        harness.run_trial(topo, LinkBudget(), cfg, 1)
        assert calls == {"drop_users": 2, "synthesize_channels": 2}

    def test_trial_jobs_are_built_as_trials_start(self, monkeypatch):
        # a sweep of a million trials holds next to nothing when its first
        # trial starts; a list of every trial's job took about 110 MB
        class FirstTrial(Exception):
            pass

        def first_trial(*job):
            raise FirstTrial

        monkeypatch.setattr(harness, "run_trial", first_trial)
        config = quick_config(trials=10**6)
        tracemalloc.start()
        try:
            with pytest.raises(FirstTrial):
                run_sweep(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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


class TestWorkerPool:
    class RecordingPool:
        """Stands in for multiprocessing.Pool: records its size and worker
        initializer, forks nothing and returns a placeholder outcome per
        trial."""

        sizes = []
        initializers = []

        def __init__(self, processes, initializer=None):
            self.sizes.append(processes)
            self.initializers.append(initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs):
            for _, _, config, _ in jobs:
                shape = (len(config.schemes),
                         len(config.power_grid_dbw_per_beam))
                yield np.ones(shape), "placeholder", np.zeros(shape, dtype=int)

    # (CPUs, --workers or None for no flag, --trials, expected pool size)
    @pytest.mark.parametrize("cpus, workers, trials, size", [
        (3, 100000, 100000, 3),
        (64, 100, 5, 5),
        (4, None, 10, 4),
        (64, None, 5, 5),
    ])
    def test_pool_capped_at_cpus_and_trials(self, tmp_path, monkeypatch,
                                            cpus, workers, trials, size):
        self.RecordingPool.sizes, self.RecordingPool.initializers = [], []
        monkeypatch.setattr(harness.multiprocessing, "Pool", self.RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        flags = [] if workers is None else ["--workers", str(workers)]
        code = main([*flags, "--trials", str(trials),
                     "--schemes", "coloring", "--power-dbw", "0",
                     "--out", str(tmp_path / "flood.csv")])
        assert code == 0
        assert self.RecordingPool.sizes == [size]
        # each worker keeps its heap mapped, as the parent process does
        assert self.RecordingPool.initializers == [harness._retain_heap]


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


def two_scheme_report(x, y):
    """SweepReport of per-trial values x and y (P, T), schemes a and b."""
    trial = np.stack([x, y])
    mean, stderr = aggregate_mean_stderr(trial)
    return SweepReport(schemes=("a", "b"),
                       power_grid_dbw=tuple(range(x.shape[0])),
                       trials=x.shape[1], mean_mbps=mean, stderr_mbps=stderr,
                       trial_mbps=trial, checksums=(),
                       nonconverged=np.zeros(mean.shape, dtype=int))


class TestPairedGain:
    def test_constant_multiple_has_zero_error(self):
        y = np.random.default_rng(3).uniform(50.0, 500.0, (3, 40))
        gain, stderr = paired_gain(two_scheme_report(2.0 * y, y), "a", "b")
        np.testing.assert_array_equal(gain, 1.0)
        np.testing.assert_array_equal(stderr, 0.0)
        gain, stderr = paired_gain(two_scheme_report(1.3 * y, y), "a", "b")
        np.testing.assert_allclose(gain, 0.3, rtol=1e-12)
        np.testing.assert_allclose(stderr, 0.0, atol=1e-14)

    def test_gain_is_ratio_of_report_means(self, quick_report):
        gain, stderr = paired_gain(quick_report, "rzf", "coloring")
        mean = quick_report.mean_mbps
        np.testing.assert_array_equal(gain, mean[1] / mean[0] - 1.0)
        assert stderr.shape == gain.shape and np.all(stderr > 0)

    def test_single_trial_has_zero_error(self):
        y = np.array([[100.0], [200.0]])
        assert np.all(paired_gain(two_scheme_report(1.5 * y + 1.0, y),
                                  "a", "b")[1] == 0.0)

    def test_error_agrees_with_bootstrap(self):
        # correlated paired trials, as the schemes see one realization each;
        # the tolerance is set from the bootstrap's own resampling error,
        # about 1/sqrt(2*4000) = 1.1% relative, with room for the O(1/T)
        # difference between the two estimators
        rng = np.random.default_rng(11)
        y = rng.gamma(20.0, 10.0, (4, 200))
        x = 1.2 * y + rng.normal(0.0, 15.0, y.shape) + np.arange(4)[:, None]
        _, stderr = paired_gain(two_scheme_report(x, y), "a", "b")
        boot = bootstrap_gain_stderr(x, y, 4000, np.random.default_rng(12))
        np.testing.assert_allclose(stderr, boot, rtol=0.05)


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

    @pytest.fixture
    def config_error(self, tmp_path, capsys, monkeypatch):
        """Check that main(--out x.csv, *flags) exits 1 with stderr starting
        "configuration error: " + message, in an empty directory, before any
        trial runs and with nothing written but the config file (file_text,
        when given, is written to sim.cfg)."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)

        def check(flags, message, file_text=None):
            if file_text is not None:
                (tmp_path / "sim.cfg").write_text(file_text)
            assert main(["--out", "x.csv", *flags]) == 1
            assert capsys.readouterr().err.startswith(
                f"configuration error: {message}")
            assert sorted(os.listdir(tmp_path)) == (
                [] if file_text is None else ["sim.cfg"])
        return check

    def test_configuration_error_exit_code(self, config_error):
        config_error(["--schemes", "bogus"], "unknown scheme 'bogus'")

    def test_unknown_scheme_in_config_file_is_configuration_error(
            self, config_error):
        config_error(["--config", "sim.cfg"], "unknown scheme 'bogus'",
                     "schemes = coloring,bogus\n")

    def test_negative_seed_is_configuration_error(self, config_error):
        config_error(["--seed", "-1"],
                     "master_seed must be nonnegative, got -1")

    def test_out_path_that_is_its_own_companion_is_rejected(self,
                                                            config_error):
        # the .dat companion would overwrite the results just written
        config_error(["--out", "r.dat"],
                     "output path 'r.dat' is its own .dat companion")

    def test_missing_config_file_is_configuration_error(self, config_error):
        config_error(["--config", "absent.cfg"],
                     "[Errno 2] No such file or directory: 'absent.cfg'")

    @pytest.mark.parametrize("grid", ["0:inf:1", "0:1e9:1e-6",
                                      # point counts that overflow an int
                                      "0:1e308:1e-308", "-1e308:1e308:1",
                                      "0:1:1e-320"])
    def test_unbounded_power_grid_is_configuration_error(self, config_error,
                                                         grid):
        why = ("must have finite bounds" if grid == "0:inf:1"
               else "has more than 1000 points")
        config_error(["--power-dbw", grid],
                     f"power_dbw: power grid {grid!r} {why}")

    @pytest.mark.parametrize("dbw", ["1e20", "-1e20", "3000", "300", "-300",
                                     "60.5", "nan", "inf", "-inf"])
    def test_out_of_range_power_is_configuration_error(self, config_error,
                                                       dbw):
        # per-beam power outside [-60, 60] dBW; 1e20 dBW would overflow the
        # linear budget and -1e20 dBW underflow it to 0
        config_error(["--power-dbw", dbw],
                     f"power grid point {float(dbw)!r} dBW per beam is "
                     "outside [-60, 60] dBW")

    def test_trial_count_above_cap_is_configuration_error(self,
                                                          config_error):
        config_error(["--trials", "1000001"],
                     "trials=1000001 exceeds the cap of 1000000")

    def test_long_comma_power_list_is_configuration_error(self,
                                                          config_error):
        # a comma list is capped like a range
        grid = ",".join(f"{i / 1000:.3f}" for i in range(1001))
        config_error(["--power-dbw", grid],
                     "power grid has 1001 points; at most 1000 are allowed")

    @pytest.mark.parametrize("value", ["ture", "", "2", "on", "False!"])
    def test_flag_typo_in_config_file_is_configuration_error(self,
                                                             config_error,
                                                             value):
        config_error(["--config", "sim.cfg"],
                     f"paper_literal_coloring: flag value {value!r} is not "
                     "one of 1/0/true/false/yes/no",
                     f"paper_literal_coloring = {value}\n")

    def test_repeated_key_in_config_file_is_configuration_error(
            self, config_error):
        config_error(["--config", "sim.cfg"],
                     "sim.cfg:3: key 'trials' is already set on line 1",
                     "trials = 3\n# note\ntrials = 1\n")

    @pytest.mark.parametrize("flags, repeat", [
        (["--schemes", "coloring,coloring"], "scheme 'coloring' is repeated"),
        (["--power-dbw", "0,0"], "power grid point 0 dBW per beam is repeated")])
    def test_repeated_scheme_or_power_is_configuration_error(
            self, config_error, flags, repeat):
        config_error(flags, repeat)

    @pytest.mark.parametrize("schemes", ["coloring,rzf", "csi"])
    def test_edge_count_above_cluster_size_is_configuration_error(
            self, config_error, schemes):
        config_error(["--schemes", schemes, "--m", "8"],
                     "m_per_neighbour=8 exceeds the 7 users")

    def test_usage_error_maps_to_configuration_exit(self, config_error):
        config_error(["--trials", "not_a_number"],
                     "trials: invalid literal for int() with base 10: "
                     "'not_a_number'")

    @pytest.mark.parametrize("out", ["missing_dir/x.csv", "existing_dir", "",
                                     "r.csv"],
                             ids=["missing-directory", "directory", "empty",
                                  "companion-directory"])
    def test_io_error_exit_code(self, tmp_path, capsys, monkeypatch, out):
        # an --out, or its .dat companion, that names no file in an existing
        # directory is reported before any trial runs, not when the report
        # is written
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing_dir").mkdir()
        (tmp_path / "r.dat").mkdir()
        code = main(["--trials", "1", "--schemes", "coloring", "--power-dbw",
                     "0", "--workers", "1", "--out", out])
        assert code == 2
        assert "I/O error" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flags", [["--tri", "2"], ["--pap"],
                                       ["--power", "-15:15:5"],
                                       ["--power=-5"]],
                             ids=["tri", "pap", "power", "power="])
    def test_abbreviated_flag_is_usage_error(self, tmp_path, capsys,
                                             monkeypatch, flags):
        # each flag has one spelling: a prefix is an unknown flag
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        assert main(["--out", str(tmp_path / "x.csv"), *flags]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

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

    def test_gain_line_matches_mean_ratios(self, tmp_path, monkeypatch,
                                           capsys):
        reports = record_reports(monkeypatch)
        code, _ = self.run_main(tmp_path, "--trials", "3", "--schemes",
                                "rzf,coloring,csidata", "--power-dbw", "-5,5")
        assert code == 0
        report = reports[-1]
        mean = report.mean_mbps
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("mean-throughput gain ± standard error over the "
                            "paired trials at each power:")
        printed = {}
        for line in lines[start + 1:]:
            name, _, cells = line.partition(":")
            printed[name.strip()] = [
                [float(x) for x in c.rstrip("%").split("±")]
                for c in cells.split()]
        assert list(printed) == ["rzf over coloring", "csidata over coloring",
                                 "csidata over rzf"]
        for name, (a, b) in (("rzf over coloring", (0, 1)),
                             ("csidata over coloring", (2, 1)),
                             ("csidata over rzf", (2, 0))):
            gain, stderr = np.array(printed[name]).T
            np.testing.assert_allclose(gain, 100 * (mean[a] / mean[b] - 1.0),
                                       atol=0.005 + 1e-9)
            _, want = paired_gain(report, report.schemes[a],
                                  report.schemes[b])
            np.testing.assert_allclose(stderr, 100 * want, atol=0.005 + 1e-9)
            assert np.all(stderr > 0)

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

        monkeypatch.setattr(power_alloc, "_TOL", 1e-300)
        monkeypatch.setattr(power_alloc, "_MAX_ITERS", 1)
        assert main(argv) == 0
        total = reports[-1].nonconverged.sum()
        assert total > 0
        assert reports[-1].nonconverged[0].sum() == 0   # coloring has no solver
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"{total} power allocation problems did not converge" in err[0]
        assert f"rzf at 0 dBW ({total})" in err[0]

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("false", False), ("NO", False)])
    def test_flag_spellings_in_config_file(self, tmp_path, value, expected):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"paper_literal_coloring = {value}\n")
        config = _merge_config(build_parser().parse_args(
            ["--config", str(cfg)]))
        assert config.paper_literal_coloring is expected

    @pytest.mark.parametrize("flag", [["--paper-literal-coloring=0"],
                                      ["--paper-literal-coloring", "no"]])
    def test_flag_value_overrides_config_file_true(self, tmp_path, flag):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("paper_literal_coloring = true\n")
        config = _merge_config(build_parser().parse_args(
            ["--config", str(cfg), *flag]))
        assert config.paper_literal_coloring is False

    @pytest.mark.parametrize("key, value, setting", [
        ("trials", "abc", "trials: "),
        ("format", "xml", "output format"),
        ("paper_literal_coloring", "ture", "paper_literal_coloring: ")])
    def test_flag_and_file_values_fail_alike(self, tmp_path, capsys,
                                             monkeypatch, key, value,
                                             setting):
        # a flag's text goes through the converter a file value goes through
        monkeypatch.setattr(cli, "run_sweep", _no_sweep)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{key} = {value}\n")
        errors = []
        for extra in (["--" + key.replace("_", "-"), value],
                      ["--config", str(cfg)]):
            assert main(["--out", str(tmp_path / "x.csv"), *extra]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("configuration error: ")
        assert setting in errors[0] and repr(value) in errors[0]

    def test_no_gain_lines_without_a_scheme_to_compare(self, tmp_path,
                                                       capsys):
        code, _ = self.run_main(tmp_path)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # the summary line, the table header and one power row, no gains
        assert [line.split()[0] for line in lines] == ["wrote", "power_dbw",
                                                       "0.0"]

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
            == {field for _, field, _, _ in cli._CONFIG_TABLE})
