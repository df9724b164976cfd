import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satcoop.channel import LinkBudget
from satcoop.geometry import (GEO_ALTITUDE_KM, build_topology, drop_users,
                              footprint_matched_diameter, in_hex_cell,
                              user_geometry)
from satcoop.harness import SimConfig

PAPER_HYPER_PLAN = [{3, 9, 10}, {4, 11, 12}, {2, 8, 19}, {5, 13, 14},
                    {7, 17, 18}, {6, 15, 16}, {1}]


@pytest.fixture(scope="module")
def topo():
    return build_topology(500.0, 7, 19)


def test_canonical_layout_counts(topo):
    assert topo.n_beams == 133
    assert topo.n_clusters == 19
    counts = np.bincount(topo.cluster_of_beam, minlength=19)
    assert np.all(counts == 7)


def test_hyper_clusters_match_published_plan(topo):
    assert [set(g) for g in topo.hyper_clusters] == PAPER_HYPER_PLAN


def test_hyper_clusters_partition_labels(topo):
    seen = sorted(label for group in topo.hyper_clusters for label in group)
    assert seen == list(range(1, 20))


def test_single_cluster_degenerate_case():
    t = build_topology(500.0, 7, 1)
    assert t.n_beams == 7
    assert t.n_clusters == 1
    assert [set(g) for g in t.hyper_clusters] == [{1}]


def test_no_adjacent_beams_share_colour(topo):
    # independent oracle: exhaustive pairwise distance check over all beams
    centers = topo.beam_centers
    dists = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    adjacent = (dists > 0) & (dists < 1.01 * topo.pitch_km)
    conflicts = adjacent & (topo.colour_of_beam[:, None]
                            == topo.colour_of_beam[None, :])
    assert conflicts.sum() == 0


def test_colour_classes_near_balanced(topo):
    counts = np.bincount(topo.colour_of_beam, minlength=4)
    assert len(counts) == 4
    assert np.all(counts >= 30) and np.all(counts <= 37)


def test_layout_fits_coverage_disk(topo):
    radius = np.linalg.norm(topo.beam_centers, axis=1).max()
    assert radius + topo.pitch_km / math.sqrt(3.0) <= 250.0 * (1 + 1e-12)


def test_neighbours_within_hyper_cluster(topo):
    # cluster label 3 sits in {3, 9, 10}; 0-based index 2 -> neighbours 8, 9
    assert topo.neighbours_of(2) == [8, 9]
    assert topo.neighbours_of(0) == []  # label 1 is a singleton


@pytest.mark.parametrize("diameter,k,c", [
    (0.0, 7, 19), (-5.0, 7, 19), (500.0, 6, 19), (500.0, 7, 5), (500.0, 7, 13),
    (math.nan, 7, 19), (math.inf, 7, 19),
])
def test_invalid_configurations_rejected(diameter, k, c):
    with pytest.raises(ValueError):
        build_topology(diameter, k, c)


def run_export(tmp_path, *args):
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, str(root / "scripts" / "export_topology.py"), *args],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")))


def test_export_script_rejects_nan_diameter(tmp_path):
    # a nan diameter used to pass the positivity test and give "pitch nan km"
    out = tmp_path / "topology.json"
    proc = run_export(tmp_path, "--diameter", "nan", "--out", str(out))
    assert proc.returncode == 1
    assert "finite and positive" in proc.stderr
    assert not out.exists()


def test_export_script_rejects_unsupported_clusters(tmp_path):
    # the default diameter rejects 5 clusters inside the error handling
    proc = run_export(tmp_path, "--clusters", "5")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "1, 7, 19" in proc.stderr
    assert not (tmp_path / "topology.json").exists()


def test_export_script_reports_unwritable_out(tmp_path):
    # an --out in a missing directory used to end in a traceback; like
    # simulate, the script exits 2 on an I/O error
    proc = run_export(tmp_path, "--out", str(tmp_path / "no" / "x.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_drop_is_deterministic(topo):
    a = drop_users(topo, 1234)
    b = drop_users(topo, 1234)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.off_axis_angle, b.off_axis_angle)
    assert np.array_equal(a.slant_range, b.slant_range)
    c = drop_users(topo, 1235)
    assert not np.array_equal(a.positions, c.positions)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_users_stay_inside_their_hex_cell(seed):
    topo = build_topology(500.0, 7, 19)
    drop = drop_users(topo, seed)
    offsets = drop.positions - topo.beam_centers
    assert np.all(np.linalg.norm(offsets, axis=1)
                  <= topo.pitch_km / math.sqrt(3.0) + 1e-9)
    assert np.all(in_hex_cell(offsets, topo.pitch_km))


def test_slant_range_flatness(topo):
    drop = drop_users(topo, 7)
    assert np.all(drop.slant_range >= GEO_ALTITUDE_KM)
    assert np.all(drop.slant_range < GEO_ALTITUDE_KM + 10.0)


def test_nadir_user_slant_range(topo):
    # the central beam sits at the coverage centre, straight below the satellite
    drop = user_geometry(topo, topo.beam_centers)
    central = int(np.argmin(np.linalg.norm(topo.beam_centers, axis=1)))
    assert drop.slant_range[central] == pytest.approx(GEO_ALTITUDE_KM, abs=1e-6)


def test_off_axis_angle_zero_only_at_beam_centre(topo):
    drop = user_geometry(topo, topo.beam_centers)
    diag = np.diagonal(drop.off_axis_angle)
    assert np.all(diag == 0.0)
    off_diag = drop.off_axis_angle[~np.eye(topo.n_beams, dtype=bool)]
    assert np.all(off_diag > 0.0)


def test_off_axis_angle_against_arccos_oracle(topo):
    drop = drop_users(topo, 99)
    sat = topo.satellite_position
    b, u = 17, 42
    vb = np.array([*topo.beam_centers[b], 0.0]) - sat
    vu = np.array([*drop.positions[u], 0.0]) - sat
    cosang = vb @ vu / (np.linalg.norm(vb) * np.linalg.norm(vu))
    expected = math.acos(min(1.0, max(-1.0, cosang)))
    assert drop.off_axis_angle[b, u] == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_off_axis_angle_equals_stacked_norm(topo, seed):
    # reference: the chord as the norm over a (B, U, 3) stack of unit
    # direction differences; the plane-wise sum must match it bit for bit
    drop = drop_users(topo, seed)
    sat = topo.satellite_position
    beams3 = np.column_stack([topo.beam_centers, np.zeros(topo.n_beams)]) - sat
    users3 = np.column_stack([drop.positions, np.zeros(topo.n_beams)]) - sat
    beams3 /= np.linalg.norm(beams3, axis=1, keepdims=True)
    users3 /= np.linalg.norm(users3, axis=1, keepdims=True)
    chord = np.linalg.norm(beams3[:, None, :] - users3[None, :, :], axis=2)
    expected = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    assert np.array_equal(drop.off_axis_angle, expected)


def test_topology_json_schema(topo):
    payload = json.loads(topo.to_json())
    assert len(payload["beam_centers_km"]) == 133
    assert len(payload["cluster_of_beam"]) == 133
    assert len(payload["colour_of_beam"]) == 133
    assert sorted(map(sorted, payload["hyper_clusters"])) \
        == sorted(map(sorted, PAPER_HYPER_PLAN))
    assert payload["satellite_position_km"][2] == GEO_ALTITUDE_KM


def test_footprint_matched_diameter_value():
    # pitch sqrt(3)*tan(theta_3dB)*35786 km over the 19-cluster lattice
    # extent, with the link budget's 0.4 deg beam the sweep's layout uses
    theta_3db = LinkBudget().theta_3db_rad
    assert theta_3db == math.radians(0.4)
    d = footprint_matched_diameter()
    assert SimConfig.coverage_diameter_km == d
    pitch = math.sqrt(3.0) * math.tan(theta_3db) * GEO_ALTITUDE_KM
    extent = math.sqrt(39.0) + 1.0 / math.sqrt(3.0)
    assert d == pytest.approx(2 * extent * pitch, rel=1e-12)
    topo = build_topology(d)
    assert topo.pitch_km == pytest.approx(pitch, rel=1e-9)


@pytest.mark.parametrize("clusters", [0, 5, -3, 100])
def test_footprint_matched_diameter_rejects_unsupported_counts(clusters):
    # only 1, 7 and 19 clusters have a layout, hence a diameter
    with pytest.raises(ValueError, match="1, 7, 19"):
        footprint_matched_diameter(clusters)
