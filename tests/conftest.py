import numpy as np
import pytest

from satcoop.channel import ChannelRealization, LinkBudget, synthesize_channels
from satcoop.geometry import (Topology, build_topology, drop_users,
                              footprint_matched_diameter)
from satcoop.schemes import _slnr_columns


def make_channels(gains, k_per_cluster, noise_power=1.0, bandwidth=1.0):
    """Hand-built realization for synthetic scheme tests."""
    gains = np.asarray(gains, dtype=float)
    n_users = gains.shape[1]
    return ChannelRealization(
        gains=gains,
        rain_fade_linear=np.ones(n_users),
        k_per_cluster=k_per_cluster,
        noise_psd_w_hz=noise_power / bandwidth,
        bandwidth_hz=bandwidth,
    )


def gateway_columns(channels, gw, targets, basis, p_total):
    """(K, S) _slnr_columns of gateway gw at budget p_total: a stack of one
    gateway over a budget axis of length 1."""
    return _slnr_columns(channels, np.array([gw]), np.asarray(targets)[None],
                         np.asarray(basis)[None], np.array([p_total]))[0, 0]


def make_topology_stub(beams_per_cluster, neighbours):
    """Topology with placeholder geometry for runner tests on synthetic
    worlds; neighbours is the 0-based table of Topology.neighbours."""
    n_beams = len(neighbours) * beams_per_cluster
    return Topology(
        beam_centers=np.zeros((n_beams, 2)),
        neighbours=neighbours,
        colour_of_beam=np.zeros(n_beams, dtype=int),
        satellite_position=np.array([0.0, 0.0, 35786.0]),
        pitch_km=1.0,
        beams_per_cluster=beams_per_cluster,
    )


@pytest.fixture
def fixed_rain(monkeypatch):
    """Pin synthesize_channels' rain draw to fade xi (linear) for every
    user: clear sky (xi = 1) on use, fixed_rain(xi) to change it."""
    def pin(xi=1.0):
        monkeypatch.setattr(
            "satcoop.channel.sample_rain_fade",
            lambda rng_seed, mu, sigma, n: np.full(n, xi))
    pin()
    return pin


@pytest.fixture(scope="session")
def canonical_topology():
    return build_topology(footprint_matched_diameter(), 7, 19)


@pytest.fixture(scope="session")
def canonical_realization(canonical_topology):
    drop = drop_users(canonical_topology, 20240)
    return synthesize_channels(canonical_topology, drop, LinkBudget(), 20241)
