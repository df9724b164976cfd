"""Hexagonal beam layout, gateway clusters, and per-trial user drops.

The canonical scenario tiles 19 clusters of 7 beams each (a centre beam plus
its hexagonal ring) over a coverage disk about 5904 km across, with the
satellite at nadir above the disk centre at GEO altitude.  That default
diameter, footprint_matched_diameter(), inscribes each hex cell in its
beam's 500 km -3 dB footprint.  Beam centres live on a single
triangular lattice; clusters occupy a sqrt(7)-spaced super-lattice so the 133
cells tile the disk without gaps or overlaps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

GEO_ALTITUDE_KM = 35786.0
# half-power (-3 dB) angle of every beam, off its boresight
THETA_3DB_RAD = math.radians(0.4)

# Flower offsets in integer lattice coordinates: centre beam first, then the
# six ring beams counter-clockwise.
_FLOWER = ((0, 0), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

# The paper's hyper-cluster plan for 19 clusters, in 1-based gateway labels.
_HYPER_PLAN_19 = ((3, 9, 10), (4, 11, 12), (2, 8, 19), (5, 13, 14),
                  (7, 17, 18), (6, 15, 16), (1,))


def _hyper_plan(clusters: int) -> tuple[tuple[int, ...], ...]:
    """Hyper-clusters as sorted tuples of 1-based gateway labels: the
    paper's plan for 19 clusters, one singleton per cluster otherwise."""
    if clusters == 19:
        return _HYPER_PLAN_19
    return tuple((label,) for label in range(1, clusters + 1))


def _cluster_centres(clusters: int) -> np.ndarray:
    """(clusters, 2) integer lattice positions of cluster centres, in label
    order (row c is gateway label c + 1).

    Row 0 is the central cluster, rows 1..6 the inner ring and 7..18 the
    outer ring, numbered so that each inner-ring cluster is mutually
    adjacent to its two outer-ring partners in the hyper-cluster plan.
    The 1- and 7-cluster layouts are the first rows of the 19-cluster one.
    """
    # the inner ring: (2, 1) turned 60 degrees at a time, (m, n) -> (-n, m + n)
    ring = np.array([(2, 1), (-1, 3), (-3, 2), (-2, -1), (1, -3), (3, -2)])
    after = np.roll(ring, -1, axis=0)
    # outer ring: the edge between inner clusters j and j + 1, then the
    # corner beyond cluster j + 1
    outer = np.stack([ring + after, 2 * after], axis=1).reshape(-1, 2)
    return np.concatenate([np.zeros((1, 2), int), ring, outer])[:clusters]


def _lattice_to_xy(coords: np.ndarray, pitch: float) -> np.ndarray:
    """Map integer lattice coordinates (m, n) to plane positions in km."""
    m = coords[:, 0]
    n = coords[:, 1]
    return pitch * np.column_stack([m + 0.5 * n, n * (math.sqrt(3.0) / 2.0)])


def _beam_lattice(clusters: int) -> tuple[np.ndarray, float]:
    """Integer lattice coordinates of every beam, grouped by cluster.

    Returns the (B, 2) coordinates, beam b in cluster b // 7, and the
    layout extent at unit pitch: the farthest beam centre plus the cell
    circumradius 1/sqrt(3).  Only the centred-hexagonal cluster counts 1,
    7 and 19 have a layout (ValueError otherwise).
    """
    if clusters not in (1, 7, 19):
        raise ValueError(f"no hexagonal arrangement for {clusters} clusters "
                         "(supported: 1, 7, 19)")
    coords = (_cluster_centres(clusters)[:, None] + _FLOWER).reshape(-1, 2)
    unit_xy = _lattice_to_xy(coords, 1.0)
    extent = np.linalg.norm(unit_xy, axis=1).max() + 1.0 / math.sqrt(3.0)
    return coords, extent


@dataclass(frozen=True)
class Topology:
    """Immutable beam/cluster layout shared by all trials.

    beam_centers      -- (B, 2) positions in km, beams grouped by cluster
                         (beam b belongs to cluster b // beams_per_cluster,
                         local index 0 is the flower centre)
    neighbours        -- per cluster, the sorted 0-based indices of the
                         other clusters in its hyper-cluster
    colour_of_beam    -- (B,) frequency colour in 0..3
    satellite_position-- (3,) km, nadir above the coverage centre
    pitch_km          -- distance between adjacent beam centres
    beams_per_cluster -- beams (and users) per cluster, 7
    """

    beam_centers: np.ndarray
    neighbours: tuple[tuple[int, ...], ...]
    colour_of_beam: np.ndarray
    satellite_position: np.ndarray
    pitch_km: float
    beams_per_cluster: int

    @property
    def n_beams(self) -> int:
        return self.beam_centers.shape[0]

    @property
    def n_clusters(self) -> int:
        return len(self.neighbours)

    @functools.cached_property
    def co_colour_mask(self) -> np.ndarray:
        """(B, B) read-only floats: 1.0 where two different beams share a
        colour, else 0.0.  Built on first use, once per layout."""
        colour = self.colour_of_beam
        mask = (colour[:, None] == colour[None, :]).astype(float)
        np.fill_diagonal(mask, 0.0)
        mask.flags.writeable = False
        return mask

    def to_json(self) -> str:
        """Serialize the layout for external plotting tools.

        Beam b is exported in cluster b // beams_per_cluster, and the plan
        is the 1-based one build_topology uses for this cluster count.
        """
        payload = {
            "pitch_km": self.pitch_km,
            "satellite_position_km": self.satellite_position.tolist(),
            "beam_centers_km": self.beam_centers.tolist(),
            "cluster_of_beam": (np.arange(self.n_beams)
                                // self.beams_per_cluster).tolist(),
            "colour_of_beam": self.colour_of_beam.tolist(),
            "hyper_clusters": _hyper_plan(self.n_clusters),
        }
        import json
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class UserDrop:
    """One scheduled user per beam for a single Monte-Carlo trial.

    chord[b, u] is the distance between the unit vectors from the satellite
    toward beam b's centre and toward user u; slant_range is in km.  The
    chord is what channel synthesis reads: the sine of the off-axis angle
    follows from it without the angle itself.
    """

    positions: np.ndarray
    chord: np.ndarray
    slant_range: np.ndarray


def footprint_matched_diameter(clusters: int = 19) -> float:
    """Coverage diameter that inscribes each hex cell in its beam's -3 dB cone.

    The pitch that puts a cell's circumradius on the -3 dB contour is
    sqrt(3) * tan(THETA_3DB_RAD) * GEO_ALTITUDE_KM; scaling by the lattice
    extent gives the full-layout diameter (about 5905 km for the 19-cluster
    canonical case, whose single-beam footprint diameter is then 500 km).
    clusters is 1, 7 or 19, as for build_topology (ValueError otherwise).
    """
    pitch = math.sqrt(3.0) * math.tan(THETA_3DB_RAD) * GEO_ALTITUDE_KM
    _, extent = _beam_lattice(clusters)
    return 2.0 * extent * pitch


def build_topology(coverage_diameter_km: float, beams_per_cluster: int = 7,
                   clusters: int = 19) -> Topology:
    """Construct the hexagonal layout, colour map and hyper-cluster plan.

    The beam pitch is chosen so the whole layout (beam centres plus cell
    circumradius) fits inside the coverage disk.  Supported cluster counts
    are the centred-hexagonal arrangements 1, 7 and 19; the 19-cluster case
    carries the canonical 7-set hyper-cluster plan, stored as the
    neighbour table.
    """
    # written so that nan fails the test too
    if not (math.isfinite(coverage_diameter_km) and coverage_diameter_km > 0):
        raise ValueError("coverage diameter must be finite and positive, got "
                         f"{coverage_diameter_km}")
    if beams_per_cluster != 7:
        raise ValueError("clusters are 7-beam hexagonal flowers; got "
                         f"beams_per_cluster={beams_per_cluster}")

    coords, extent = _beam_lattice(clusters)
    pitch = (coverage_diameter_km / 2.0) / extent

    colour = (coords[:, 0] % 2) + 2 * (coords[:, 1] % 2)

    neighbours = [()] * clusters
    for group in _hyper_plan(clusters):
        for label in group:
            neighbours[label - 1] = tuple(g - 1 for g in group if g != label)

    return Topology(
        beam_centers=_lattice_to_xy(coords, pitch),
        neighbours=tuple(neighbours),
        colour_of_beam=colour.astype(int),
        satellite_position=np.array([0.0, 0.0, GEO_ALTITUDE_KM]),
        pitch_km=pitch,
        beams_per_cluster=beams_per_cluster,
    )


# outward unit normals of a cell's six sides, one per 60 degrees
_HEX_NORMALS = np.column_stack([np.cos(np.arange(6) * (math.pi / 3.0)),
                                np.sin(np.arange(6) * (math.pi / 3.0))])
_HEX_NORMALS.flags.writeable = False


def in_hex_cell(offsets: np.ndarray, pitch: float, tol: float = 1e-9) -> np.ndarray:
    """True where each (N, 2) offset lies inside the hexagonal cell.

    Cells are the Voronoi regions of the triangular lattice: inradius
    pitch / 2, circumradius pitch / sqrt(3), flat sides facing neighbours.
    """
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    proj = offsets @ _HEX_NORMALS.T
    return proj.max(axis=1) <= pitch / 2.0 + tol


def _sample_in_hex(rng: np.random.Generator, pitch: float, n: int) -> np.ndarray:
    """Uniform samples in the hex cell via rejection from the bounding square."""
    rc = pitch / math.sqrt(3.0)
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        cand = rng.uniform(-rc, rc, size=(2 * (n - filled) + 8, 2))
        keep = cand[in_hex_cell(cand, pitch, tol=0.0)]
        take = min(len(keep), n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def user_geometry(topology: Topology, positions: np.ndarray) -> UserDrop:
    """Slant ranges and the full feed-to-user chord matrix.

    The chord |u1 - u2| between unit direction vectors is exact at zero
    separation and keeps precision for the sub-degree angles a GEO geometry
    produces; the off-axis angle 2*asin(chord / 2) is UserDrop's property.
    The squared chord is summed plane by plane, x then y then z, the order
    a norm over a length-3 axis adds them in.  Each (beam, user) plane is
    an outer difference of two contiguous coordinate rows.
    """
    positions = np.asarray(positions, dtype=float)
    sat = topology.satellite_position
    n_beams = topology.n_beams

    beams3 = np.column_stack([topology.beam_centers, np.zeros(n_beams)]) - sat
    users3 = np.column_stack([positions, np.zeros(len(positions))]) - sat
    slant = np.linalg.norm(users3, axis=1)

    # (3, B) and (3, U) unit vectors, one contiguous row per coordinate
    beam_rows = np.ascontiguousarray(
        (beams3 / np.linalg.norm(beams3, axis=1, keepdims=True)).T)
    user_rows = np.ascontiguousarray((users3 / slant[:, None]).T)
    chord = np.subtract.outer(beam_rows[0], user_rows[0])
    chord *= chord
    plane = np.subtract.outer(beam_rows[1], user_rows[1])
    plane *= plane
    chord += plane
    np.subtract.outer(beam_rows[2], user_rows[2], out=plane)
    plane *= plane
    chord += plane
    np.sqrt(chord, out=chord)

    return UserDrop(positions=positions, chord=chord, slant_range=slant)


def drop_users(topology: Topology, rng_seed) -> UserDrop:
    """Place one user uniformly at random inside each beam's hex cell."""
    offsets = _sample_in_hex(np.random.default_rng(rng_seed),
                             topology.pitch_km, topology.n_beams)
    return user_geometry(topology, topology.beam_centers + offsets)
