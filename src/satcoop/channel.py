"""Feed-to-user channel synthesis: beam pattern, rain fading, path loss.

Every user sees all 133 feeds through a tapered-aperture Bessel beam
pattern, a free-space path loss set by its slant range, and a single
lognormal rain attenuation shared across feeds.

The pattern's taper T(u) = J1(u)/(2u) + 36*J3(u)/u^3 is read from
taper_table.npy, a committed piecewise-polynomial table: one degree-7
polynomial per interval of width 1/8 in u, over u in [0, 297], which is
every off-axis angle below pi/2 at a 3 dB angle of 0.4 deg or more.  On
10k random u it is within 5.6e-16 of a 30-digit mpmath reference.
scripts/build_taper_table.py rebuilds the table from Bessel functions
that numpy lacks; the simulator needs numpy alone.

Synthesis reads the drop's chords, not its angles: sin(theta) is
c * sqrt(1 - c^2/4) for a chord c, and an amplitude is |T(u)| * sqrt(b_max)
times the user's link scale, the square root of the beam gain b_max * T^2
without squaring T first.  beam_gain shares the table's helper, so the
two agree to rounding (within 1e-15 on the taper scale).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import THETA_3DB_RAD, Topology, UserDrop

SPEED_OF_LIGHT_M_S = 299792458.0
BOLTZMANN_J_K = 1.380649e-23

# -3 dB constant of the J1/J3 aperture taper: the pattern crosses half power
# where 2.07123 * sin(theta) = sin(theta_3dB).
_U_3DB = 2.07123

# The taper table: row k, column i holds coefficient k of interval
# [i*h, (i+1)*h)'s polynomial in x = u/h - i, so its shape is (D+1, n).
# _U_TABLE = n*h must reach _U_3DB / sin(0.4 deg) = 296.68, the largest u
# of the canonical 3 dB angle.
_TAPER_STEP = 0.125
_TAPER_DEGREE = 7
_U_TABLE = 297.0
_TAPER_TABLE_PATH = Path(__file__).with_name("taper_table.npy")


@functools.cache
def _taper_table() -> np.ndarray:
    """The committed (D+1, n) coefficient table, read once, read-only."""
    table = np.load(_TAPER_TABLE_PATH)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class LinkBudget:
    """Radio constants of the forward link (defaults: canonical Ka scenario)."""

    frequency_hz: float = 20e9
    max_tx_gain_db: float = 52.0
    rx_gain_db: float = 41.7
    theta_3db_rad: float = THETA_3DB_RAD
    bandwidth_hz: float = 500e6
    noise_temp_k: float = 207.0
    rain_mu: float = -3.4249
    rain_sigma: float = 1.5768

    def __post_init__(self):
        # written so that nan fails the tests too
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.frequency_hz > 0 and self.bandwidth_hz > 0):
            raise ValueError("frequency and bandwidth must be positive")
        if not self.theta_3db_rad > 0:
            raise ValueError("theta_3db must be positive")
        if not self.noise_temp_k > 0:
            raise ValueError("noise temperature must be positive")
        if not self.rain_sigma >= 0:
            raise ValueError("rain sigma must be nonnegative")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.frequency_hz

    @property
    def noise_psd_w_hz(self) -> float:
        return BOLTZMANN_J_K * self.noise_temp_k

    @property
    def noise_power_w(self) -> float:
        return self.noise_psd_w_hz * self.bandwidth_hz

    @property
    def tx_gain_linear(self) -> float:
        return 10.0 ** (self.max_tx_gain_db / 10.0)

    @property
    def rx_gain_linear(self) -> float:
        return 10.0 ** (self.rx_gain_db / 10.0)


@dataclass(frozen=True)
class ChannelRealization:
    """Real amplitude from every feed to every user for one trial.

    gains[f, u] is the channel amplitude from global feed f to user u; the
    7-feed vector a gateway sees toward any user is a column slice.  The
    noise power and bandwidth the realization was synthesized under ride
    along so downstream consumers need no extra context.  The arrays are
    read-only views, so every consumer of one realization sees the same
    channel; the caller's arrays stay writeable.  Gains that are not a
    2-D float64 array of whole clusters raise ValueError.
    """

    gains: np.ndarray
    rain_fade_linear: np.ndarray
    k_per_cluster: int
    noise_psd_w_hz: float
    bandwidth_hz: float

    def __post_init__(self):
        for name in ("gains", "rain_fade_linear"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        g, k = self.gains, self.k_per_cluster
        if not (g.ndim == 2 and g.dtype == np.float64 and k > 0
                and g.shape[0] % k == 0):
            raise ValueError(f"gains of {g.dtype}{list(g.shape)} are not a "
                             f"2-D float64 array of whole {k}-feed clusters")

    @property
    def n_clusters(self) -> int:
        return self.gains.shape[0] // self.k_per_cluster

    @property
    def n_users(self) -> int:
        return self.gains.shape[1]

    @property
    def noise_power_w(self) -> float:
        return self.noise_psd_w_hz * self.bandwidth_hz

    def checksum(self) -> str:
        # hashlib reads the C-ordered buffers in place
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self.gains))
        digest.update(np.ascontiguousarray(self.rain_fade_linear))
        return digest.hexdigest()[:16]


def _taper(sin_theta: np.ndarray, theta_3db: float) -> np.ndarray:
    """The taper T(u) at u = 2.07123*sin(theta)/sin(theta_3db), from the table.

    sin_theta is a nonnegative array the caller owns; it is scaled in place
    to s = u/h, with h = 1/8, which splits into interval i = int(s) and
    x = s - i.  A Horner pass over the table's rows, each gathered at i,
    sums that interval's degree-7 polynomial in x.  T(0) is the table's
    exact 1.0.  A u past the table's 297, which only a theta_3db below
    0.4 deg can reach, raises ValueError.
    """
    # written so that nan fails the tests too
    if not (theta_3db > 0 and math.isfinite(theta_3db)):
        raise ValueError("theta_3db must be finite and positive")
    s = sin_theta
    s *= _U_3DB / (math.sin(theta_3db) * _TAPER_STEP)
    if not s.max(initial=0.0) < _U_TABLE / _TAPER_STEP:
        raise ValueError(f"u = {s.max() * _TAPER_STEP:.6g} is past the taper "
                         f"table's bound {_U_TABLE:g}; theta_3db "
                         f"{theta_3db:.6g} rad is too narrow for angles this "
                         "far off axis")
    i = s.astype(np.intp)
    x = s - i
    table = _taper_table()
    taper = table[-1].take(i)
    for row in table[-2::-1]:
        taper *= x
        taper += row.take(i)
    return taper


def _check_in_range(values: np.ndarray, top: float, message: str) -> None:
    """ValueError unless every value lies in [0, top); a nan fails too."""
    # min and max carry a nan through, so one pass each checks everything
    if not (values.min(initial=math.inf) >= 0
            and values.max(initial=-math.inf) < top):
        raise ValueError(message)


def beam_gain(theta, theta_3db: float, b_max_linear: float):
    """Aperture-taper power gain at off-axis angle theta (radians).

    b_max * (J1(u)/(2u) + 36*J3(u)/u^3)^2 with u = 2.07123*sin(theta)/sin(theta_3db).
    The taper comes from the committed table (see the module docstring),
    evaluated by the same helper channel synthesis uses.  Its value at
    u = 0 is the table's exact 1.0, so the boresight gain is exactly b_max.
    It is within 5.6e-16 of the true taper (measured against mpmath).  A
    theta outside [0, pi/2), a nan among them, or a u past the table's 297,
    which only a theta_3db below 0.4 deg can reach, raises ValueError.
    """
    theta = np.asarray(theta, dtype=float)
    _check_in_range(theta, math.pi / 2, "theta must lie in [0, pi/2)")
    out = b_max_linear * _taper(np.sin(theta.ravel()), theta_3db) ** 2
    return float(out[0]) if theta.ndim == 0 else out.reshape(theta.shape)


def sample_rain_fade(rng_seed, mu: float, sigma: float, n: int):
    """Draw lognormal rain attenuation for n users.

    ln(A_dB) ~ Normal(mu, sigma^2) so the dB attenuation is strictly
    positive and the linear power factor xi = 10^(A_dB/10) is >= 1.
    Returns xi, an array of length n.
    """
    # written so that nan fails the test too
    if not (math.isfinite(mu) and 0 <= sigma < math.inf):
        raise ValueError(f"need a finite mu and a finite sigma >= 0, got "
                         f"mu={mu}, sigma={sigma}")
    rng = np.random.default_rng(rng_seed)
    a_db = np.exp(rng.normal(mu, sigma, size=n))
    return 10.0 ** (a_db / 10.0)


def path_loss_gain(d_km, wavelength_m: float):
    """Free-space power gain (lambda / (4 pi d))^2, dimensionless."""
    d_km = np.asarray(d_km, dtype=float)
    # written so that nan fails the test too
    if not np.all((d_km > 0) & (d_km < math.inf)):
        raise ValueError("distance must be finite and positive")
    gain = (wavelength_m / (4.0 * math.pi * d_km * 1e3)) ** 2
    return float(gain) if gain.ndim == 0 else gain


def synthesize_channels(topology: Topology, drop: UserDrop, budget: LinkBudget,
                        rng_seed) -> ChannelRealization:
    """Build the full feed-to-user amplitude matrix for one trial.

    Entry (f, u) = |T(u_fu)| * sqrt(b_max) * sqrt(G_rx * pathloss_u / xi_u),
    the square root of the beam gain b_max * T^2 without forming it.  The
    sine of the off-axis angle comes from the drop's chord c as
    c * sqrt(1 - c^2/4), with no angle in between; a chord outside
    [0, sqrt(2)), the angles beam_gain rejects, or a nan raises ValueError.
    One rain draw xi per user, shared across all feeds.  A rain phase shared
    across feeds would cancel out of every |w^H h|^2, so none is drawn.
    """
    xi = sample_rain_fade(rng_seed, budget.rain_mu, budget.rain_sigma,
                          n=drop.positions.shape[0])

    chord = drop.chord
    _check_in_range(chord, math.sqrt(2.0), "the chord must lie in [0, sqrt(2)), "
                    "so that off-axis angles lie in [0, pi/2)")
    # sin(2*asin(c/2)) = c * sqrt(1 - c^2/4), in one (B, U) buffer
    sin_theta = chord * chord
    sin_theta *= -0.25
    sin_theta += 1.0
    np.sqrt(sin_theta, out=sin_theta)
    sin_theta *= chord
    gains = _taper(sin_theta, budget.theta_3db_rad)
    np.abs(gains, out=gains)
    pl = path_loss_gain(drop.slant_range, budget.wavelength_m)
    gains *= (math.sqrt(budget.tx_gain_linear)
              * np.sqrt(budget.rx_gain_linear * pl / xi))[None, :]

    return ChannelRealization(
        gains=gains,
        rain_fade_linear=xi,
        k_per_cluster=topology.beams_per_cluster,
        noise_psd_w_hz=budget.noise_psd_w_hz,
        bandwidth_hz=budget.bandwidth_hz,
    )

