#!/usr/bin/env python3
"""Rebuild src/satcoop/taper_table.npy, the beam pattern's taper table.

    python scripts/build_taper_table.py
    python scripts/build_taper_table.py --out /tmp/taper_table.npy

The taper T(u) = J1(u)/(2u) + 36*J3(u)/u^3 is interpolated on each
interval [i*h, (i+1)*h) of [0, U] at the D+1 Chebyshev points of that
interval, and the interpolant is written as a polynomial in the local
variable x = u/h - i in [0, 1).  The step h, the degree D and the bound U
are satcoop.channel's _TAPER_STEP, _TAPER_DEGREE and _U_TABLE.  Below
u = 2 the samples come from the taper's power series, which is exact to
rounding there; from u = 2 on, from scipy's j1 and jv.  The fit runs in
long double (80-bit on x86-64), so the float64 coefficients are off by
rounding alone.  Coefficient 0 of interval 0 is T(0) = 1.0 exactly.
This script needs scipy; the simulator does not.
"""

import argparse
import math
import sys

import numpy as np
from numpy.polynomial import polynomial
from scipy.special import j1, jv

from satcoop.channel import (_TAPER_DEGREE, _TAPER_STEP, _TAPER_TABLE_PATH,
                             _U_TABLE)

# below u = 2 the taper is sum_k a_k (u^2/4)^k; 16 terms reach rounding
_U_SERIES = 2.0
_SERIES = np.array([
    (-1) ** k / np.longdouble(math.factorial(k))
    * (1 / (4 * np.longdouble(math.factorial(k + 1)))
       + np.longdouble(4.5) / math.factorial(k + 3))
    for k in range(16)])


def taper_reference(u):
    """T(u) in long double for u > 0 (an array of long doubles)."""
    out = np.empty_like(u)
    near = u < _U_SERIES
    out[near] = polynomial.polyval(u[near] ** 2 / 4, _SERIES)
    far = u[~near].astype(float)
    out[~near] = j1(far) / (2 * far) + 36 * jv(3, far) / far ** 3
    return out


def build_table() -> np.ndarray:
    """The (D+1, n) coefficient table: row k holds every interval's x^k."""
    n = round(_U_TABLE / _TAPER_STEP)
    size = _TAPER_DEGREE + 1
    # Chebyshev points of the first kind on [0, 1]; none is an endpoint, so
    # the taper is never sampled at u = 0
    theta = (np.arccos(np.longdouble(-1)) * (np.arange(size) + 0.5)
             / np.longdouble(size))
    nodes = (1 + np.cos(theta)) / 2
    # values at the nodes -> coefficients of T_j(2x - 1) (discrete cosine
    # transform) -> coefficients of x^k (shift[k, j] is x^k's in T_j(2x - 1))
    to_chebyshev = (np.cos(np.outer(np.arange(size), theta))
                    * (np.longdouble(2) / size))
    to_chebyshev[0] /= 2
    shift = np.zeros((size, size), dtype=np.longdouble)
    shift[0, 0] = 1
    shift[:2, 1] = (-1, 2)
    for j in range(2, size):
        shift[1:, j] = 4 * shift[:-1, j - 1]
        shift[:, j] -= 2 * shift[:, j - 1] + shift[:, j - 2]
    u = (np.arange(n)[:, None] + nodes) * np.longdouble(_TAPER_STEP)
    # in this order: shift's entries reach 2^19, so applied to the raw
    # values they would cancel to far below the Chebyshev coefficients'
    table = (shift @ (to_chebyshev @ taper_reference(u).T)).astype(float)
    table[0, 0] = 1.0
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(_TAPER_TABLE_PATH))
    args = parser.parse_args(argv)
    table = build_table()
    try:
        np.save(args.out, table)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}: {table.shape[1]} intervals of width "
          f"{_TAPER_STEP:g}, degree {table.shape[0] - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
