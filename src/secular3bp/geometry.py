"""Problem parameters and the exact geometry of the aligned orbits.

Units: the planet's semi-major axis is the length unit (a_J = 1) and the
total star+planet mass is the mass unit.  All angles are radians.

The planar canonical chart follows the usual celestial-mechanics
conventions: Delaunay momenta L = sqrt((1-mu) a), G = L sqrt(1-e^2) with
angles (l, g, h) = (mean anomaly, argument of periapsis, node), and the
Poincare pair

    p2 = sqrt(2(L-G)) cos(g+h)  q2 = -sqrt(2(L-G)) sin(g+h)

Note the leading minus sign in q2; sign conventions for the Poincare
angles differ across the literature, and this package implements the form
above consistently everywhere.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OrbitConfig",
    "aligned_separation",
    "aligned_noncrossing_interval",
    "near_coincident",
]

# Eccentricity search bracket; excludes the e = 0 coordinate singularity
# of the canonical chart and extreme eccentricities.
DEFAULT_E_BRACKET = (1e-4, 0.95)
# The equilibrium scan's grid is inset this far from the bracket ends;
# moving the grid changes which sign changes it sees, and with them
# borderline verdicts.
_SCAN_INSET = 1e-4

# A cell is near-coincident, and the kernels map its planet grid, when both
# apsidal gaps at e* (see near_coincident) are below this.  It sits off the
# 0.01 grid of the sweep windows, so no window column is classed by the
# rounding of |a - 1|.
COINCIDENT_GAP = 0.075


@dataclass(frozen=True)
class OrbitConfig:
    """Problem parameters: asteroid semi-major axis, planet eccentricity, mass.

    The planet's semi-major axis is identically 1; it is not a parameter.
    ``mu`` is the planet mass fraction and defaults to the restricted limit 0,
    in which case the averaged coefficients are reported mu-free.
    """

    a: float
    e_J: float
    mu: float = 0.0

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"semi-major axis must be positive, got {self.a}")
        if not (0.0 <= self.e_J < 1.0):
            raise ValueError(f"planet eccentricity must be in [0, 1), got {self.e_J}")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError(f"mass fraction must be in [0, 1), got {self.mu}")

    @property
    def L(self):
        """Delaunay momentum L = sqrt((1-mu) a)."""
        return math.sqrt((1.0 - self.mu) * self.a)

    def G_of(self, e):
        """Delaunay momentum G = L sqrt(1-e^2) at eccentricity e."""
        return self.L * math.sqrt(1.0 - e * e)


# ---------------------------------------------------------------------------
# inter-orbit separation (aligned coplanar geometry)
# ---------------------------------------------------------------------------

def _outer_side(a):
    """+1 if the asteroid's orbit nests outside the planet's, -1 inside, 0 at a = 1.

    Two confocal ellipses with coinciding periapsis directions nest without
    crossing exactly when the asteroid's periapsis and apoapsis distances
    both lie on the same side of the planet's:

        inner (a < 1):  a (1 - e) < 1 - eJ  and  a (1 + e) < 1 + eJ
        outer (a > 1):  a (1 - e) > 1 - eJ  and  a (1 + e) > 1 + eJ

    The side is set by a alone: adding the two inequalities of the other
    side would put 2 a on the wrong side of 2.  At a = 1 every eccentricity
    crosses.
    """
    return 1 if a > 1.0 else -1 if a < 1.0 else 0


def aligned_separation(a, e, eJ):
    """Exact minimum distance between the aligned ellipses (apsidal gap).

    The minimum lies on the apsidal line: it is the smaller of the
    periapsis gap |a (1 - e) - (1 - eJ)| and the apoapsis gap
    |a (1 + e) - (1 + eJ)|.  The test suite pins this against two oracles
    in ``tests/oracles.py``: ``support_separation``, a refined search over
    the support-function difference of the two ellipses (agreement to
    1e-9 relative above rounding), and ``orbit_min_separation``, a dense sampling of both
    anomalies.  ``e`` is a float or an array; the result has the shape of
    ``e``, and each entry has the bytes of a scalar call.
    Returns 0 when the curves cross: the gaps, oriented by
    :func:`_outer_side`, then differ in sign, and on the whole a = 1 line
    both vanish.

    On the non-crossing interval the separation is concave in e, so
    between two eccentricities it never drops below the smaller of their
    two values, which lets the equilibrium scan certify a whole bracket
    from its ends: each oriented gap is linear in e and positive there,
    and the smaller of two linear functions is concave.
    """
    es = np.asarray(e, dtype=float)
    side = _outer_side(a)
    gap = np.minimum(side * (a * (1.0 - es) - (1.0 - eJ)),
                     side * (a * (1.0 + es) - (1.0 + eJ)))
    sep = np.where(gap > 0.0, gap, 0.0)
    return float(sep) if es.ndim == 0 else sep


def aligned_noncrossing_interval(a, eJ):
    """Eccentricity interval (e_lo, e_hi) of non-crossing aligned orbits.

    The periapsis distances coincide at e = 1 - (1 - eJ) / a and the
    apoapsis distances at e = (1 + eJ) / a - 1; the orbits nest strictly
    between the two (see :func:`_outer_side`): the periapsis root is e_lo
    on the inner side and e_hi on the outer one.

    Returns None when no non-crossing eccentricity exists (always the case
    at a = 1).
    """
    side = _outer_side(a)
    if side == 0:
        return None
    e_peri = 1.0 - (1.0 - eJ) / a
    e_apo = (1.0 + eJ) / a - 1.0
    lo, hi = (e_apo, e_peri) if side > 0 else (e_peri, e_apo)
    e_lo = max(0.0, lo)
    e_hi = min(1.0, hi)
    if e_lo >= e_hi:
        return None
    return e_lo, e_hi


def near_coincident(a, eJ):
    """Map parameter lambda of a near-coincident cell (a, eJ), else None.

    At e* = eJ / a, clipped to the equilibrium scan's grid, the two orbits
    share their focal distance and both apsidal gaps equal |a - 1|.  The
    cell is near-coincident when both gaps at e* are below COINCIDENT_GAP;
    then lambda = sqrt(smaller gap), below 0.28.  A cell whose orbits touch
    at e* is not mapped.  Plain float arithmetic: every kernel call asks.
    """
    if not abs(a - 1.0) < COINCIDENT_GAP:  # each gap is at least |a - 1|
        return None
    lo, hi = DEFAULT_E_BRACKET
    e = min(max(eJ / a, lo + _SCAN_INSET), hi - _SCAN_INSET)
    peri = abs(a * (1.0 - e) - (1.0 - eJ))
    apo = abs(a * (1.0 + e) - (1.0 + eJ))
    if max(peri, apo) >= COINCIDENT_GAP or min(peri, apo) == 0.0:
        return None
    return math.sqrt(min(peri, apo))
