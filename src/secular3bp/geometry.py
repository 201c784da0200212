"""Exact two-body geometry and canonical-variable conversions.

Units: the planet's semi-major axis is the length unit (a_J = 1) and the
total star+planet mass is the mass unit.  All angles are radians, stored
reduced to [0, 2*pi).

The canonical sets follow the usual celestial-mechanics conventions:
Delaunay momenta L = sqrt((1-mu) a), G = L sqrt(1-e^2), H = G cos i with
angles (l, g, h) = (mean anomaly, argument of periapsis, node), and the
Poincare pairs

    p1 = L                      q1 = l + g + h
    p2 = sqrt(2(L-G)) cos(g+h)  q2 = -sqrt(2(L-G)) sin(g+h)
    p3 = sqrt(2(G-H)) cos(h)    q3 = -sqrt(2(G-H)) sin(h)

Note the leading minus sign in q2, q3; sign conventions for the Poincare
angles differ across the literature, and this package implements the form
above consistently everywhere.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TWO_PI",
    "OrbitConfig",
    "DelaunayElements",
    "PoincareState",
    "wrap_angle",
    "rotation_matrix",
    "delaunay_from_poincare",
    "aligned_separation",
    "aligned_noncrossing_interval",
]

TWO_PI = 2.0 * math.pi

# Relative slack for validating canonical inequalities that may be violated
# by rounding in round-trip conversions.
_VALIDATION_SLACK = 1e-9


def wrap_angle(x):
    """Reduce an angle (scalar or array) to [0, 2*pi)."""
    return np.mod(x, TWO_PI)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class DelaunayElements:
    """Canonical Delaunay momenta (L, G, H) and conjugate angles (l, g, h)."""

    L: float
    G: float
    H: float
    l: float
    g: float
    h: float

    def __post_init__(self):
        slack = _VALIDATION_SLACK * max(self.L, 1.0)
        if not (0.0 < self.G <= self.L + slack):
            raise ValueError(f"need 0 < G <= L, got G={self.G}, L={self.L}")
        if abs(self.H) > self.G + slack:
            raise ValueError(f"need |H| <= G, got H={self.H}, G={self.G}")
        object.__setattr__(self, "G", min(self.G, self.L))
        object.__setattr__(self, "H", math.copysign(min(abs(self.H), self.G), self.H))
        for name in ("l", "g", "h"):
            object.__setattr__(self, name, float(wrap_angle(getattr(self, name))))


@dataclass(frozen=True)
class PoincareState:
    """Canonical Poincare variables (p1..p3, q1..q3)."""

    p1: float
    p2: float
    p3: float
    q1: float
    q2: float
    q3: float

    def __post_init__(self):
        if not (self.p1 > 0.0):
            raise ValueError(f"p1 = L must be positive, got {self.p1}")
        if self.p2**2 + self.q2**2 > 2.0 * self.p1 * (1.0 + _VALIDATION_SLACK):
            raise ValueError("p2^2 + q2^2 exceeds 2 L: no real eccentricity")


def rotation_matrix(omega, i, Omega):
    """3x2 matrix taking orbital-plane (x', y') to inertial (x, y, z)."""
    co, so = math.cos(omega), math.sin(omega)
    ci, si = math.cos(i), math.sin(i)
    cO, sO = math.cos(Omega), math.sin(Omega)
    return np.array(
        [
            [cO * co - ci * sO * so, -cO * so - ci * sO * co],
            [sO * co + ci * cO * so, -sO * so + ci * cO * co],
            [si * so, si * co],
        ]
    )


def delaunay_from_poincare(p: PoincareState) -> DelaunayElements:
    """Map Poincare variables to Delaunay elements.

    The momenta are always recovered exactly; on the singular sets e = 0 and
    i = 0 the angles g+h resp. h are indeterminate and are returned as 0.
    The map is mu-free.
    """
    L = p.p1
    G = L - 0.5 * (p.p2**2 + p.q2**2)
    H = G - 0.5 * (p.p3**2 + p.q3**2)
    gh = 0.0 if p.p2 == 0.0 and p.q2 == 0.0 else math.atan2(-p.q2, p.p2)
    h = 0.0 if p.p3 == 0.0 and p.q3 == 0.0 else math.atan2(-p.q3, p.p3)
    return DelaunayElements(L=L, G=G, H=H, l=p.q1 - gh, g=gh - h, h=h)


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
