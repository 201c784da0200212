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

# Dense direction samples of aligned_separation before grid refinement.
_N_THETA = 512


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

def aligned_separation(a, e, eJ):
    """Exact minimum distance between the aligned ellipses (support form).

    For nested convex curves the boundary distance equals the minimum over
    directions of the support-function difference.  Both aligned confocal
    ellipses have centers on the x axis (asteroid at (-a e, 0) with
    semi-axes a, a sqrt(1-e^2); planet at (-eJ, 0) with semi-axes
    1, sqrt(1-eJ^2)), so the difference is a smooth 1-D function of the
    direction angle, minimized by dense sampling and then six grid
    refinements, each 16x finer around the best sample: the last step is
    below 1e-9 rad, so the minimum value is exact to rounding.
    ``e`` is a float or an array; all eccentricities are refined side by
    side, and the result has the shape of ``e``.
    Returns 0 when the curves cross (including the whole a = 1 line).
    The test suite checks it against a dense sampling of both anomalies.

    On the non-crossing interval the separation is quasi-concave in e:
    between two eccentricities it never drops below the smaller of their
    two values, which lets the equilibrium scan certify a whole bracket
    from its ends.  For a > 1 this is exact: each direction's gap
    h_ast - h_pl, with h_ast = a (-e cos(theta) + sqrt(1 - e^2 sin^2(theta))),
    is concave in e, and a minimum over directions of concave functions is
    concave.  For a < 1 each direction's gap is convex in e and no such
    argument exists; the test suite checks the property there on dense
    e samples of random cells.
    """
    es = np.asarray(e, dtype=float)
    ev = es.reshape(-1, 1)
    if a == 1.0:
        return 0.0 if es.ndim == 0 else np.zeros(es.shape)

    def support_gap(theta):
        c = np.cos(theta)
        s = np.sin(theta)
        h_ast = -a * ev * c + a * np.sqrt(c * c + (1.0 - ev * ev) * s * s)
        h_pl = -eJ * c + np.sqrt(c * c + (1.0 - eJ * eJ) * s * s)
        return h_pl - h_ast if a < 1.0 else h_ast - h_pl

    # Both support functions depend on theta through cos(theta) and
    # sin^2(theta), so [0, pi] covers all directions, and samples just
    # outside it mirror samples inside.
    theta = np.linspace(0.0, math.pi, _N_THETA)
    gaps = support_gap(theta)
    rows = np.arange(ev.shape[0])
    best = theta[np.argmin(gaps, axis=1)][:, None]
    step = theta[1] - theta[0]
    offsets = np.linspace(-1.0, 1.0, 33)
    for _ in range(6):
        cand = best + step * offsets
        gaps = support_gap(cand)
        k = np.argmin(gaps, axis=1)
        best = cand[rows, k][:, None]
        sep = gaps[rows, k]
        step /= 16.0
    sep = np.maximum(0.0, sep)
    return float(sep[0]) if es.ndim == 0 else sep.reshape(es.shape)


def aligned_noncrossing_interval(a, eJ):
    """Eccentricity interval (e_lo, e_hi) of non-crossing aligned orbits.

    Two confocal ellipses with coinciding periapsis directions intersect
    exactly when their periapsis-distance and apoapsis-distance ratios
    straddle 1, so the non-crossing condition reduces to

        inner (a < 1):  a (1 - e) < 1 - eJ  and  a (1 + e) < 1 + eJ
        outer (a > 1):  a (1 - e) > 1 - eJ  and  a (1 + e) > 1 + eJ

    Returns None when no non-crossing eccentricity exists (always the case
    at a = 1).
    """
    if a < 1.0:
        e_lo = max(0.0, 1.0 - (1.0 - eJ) / a)
        e_hi = min(1.0, (1.0 + eJ) / a - 1.0)
    elif a > 1.0:
        e_lo = max(0.0, (1.0 + eJ) / a - 1.0)
        e_hi = min(1.0, 1.0 - (1.0 - eJ) / a)
    else:
        return None
    if e_lo >= e_hi:
        return None
    return e_lo, e_hi
