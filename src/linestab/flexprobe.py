"""Flex certification for boundary arcs of direction cones.

A tangent direction on the cone boundary is probed by projecting the three
balls along it: the projected centers form a triangle with the projected
tangent as an interior point, and the Hessian of the direction sextic at the
probe direction splits into a nonpositive quadratic part H2 and a nonnegative
quartic part H4 in the lift heights.  Pairwise disjointness of the balls
forces H2 + H4 > 0, i.e. no flex or singularity on the boundary arc; in
canonical hyperboloid coordinates the disjointness octant misses the flex
hyperboloid, by closed forms that ``linestab.polyid`` checks exactly.

The closed forms are written once for two scalar types and any number of
samples: a configuration built from floats holds float64 arrays, and one
built from exact rationals holds object arrays of ``fractions.Fraction`` or
of the exact suite's ``_Ratio``, an unreduced pair that takes no gcd per
operation (the configuration reduces its normalised weights, once).  A
configuration is a batch of m samples with a leading sample axis, so ``a``,
``b`` and ``c`` have shape (m,) and the weights, lifts and q values (m, 3).
Forms read vertex k of a per-vertex array ``v`` as ``v.T[k]`` and reduce over
``axis=-1``, and a float batch gives each sample the bits it gets alone.  The
exact identity suite (``linestab.polyid``) evaluates these same forms in
rational arithmetic, once over all trials of an identity.  Only construction
chooses the type; forms that need a square root (``radii``,
``rebuilt_pair_gaps``) are float-only, and the exact side works with their
squares.

``certify_flex_free`` probes all boundary samples of a triple as one float
batch, each with the bits it gets alone: per-row dot products go through
stacked ``@`` (``_stacked_dot``) and powers through ``_pow``.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .cone import boundary_directions_for_triple, minimax_weights_batch
from .geom import SceneError, _frames, _unit_rows
from .sextic import Triple, float_safe_triple


class _Ratio:
    """An exact rational n / d (d > 0) that never reduces: no operation takes a gcd.

    It has what the forms and the identity suite use: +, - and * with it on
    either side, / with it on the left, ** by an int k >= 0, unary minus,
    ==, <= and > by cross-multiplication, and bool.  Operands may be int,
    Fraction or _Ratio; any other, float included, gives NotImplemented, so
    a float mixed in raises TypeError.  ``fraction()`` reduces, once, where
    a value leaves the arithmetic.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int = 1):
        self.n, self.d = n, d

    @staticmethod
    def _of(x):
        """An int or Fraction operand as a _Ratio; None for any other type."""
        if isinstance(x, int):
            return _Ratio(x)
        if isinstance(x, Fraction):
            return _Ratio(x.numerator, x.denominator)
        return None

    def __add__(self, other):
        if other.__class__ is int:
            return _Ratio(self.n + other * self.d, self.d)
        if other.__class__ is not _Ratio and (other := _Ratio._of(other)) is None:
            return NotImplemented
        if other.d == self.d:
            return _Ratio(self.n + other.n, self.d)
        return _Ratio(self.n * other.d + other.n * self.d, self.d * other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is int:
            return _Ratio(self.n - other * self.d, self.d)
        if other.__class__ is not _Ratio and (other := _Ratio._of(other)) is None:
            return NotImplemented
        if other.d == self.d:
            return _Ratio(self.n - other.n, self.d)
        return _Ratio(self.n * other.d - other.n * self.d, self.d * other.d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is int:
            return _Ratio(self.n * other, self.d)
        if other.__class__ is not _Ratio and (other := _Ratio._of(other)) is None:
            return NotImplemented
        return _Ratio(self.n * other.n, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not _Ratio and (other := _Ratio._of(other)) is None:
            return NotImplemented
        if other.n > 0:
            return _Ratio(self.n * other.d, self.d * other.n)
        if other.n < 0:
            return _Ratio(-self.n * other.d, -self.d * other.n)
        raise ZeroDivisionError("division by zero")

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return _Ratio(self.n ** k, self.d ** k)

    def __neg__(self):
        return _Ratio(-self.n, self.d)

    def _compare(op):
        def compare(self, other):
            if other.__class__ is not _Ratio and (other := _Ratio._of(other)) is None:
                return NotImplemented
            return op(self.n * other.d, other.n * self.d)
        return compare

    __eq__, __le__, __gt__ = map(_compare, (operator.eq, operator.le, operator.gt))
    del _compare

    def __bool__(self):
        return self.n != 0

    def fraction(self) -> Fraction:
        """The value in lowest terms."""
        return Fraction(self.n, self.d)

    def reduced(self) -> _Ratio:
        """The same value in lowest terms, still a _Ratio."""
        g = math.gcd(self.n, self.d)
        return _Ratio(self.n // g, self.d // g)

    def __repr__(self):
        return f"_Ratio({self.n}, {self.d})"


_EXACT = (Fraction, _Ratio)
_LOWEST_TERMS = np.frompyfunc(lambda v: v.reduced() if isinstance(v, _Ratio) else v, 1, 1)


def _scalar_dtype(*values) -> type:
    """object (exact arithmetic) when any value or object-array entry is exact,
    float otherwise; a numeric array is decided by its dtype, unscanned."""
    for v in values:
        if isinstance(v, np.ndarray):
            if v.dtype == object and any(isinstance(e, _EXACT) for e in v.flat):
                return object
        elif isinstance(v, _EXACT):
            return object
    return float


_LIBM_POW = np.frompyfunc(pow, 2, 1)


def _stacked_dot(x, y):
    """Dot products over the last axis, rounded as ``np.dot`` rounds one row.

    A stacked (1, n) @ (n, 1) product takes the same dot kernel per row;
    ``einsum`` and ``(x * y).sum(-1)`` may round a row differently.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _pow(x, k: int):
    """x ** k for a per-sample value, rounded as for one sample alone.

    A float64 scalar's ``**`` is the C library's pow, while numpy's array
    power may take a SIMD kernel that rounds differently, so a float batch
    calls pow entry by entry; scalars and exact values use ``**``.
    """
    if isinstance(x, np.ndarray) and x.dtype == float:
        return _LIBM_POW(x, k).astype(float)
    return x ** k


# skip reasons of LiftedConfig.from_plane_data, by code, in the order tested
_PLANE_SKIPS = (None, "degenerate triangle edge", "collinear triangle vertices",
                "point is not interior to the triangle")


@dataclass(frozen=True)
class LiftedConfig:
    """Planar triangle + interior point + lift heights, for m samples at once.

    Triangle vertices are (0,0), (a,0), (b,c) in the plane; the interior point
    has barycentric weights p (normalized to sum 1 on construction); lifting
    the vertices by x_k along a third axis produces ball centers whose radii
    are the distances from the interior point to the vertices.  A batch of
    m samples has ``a``, ``b`` and ``c`` of shape (m,) and weights and lifts
    of shape (m, 3).  A form reads vertex k of a per-vertex array ``v`` as
    ``v.T[k]``, its (m,) column.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    weights: np.ndarray
    lifts: np.ndarray

    def __post_init__(self):
        w, x = np.asarray(self.weights), np.asarray(self.lifts)
        dtype = _scalar_dtype(self.a, self.b, self.c, w, x)
        w, x = w.astype(dtype), x.astype(dtype)
        if w.ndim != 2 or w.shape[1] != 3 or x.shape != w.shape:
            raise SceneError("weights and lifts must have length 3 per sample")
        for name in "abc":
            v = np.asarray(getattr(self, name), dtype=dtype)
            if v.shape != w.shape[:-1]:
                raise SceneError("a, b and c need one value per sample")
            object.__setattr__(self, name, v)
        if not np.logical_and(self.a > 0, self.c > 0).all():
            raise SceneError("triangle must be nondegenerate: a > 0 and c > 0")
        if not (w > 0).all():
            raise SceneError("barycentric weights must be positive")
        w = w / w.sum(axis=-1, keepdims=True)
        if dtype is object:  # normalised weights feed every form: reduce them once
            w = _LOWEST_TERMS(w)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "lifts", x)

    @cached_property
    def triangle(self) -> np.ndarray:
        T = np.zeros(np.shape(self.a) + (3, 2), dtype=self.weights.dtype)
        T[..., 1, 0] = self.a
        T[..., 2, 0] = self.b
        T[..., 2, 1] = self.c
        return T

    @property
    def centers(self) -> np.ndarray:
        """Centers of the lifted balls: vertex k raised to height x_k."""
        return np.concatenate((self.triangle, self.lifts[..., None]), axis=-1)

    @cached_property
    def interior_point(self) -> np.ndarray:
        # vertex 0 is the origin: its term is an exact zero, so dropping it
        # changes no bit and saves exact arithmetic; a (1, 2) row times a
        # (2, 2) matrix is the same vector-matrix product with or without
        # a sample axis
        return (self.weights[..., None, 1:] @ self.triangle[..., 1:, :])[..., 0, :]

    @cached_property
    def v_vectors(self) -> np.ndarray:
        """v_k = interior point minus vertex k."""
        return self.interior_point[..., None, :] - self.triangle

    @cached_property
    def squared_radii(self) -> np.ndarray:
        v = self.v_vectors
        return np.einsum("...ij,...ij->...i", v, v)

    @property
    def radii(self) -> np.ndarray:
        return np.sqrt(self.squared_radii)

    @property
    def q_squared(self) -> np.ndarray:
        """q_k^2 = p_k^2 s_k, free of square roots: the squares of the edges
        q_k = p_k r_k of a triangle, since sum p_k v_k = 0."""
        return self.weights ** 2 * self.squared_radii

    @classmethod
    def from_plane_data(cls, vertices2, point2, lifts):
        """Build from arbitrary planar triangles and interior points.

        The input frame is canonicalized: vertex 0 moves to the origin,
        vertex 1 onto the positive first axis, and the triangle is reflected
        if needed so the third vertex has positive second coordinate.  The
        vertices (m, 3, 2), points (m, 2) and lifts (m, 3) of m samples give
        the batch of the usable samples, in order, and each sample's reason
        (None when usable): a degenerate edge, then collinear vertices, then
        a point that is not interior, the first test a sample fails.
        """
        P = np.asarray(vertices2, dtype=float)
        pt = np.asarray(point2, dtype=float)
        x = np.asarray(lifts, dtype=float)
        if P.shape[1:] != (3, 2) or pt.shape != (len(P), 2):
            raise SceneError("need three 2-d vertices and one 2-d point")
        with np.errstate(divide="ignore", invalid="ignore"):
            d1 = P[:, 1] - P[:, 0]
            a = np.sqrt(_stacked_dot(d1, d1))
            e1 = d1 / a[:, None]
            e2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1)
            d2 = P[:, 2] - P[:, 0]
            b = _stacked_dot(d2, e1)
            c = _stacked_dot(d2, e2)
            flip = c < 0
            c = np.where(flip, -c, c)
            e2 = np.where(flip[:, None], -e2, e2)
            rel = pt - P[:, 0]
            px, py = _stacked_dot(rel, e1), _stacked_dot(rel, e2)
            # barycentric weights of (px, py) w.r.t. (0,0), (a,0), (b,c)
            w2 = py / c
            w1 = (px - b * w2) / a
            w = np.stack([1.0 - w1 - w2, w1, w2], axis=1)
        # a NaN fails its test, so it is skipped, never built
        code = np.select([~(a > 0), ~(c > 0), ~np.all(w > 0, axis=1)], [1, 2, 3], 0)
        ok = code == 0
        return (cls(a=a[ok], b=b[ok], c=c[ok], weights=w[ok], lifts=x[ok]),
                [_PLANE_SKIPS[k] for k in code])


def gram_from_barycentrics(cfg: LiftedConfig) -> np.ndarray:
    """Pairwise inner products <v_i, v_j> from weights and edge lengths q.

    Off-diagonal entries are (q_k^2 - q_i^2 - q_j^2) / (2 p_i p_j); diagonal
    entries are the squared radii.  The result annihilates the weight vector
    and is positive semidefinite of rank <= 2.
    """
    p = cfg.weights.T
    q2 = cfg.q_squared.T
    s = cfg.squared_radii
    G = np.zeros(s.shape + (3,), dtype=s.dtype)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        G[..., k, k] = s.T[k]
        G[..., i, j] = G[..., j, i] = (q2[k] - q2[i] - q2[j]) / (2 * p[i] * p[j])
    return G


def _q_from_squares(q2):
    """Q = sum(2 q_i^2 q_j^2 - q_k^4), from the squares q_k^2."""
    q = q2.T
    return 2 * (q[0] * q[1] + q[0] * q[2] + q[1] * q[2]) - np.sum(q2 ** 2, axis=-1)


@dataclass(frozen=True)
class QInvariant:
    Q: float
    Delta: float
    degenerate: bool


def q_invariant(cfg: LiftedConfig) -> QInvariant:
    """The symmetric invariant Q = sum(2 q_i^2 q_j^2 - q_k^4) and Delta.

    Delta = Q / (4 prod p_k^2) equals a^2 c^2, four times the squared triangle
    area; Q factors Heron-style, so it is positive exactly when the q_k obey
    the strict triangle inequality.
    """
    Q = _q_from_squares(cfg.q_squared)
    Delta = Q / (4 * _pow(np.prod(cfg.weights, axis=-1), 2))
    return QInvariant(Q=Q, Delta=Delta, degenerate=Q <= 0)


@dataclass(frozen=True)
class HessianSplit:
    """Decomposition of the sextic Hessian at the probe direction (0,0,1).

    H2 <= 0 and H4 >= 0 always; H_total = prefactor * (H2 + H4) equals the
    Hessian determinant of the lifted triple's sextic at (0,0,1).
    """

    H2: float
    H4: float
    prefactor: float

    @property
    def H_total(self) -> float:
        return self.prefactor * (self.H2 + self.H4)

    @property
    def margin(self) -> float:
        return self.H2 + self.H4

    @property
    def normalized_margin(self) -> np.ndarray:
        """(H2 + H4) / (|H2| + |H4|) per sample, 0 where both parts vanish."""
        scale = abs(self.H2) + abs(self.H4)
        zero = scale == 0
        return np.where(zero, 0.0, (self.H4 + self.H2) / np.where(zero, 1.0, scale))


def lifted_hessian_decomposition(cfg: LiftedConfig) -> HessianSplit:
    """Split the probe Hessian into its quadratic and quartic lift parts."""
    p = cfg.weights.T
    s = cfg.squared_radii.T
    x = cfg.lifts.T
    a2c2 = _pow(cfg.a, 2) * _pow(cfg.c, 2)
    h2 = h4 = 0
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        h2 += p[i] * p[j] * _pow(x[i] - x[j], 2)
        h4 += _pow(p[k], 3) * s[k] * _pow(x[i] - x[k], 2) * _pow(x[j] - x[k], 2)
    H2 = -a2c2 * np.prod(cfg.weights, axis=-1) * h2
    prefactor = (2 ** 12) * (5 ** 2) * _pow(cfg.a, 6) * _pow(cfg.c, 6)
    return HessianSplit(H2=H2, H4=h4, prefactor=prefactor)


# ---------------------------------------------------------------------------
# Canonical coordinates: the separation of the disjointness octant from the
# two-sheeted hyperboloid carrying flexes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalCoords:
    """Canonical q-parameters of a configuration, or of m at once: q has
    shape (3,) or (m, 3), and forms read q_k as ``q.T[k]``.

    Houses the linear coefficients a_k = Q / (4 q_i^2 q_j^2), the center
    offsets beta_k = (a_i + a_j - a_k)/2, the hyperboloid constant
    Q^3 / (4^3 prod q_k^4), the disjointness octant's vertex and the closed
    forms of *H there and of the center plane's threshold.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q)
        q = q.astype(_scalar_dtype(q))
        if q.shape[-1:] != (3,) or q.ndim > 2:
            raise SceneError("need three q values per sample")
        if not np.all(q > 0):
            raise SceneError("q values must be positive")
        object.__setattr__(self, "q", q)

    @cached_property
    def Q(self) -> float:
        return _q_from_squares(self.q ** 2)

    @cached_property
    def linear_coeffs(self) -> np.ndarray:
        q2 = (self.q ** 2).T
        return np.stack([self.Q / (4 * q2[(k + 1) % 3] * q2[(k + 2) % 3]) for k in range(3)], -1)

    @cached_property
    def beta(self) -> np.ndarray:
        a = self.linear_coeffs.T
        return np.stack([(a[(k + 1) % 3] + a[(k + 2) % 3] - a[k]) / 2 for k in range(3)], -1)

    @cached_property
    def hyperboloid_constant(self) -> float:
        return _pow(self.Q, 3) / (64 * np.prod(self.q ** 4, axis=-1))

    def octant_vertex(self) -> np.ndarray:
        """Vertex of the disjointness octant: V_k = 1 - ((q_i - q_j)/q_k)^2."""
        q = self.q.T
        return np.stack(
            [1 - _pow((q[(k + 1) % 3] - q[(k + 2) % 3]) / q[k], 2) for k in range(3)], -1
        )

    @cached_property
    def vertex_value(self) -> float:
        """*H at the octant vertex, factored: 3 prod(q_i + q_j - q_k)^2 / (4 prod q_k^2)."""
        q = self.q.T
        factors = [_pow(q[(k + 1) % 3] + q[(k + 2) % 3] - q[k], 2) for k in range(3)]
        return 3 * np.prod(factors, axis=0) / (4 * np.prod(self.q ** 2, axis=-1))

    @cached_property
    def plane_threshold(self) -> float:
        """sum beta_k = Q sum q_k^2 / (8 prod q_k^2); the octant side of the
        center plane is where sum w_k exceeds it."""
        q2 = self.q ** 2
        return self.Q * np.sum(q2, axis=-1) / (8 * np.prod(q2, axis=-1))


def star_h_canonical(coords: CanonicalCoords, w):
    """*H(w) = sum w_i w_j - sum a_k w_k; with t = w - beta it equals
    sum t_i t_j - Q^3 / (4^3 prod q_k^4)."""
    w = np.asarray(w)
    linear = (coords.linear_coeffs[..., None, :] @ w[..., :, None])[..., 0, 0]
    w = w.T
    return w[0] * w[1] + w[0] * w[2] + w[1] * w[2] - linear


def rebuilt_pair_gaps(cfg: LiftedConfig) -> np.ndarray:
    """Pairwise gaps |c_i - c_j| - (r_i + r_j) of the rebuilt ball triples.

    Equivalent to the z-threshold inequalities but evaluated directly from
    ball coordinates, which stays well conditioned at edge configurations.
    Component k is the gap of the pair (i, j) opposite to k, per sample:
    shape (m, 3).
    """
    tri = cfg.triangle
    x = cfg.lifts.T
    r = cfg.radii.T
    out = []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        e = tri[..., i, :] - tri[..., j, :]
        d2 = _stacked_dot(e, e) + _pow(x[i] - x[j], 2)
        out.append(np.sqrt(d2) - (r[i] + r[j]))
    return np.stack(out, axis=-1)


# ---------------------------------------------------------------------------
# End-to-end flex-freeness certification for a triple of balls.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlexFreeReport:
    """``samples`` holds one report row per located boundary direction."""

    samples: tuple[dict, ...]
    min_margin: Optional[float]
    min_normalized_margin: Optional[float]
    probed: int
    skipped: int
    passed: bool
    requested: int  # boundary points; one sample per point located
    reason: Optional[str] = None  # why some margins are null

    def to_json_dict(self) -> dict:
        out = {
            "requested": self.requested,
            "located": len(self.samples),
            "probed": self.probed,
            "skipped": self.skipped,
            "min_margin": self.min_margin,
            "min_normalized_margin": self.min_normalized_margin,
            "pass": self.passed,
            "samples": list(self.samples),
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def lifted_config_for_direction(triple: Triple,
                                U: np.ndarray) -> tuple[LiftedConfig, list[Optional[str]]]:
    """Projected configurations of boundary direction rows, as one batch.

    Per row u at unit length, the centres' coordinates in the frame of u^perp
    (geom._frames) give the triangle, their heights u . c the lifts and the
    minimax point of the projected disks the interior point.  Returns the
    batch of the usable rows, in order, and each row's skip reason from
    ``LiftedConfig.from_plane_data`` (None for a usable row).
    """
    U = _unit_rows(U)
    weights = minimax_weights_batch(triple.centers, triple.scene.radii, U)
    plane = np.einsum("mkd,nd->mnk", _frames(U), triple.centers)
    point = np.einsum("mn,mnk->mk", weights, plane)
    return LiftedConfig.from_plane_data(plane, point, np.einsum("md,nd->mn", U, triple.centers))


def _unscaled(value: Optional[float], shift: int) -> Optional[float]:
    """A margin of the scene scaled by 2**shift, at the scene's own scale
    (margins scale as length^6), or None when no float holds it exactly."""
    if value is None or not shift:
        return value
    try:
        out = math.ldexp(value, -6 * shift)
    except OverflowError:
        return None
    return out if math.ldexp(out, 6 * shift) == value else None


def certify_flex_free(triple: Triple, boundary_samples: int = 200) -> FlexFreeReport:
    """Certify that sampled cone boundary directions admit no flex.

    ``boundary_samples`` boundary directions, shared among the direction
    cones of the triple, are the exits of geodesic rays from each cone's
    deepest lattice direction, found as roots of the sextic, pair-cone conic
    and tie-band curves along each ray (none when the lattice has no
    feasible direction); at each one the projected configuration is built
    and the probe Hessian split is evaluated, all samples in one batch.
    Directions whose projection point is not interior to the triangle of
    projected centers (bitangent arcs) are skipped with a tag.  A rebuilt
    pair gap counts as disjoint down to -1e-6 times the scene's diameter.

    The triple is probed at sextic.float_safe_triple's scale, where the
    sextic and the margins (sixth powers of length) fit the float range;
    each margin is scaled back, or null with the report's ``reason`` where
    no float holds it.
    """
    triple, shift = float_safe_triple(triple)
    dirs = boundary_directions_for_triple(triple, boundary_samples)
    cfg, reasons = lifted_config_for_direction(triple, dirs)
    split = lifted_hessian_decomposition(cfg)
    margins = split.margin.tolist()
    nmargins = split.normalized_margin.tolist()
    disjoint = np.all(rebuilt_pair_gaps(cfg) >= -1e-6 * triple.scene.diameter, axis=-1)
    reported = [_unscaled(m, shift) for m in margins]
    probed = iter(zip(reported, nmargins, disjoint.tolist()))
    samples = []
    for u, skip in zip(dirs.tolist(), reasons):
        m, nm, ok = (None, None, None) if skip is not None else next(probed)
        samples.append({"direction": u, "margin": m, "normalized_margin": nm,
                        "skipped": skip, "disjointness_ok": ok})
    min_margin = min(margins) if margins else None
    lost = reported.count(None)
    return FlexFreeReport(
        samples=tuple(samples),
        min_margin=_unscaled(min_margin, shift),
        min_normalized_margin=min(nmargins) if nmargins else None,
        probed=len(margins),
        skipped=len(samples) - len(margins),
        passed=bool(margins and min_margin > 0.0 and disjoint.all()),
        requested=boundary_samples,
        reason=(f"{lost} margin(s) outside the float range at the scene's scale are null; "
                f"margins scale as length^6 and were taken at the scene scaled by 2^{shift}"
                if lost else None),
    )
