"""Direction sextic of three balls in R^3.

The directions of common tangent lines to three spheres form a degree-6
projective curve: the zero set of the bordered Cayley-Menger determinant of
the circles' common point and the projected centres.  With its border
eliminated that determinant is -det B, B the k x k Cayley-Menger form of the
k projected balls, whose entries are quadratic forms in the direction.
``cayley_menger_forms`` is the one builder of B, over any ring of forms, and
every value of the sextic is -det B: expanded in ``DirectionPoly`` into the
28 coefficients of the ternary sextic, which the Hessian determinant and
curve tracing share; over 2-jets at the pole u = (0, 0, 1) (``PoleJet``) for
the exact identity suite, a batch of trials at once; and in floats at
direction rows, for point values and the roots along rays.  Its t_ij terms
also give the pair-cone conics.  The curves are traced by marching squares
in an affine chart, each crossing bisected on the edge's degree-k Chebyshev
interpolant, and the tangent lines of many sextic directions are recovered
in one batch.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .geom import Scene, SceneError, SolverError, _unit_rows

SIGMA_TOL = 1e-8
RANK_TOL = 1e-10
# chart-coordinate precision of traced vertices: bisection stops below it
TRACE_TOL = 1e-10


# ---------------------------------------------------------------------------
# Small trivariate polynomial toolkit, generic over the coefficient type
# (float for numerics, int or fractions.Fraction for exact arithmetic).
# ---------------------------------------------------------------------------


class DirectionPoly:
    """Polynomial in the direction components (u1, u2, u3).

    Stored sparsely as {(i, j, k): coeff}.  Coefficients may be floats or
    exact rationals; all arithmetic goes through Python operators so both
    work.  Construction keeps homogeneity when the inputs are homogeneous.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict] = None):
        self.coeffs = dict(coeffs) if coeffs else {}

    @classmethod
    def linear(cls, vec) -> "DirectionPoly":
        """The linear form <vec, u>."""
        return cls({e: v for e, v in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), vec) if v != 0})

    @classmethod
    def norm_sq(cls, one=1.0) -> "DirectionPoly":
        """The quadratic form q(u) = <u, u>; `one` fixes the scalar type."""
        return cls({(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): one})

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(e) for e in self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "DirectionPoly") -> "DirectionPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return DirectionPoly(out)

    def __sub__(self, other: "DirectionPoly") -> "DirectionPoly":
        return self + (-other)

    def __neg__(self) -> "DirectionPoly":
        return DirectionPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other) -> "DirectionPoly":
        """The product with a DirectionPoly, or with a scalar (zero gives
        the zero polynomial)."""
        if not isinstance(other, DirectionPoly):
            return DirectionPoly({e: c * other for e, c in self.coeffs.items() if other != 0})
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return DirectionPoly(out)

    def diff(self, axis: int) -> "DirectionPoly":
        out = {}
        for e, c in self.coeffs.items():
            if e[axis] == 0:
                continue
            ne = list(e)
            ne[axis] -= 1
            out[tuple(ne)] = c * e[axis]
        return DirectionPoly(out)

    def eval_grid(self, powers: "GridPowers") -> np.ndarray:
        """Values on a grid of directions, summed term by term in key order."""
        total = np.zeros(powers.shape)
        for e, c in self.coeffs.items():
            total += powers.term(float(c), e)
        return total

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(float(c)) for c in self.coeffs.values())

    def __repr__(self) -> str:
        return f"DirectionPoly({len(self.coeffs)} terms, degree {self.degree})"


class GridPowers:
    """The powers U_a ** i of one grid of directions, each computed once and
    shared by every term of every polynomial evaluated on that grid.

    The components broadcast against each other, so a chart grid passes its
    two axes as a column and a row: each power is taken once per axis value,
    and a term reaches the full grid only in its last multiply.  A component
    may be the scalar 1.0, as the chart axis is: its factors are skipped, as
    are the factors U_a ** 0, which is exact because multiplying by 1.0
    changes no float.
    """

    __slots__ = ("U", "is_one", "shape", "cache")

    def __init__(self, U1, U2, U3):
        self.U = (U1, U2, U3)
        self.is_one = tuple(np.ndim(u) == 0 and u == 1.0 for u in self.U)
        self.shape = np.broadcast(U1, U2, U3).shape
        self.cache: dict = {}

    def term(self, c: float, exps):
        """c * U1**i * U2**j * U3**k for exps = (i, j, k), multiplied left to right."""
        t = c
        for a, i in enumerate(exps):
            if i == 0 or self.is_one[a]:
                continue
            p = self.cache.get((a, i))
            if p is None:
                p = self.cache[(a, i)] = self.U[a] ** i
            t = t * p
        return t


class PoleJet:
    """The 2-jets of m forms at the pole u = (0, 0, 1): their coefficients of
    u1^i u2^j u3^(d-i-j) for (i, j) = (0,0), (1,0), (0,1), (2,0), (1,1), (0,2),
    each an exact scalar or an (m,) object array of them.  Truncation modulo
    (u1, u2)^3 is a ring homomorphism, so the determinant of the entries'
    jets is the jet of the determinant (15 multiplies each), for all m forms
    at once."""

    __slots__ = ("c",)

    def __init__(self, c=(0, 0, 0, 0, 0, 0)):
        self.c = c

    @classmethod
    def norm_sq(cls) -> "PoleJet":
        """The jet of q(u) = <u, u>."""
        return cls((1, 0, 0, 1, 0, 1))

    @classmethod
    def linear(cls, vec) -> "PoleJet":
        """The jet of the linear form <vec, u>."""
        return cls((vec[2], vec[0], vec[1], 0, 0, 0))

    def __bool__(self) -> bool:
        return any(np.any(v) for v in self.c)

    def __add__(self, other: "PoleJet") -> "PoleJet":
        a, b = self.c, other.c
        return PoleJet((a[0] + b[0], a[1] + b[1], a[2] + b[2],
                        a[3] + b[3], a[4] + b[4], a[5] + b[5]))

    def __sub__(self, other: "PoleJet") -> "PoleJet":
        a, b = self.c, other.c
        return PoleJet((a[0] - b[0], a[1] - b[1], a[2] - b[2],
                        a[3] - b[3], a[4] - b[4], a[5] - b[5]))

    def __mul__(self, other) -> "PoleJet":
        """The product with a PoleJet, or with a scalar per form."""
        if not isinstance(other, PoleJet):
            return PoleJet(tuple(v * other for v in self.c))
        a0, a1, a2, a3, a4, a5 = self.c
        b0, b1, b2, b3, b4, b5 = other.c
        return PoleJet((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a2 * b0,
                        a0 * b3 + a1 * b1 + a3 * b0, a0 * b4 + a1 * b2 + a2 * b1 + a4 * b0,
                        a0 * b5 + a2 * b2 + a5 * b0))


def poly_det(matrix: Sequence[Sequence]):
    """Determinant of a square matrix of DirectionPoly, PoleJet or (m,) array entries.

    Cofactor expansion along the first row, each minor computed once: the
    minors on the last k rows, keyed by their columns, are expanded along
    their own first row from those on the last k - 1.  Zero entries are
    skipped: a PoleJet or array entry is zero when it is zero in every form.
    Products are per index, so a float value is exactly 2^(nk) times as
    large when every entry is 2^k times as large, barring over- and underflow.
    """
    n = len(matrix)
    zero = matrix[0][0] * 0
    minors = {(c,): matrix[n - 1][c] for c in range(n)}
    for r in range(n - 2, -1, -1):
        expanded = {}
        for cols in itertools.combinations(range(n), n - r):
            total = zero
            for k, c in enumerate(cols):
                entry = matrix[r][c]
                if not np.any(entry):
                    continue
                term = entry * minors[cols[:k] + cols[k + 1:]]
                total = total + term if k % 2 == 0 else total - term
            expanded[cols] = total
        minors = expanded
    return minors[tuple(range(n))]


# ---------------------------------------------------------------------------
# The triple of balls and its sextic.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Triple:
    """A view of the Scene of three balls in R^3 it is given, with cached
    sextic data.  Construction is the one check of "three balls in R^3";
    the Scene has checked the rest, and admits tangent or intersecting
    balls only for the transition demonstrations (everything algebraic
    still applies to them).  Triples are compared and hashed by identity."""

    scene: Scene

    def __post_init__(self):
        if len(self.scene) != 3 or self.scene.dimension != 3:
            raise SceneError("a triple needs a scene of exactly three balls in R^3, "
                             f"not {len(self.scene)} in R^{self.scene.dimension}")

    @property
    def centers(self) -> np.ndarray:
        return self.scene.centers

    @property
    def squared_radii(self) -> np.ndarray:
        r = self.scene.radii
        return r * r

    @cached_property
    def collinear_centers(self) -> bool:
        """Coincident centres, or unit edges from the first centre whose cross
        product (the sine of their angle) is <= 1e-12, at every scale."""
        edges = self.centers[1:] - self.centers[0]
        if not np.all(np.any(edges, axis=1)):
            return True
        return bool(np.linalg.norm(np.cross(*_unit_rows(edges))) <= 1e-12)

    @cached_property
    def sigma(self) -> DirectionPoly:
        """The 28-coefficient expansion of the direction sextic."""
        c, s = self.centers, self.squared_radii
        return sigma_from_geometry(c[0], c[1], c[2], s[0], s[1], s[2])

    def pair_conic(self, i: int, j: int) -> DirectionPoly:
        """t_ij - (r_i + r_j)^2 q, negative exactly on the directions of the
        transversals to balls i and j: their projected centres are within
        r_i + r_j.  It bounds nothing for an overlapping or tangent pair
        (``Scene.overlapping_pairs``), which every direction admits."""
        r, q = self.scene.radii, DirectionPoly.norm_sq()
        t = _projected_distance(self.centers[i], self.centers[j], q, DirectionPoly.linear)
        return t - q * (r[i] + r[j]) ** 2

    @cached_property
    def sigma_scale(self) -> float:
        return max(self.sigma.max_abs_coeff(), 1e-300)

    @cached_property
    def hessian_entries(self) -> list[list[DirectionPoly]]:
        """Second partials of the sextic: a symmetric 3x3 matrix of quartics."""
        firsts = [self.sigma.diff(a) for a in range(3)]
        return [[firsts[min(a, b)].diff(max(a, b)) for b in range(3)] for a in range(3)]

    @cached_property
    def _float_safe(self) -> tuple[Triple, int]:
        """float_safe_triple's rescaled copy and its shift, made once."""
        scene = self.scene
        shift = 1 - math.frexp(scene.diameter)[1]
        if not shift:
            return self, 0
        return Triple(Scene(np.ldexp(scene.centers, shift), np.ldexp(scene.radii, shift),
                            allow_overlap=scene.allow_overlap)), shift


def float_safe_triple(triple: Triple) -> tuple[Triple, int]:
    """The triple scaled by the power of two 2^shift that brings its diameter
    into [1, 2), and shift.

    There the sextic and its Hessian (of high degree in the lengths) neither
    overflow nor underflow, and every 2^k copy of a scene maps to the same
    triple bit for bit, so whatever is computed there is exactly
    equivariant; a length taken there is the scene's times 2^shift.  The
    rescaled triple is built once per triple, so its sextic is expanded
    once however often it is asked for.
    """
    return triple._float_safe


def _projected_distance(ci, cj, q, lin):
    """t_ij = |c_j - c_i|^2 q - <c_j - c_i, u>^2, q times the squared distance
    of the centres projected along u, with |c_j - c_i|^2 summed in axis order."""
    e = [b - a for a, b in zip(ci, cj)]
    w = lin(e)
    return q * sum(x * x for x in e) - w * w


def cayley_menger_forms(centers, squared_radii, q, lin) -> list[list]:
    """The k x k Cayley-Menger form of k balls seen along u, over a ring of
    forms in u: B_ii = -2 s_i q and B_ij = t_ij - (s_i + s_j) q.

    ``q`` is the form <u, u> and ``lin(e)`` the form <e, u>; a form times a
    scalar must be defined.  B is the bordered Cayley-Menger matrix of the
    circles' common point and the projected centres with its border
    eliminated, whose determinant is -det B (Blumenthal, *Theory and
    Applications of Distance Geometry*, 1953); for k = 3, -det B is the
    direction sextic.
    """
    k = len(centers)
    B = [[None] * k for _ in range(k)]
    for i in range(k):
        B[i][i] = q * (-2 * squared_radii[i])
        for j in range(i + 1, k):
            B[i][j] = B[j][i] = (_projected_distance(centers[i], centers[j], q, lin)
                                 - q * (squared_radii[i] + squared_radii[j]))
    return B


def sigma_from_geometry(c0, c1, c2, s0, s1, s2) -> DirectionPoly:
    """Expand the direction sextic for centers c_k and squared radii s_k.
    The coefficients take the scalar type of the centres: float, or exact
    for int or Fraction."""
    q = DirectionPoly.norm_sq(1 if hasattr(c0[0], "denominator") else 1.0)
    return -poly_det(cayley_menger_forms((c0, c1, c2), (s0, s1, s2), q, DirectionPoly.linear))


def sigma_pole_jet(centers, squared_radii) -> PoleJet:
    """The sextic's 2-jet at the pole, for exact centres and squared radii:
    scalars, or (m,) object arrays of them for m triples at once."""
    B = cayley_menger_forms(centers, squared_radii, PoleJet.norm_sq(), PoleJet.linear)
    return poly_det(B) * -1


def _sigma_at_rows(triple: Triple, U: np.ndarray, squared_radii) -> np.ndarray:
    """The sextic at the direction rows of U (m, 3), for the given squared
    radii: -poly_det of the Cayley-Menger forms over (m,) arrays, per row, so
    a row's value does not depend on the rows beside it and is exactly
    2^(6k) times as large on a 2^k copy of the triple."""
    # Python floats: the same bits as numpy's scalars, for less overhead
    s = np.asarray(squared_radii, dtype=float).tolist()
    B = cayley_menger_forms(triple.centers.tolist(), s, np.einsum("md,md->m", U, U),
                            lambda e: np.einsum("md,d->m", U, e))
    return -poly_det(B)


# inverse 7-point DFT: row m + 3 is the coefficient of e^{2im theta}, |m| <= 3,
# of a form of degree 6 along a ray, from its values at theta = k pi / 7
_DFT7 = np.exp(-2j * math.pi * np.outer(np.arange(-3, 4), np.arange(7)) / 7) / 7


def companion_roots(C: np.ndarray) -> np.ndarray:
    """Roots (m, k) of the polynomials whose coefficient rows C (m, k + 1),
    real or complex, lead with the highest degree: the eigenvalues of their
    companion matrices, in one batch (Boyd, SIAM Review 55(2), 2013).  A
    leading coefficient below 1e-13 of the row's largest is raised to that
    size, which only adds roots of large modulus."""
    m, k = C.shape[0], C.shape[1] - 1
    floor = np.maximum(1e-13 * np.max(np.abs(C), axis=1), np.finfo(float).tiny)
    companion = np.zeros((m, k, k), dtype=C.dtype)
    companion[:, 0] = -C[:, 1:] / np.where(np.abs(C[:, 0]) < floor, floor, C[:, 0])[:, None]
    companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    return np.linalg.eigvals(companion)


def sigma_roots_on_rays(triple: Triple, squared_radii: np.ndarray, anchor: np.ndarray,
                        tangents: np.ndarray) -> np.ndarray:
    """Real roots theta in [0, pi) of the sextic, at the given squared radii,
    along each ray cos(theta) anchor + sin(theta) tangent: (m, 6), NaN-padded.
    ``anchor`` is one row (3,) for every ray or one per ray (m, 3), so the
    rays of every cone of a triple go in one call, as boundary directions
    take one kernel call per triple, prefiltered by the pair bound; a ray's
    roots do not depend on the rays beside it.

    On a ray a form of degree 6 has the harmonics 0, +-2, +-4 and +-6 only,
    so its values at theta = k pi / 7 give its coefficients exactly, and
    z^3 sigma is a polynomial of degree 6 in z = e^{2i theta}.  Its roots
    (companion_roots) within 1e-6 of the unit circle are polished by Newton
    steps on the trigonometric polynomial.
    """
    m = len(tangents)
    theta = np.arange(7) * math.pi / 7
    U = np.cos(theta)[:, None] * anchor[..., None, :] + np.sin(theta)[:, None] * tangents[:, None, :]
    values = _sigma_at_rows(triple, U.reshape(-1, 3), squared_radii).reshape(m, 7)
    C = np.einsum("mk,jk->mj", values, _DFT7)
    z = companion_roots(C[:, ::-1])
    theta = np.where(np.abs(np.abs(z) - 1.0) < 1e-6, 0.5 * np.angle(z), np.nan)
    harmonics = 2j * np.arange(-3, 4)
    for _ in range(3):
        terms = C[:, None, :] * np.exp(theta[:, :, None] * harmonics)
        value, slope = terms.sum(axis=2).real, (terms @ harmonics).real
        theta -= np.divide(value, slope, out=np.zeros_like(value), where=slope != 0.0)
    return np.mod(theta, math.pi)


def _direction_rows(U) -> np.ndarray:
    """The direction rows of U (m, 3) as floats; SceneError at the first
    non-finite or zero row, where the sextic defines no direction."""
    U = np.reshape(np.asarray(U, dtype=float), (-1, 3))
    finite = np.all(np.isfinite(U), axis=1)
    bad = ~finite | ~np.any(U, axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            raise SceneError(f"sigma is undefined at the non-finite vector {U[i].tolist()}")
        raise SceneError("sigma is undefined at the zero vector")
    return U


def eval_sigma(triple: Triple, U) -> np.ndarray:
    """Values (m,) of the direction sextic at the rows of U (m, 3), each row
    as given: any nonzero length, since sigma is homogeneous of degree 6."""
    return _sigma_at_rows(triple, _direction_rows(U), triple.squared_radii)


# ---------------------------------------------------------------------------
# Tangent line recovery for a direction on the sextic.
# ---------------------------------------------------------------------------


def tangent_lines_for_direction(triple: Triple, U) -> tuple[np.ndarray, list]:
    """Foot points (m, 2, 3), NaN-padded, of the affine common tangent lines
    with the directions of the rows of U (m, 3), and per row None or why it
    has none: each line is {foot + t u}, its foot orthogonal to u.

    A zero or non-finite row raises SceneError, as in eval_sigma.  The rows
    are taken to unit length (geom._unit_rows) and must be on the sextic:
    |sigma| at most SIGMA_TOL times the largest coefficient; a row off it
    gets its normalized sigma value as its error.  The work runs at
    float_safe_triple's scale and the feet are scaled back exactly, so every
    2^k copy of a triple gets the same answers.  With the first center at
    the origin and the scene at unit diameter, where the rank cut and the
    residual tests are scale-free, a foot p solves two center equations and
    <p, u> = 0 and lies on the sphere <p, p> = s_0; a rank-2 system leaves a
    line of candidates, and collinear centers along u (a circle family of
    tangents) give none.  Every step after the normaliser is per row (one
    batched SVD), so a unit row's feet do not depend on the rows beside it.
    """
    triple, shift = float_safe_triple(triple)
    N = _unit_rows(_direction_rows(U))
    val = _sigma_at_rows(triple, N, triple.squared_radii) / triple.sigma_scale
    on = np.abs(val) <= SIGMA_TOL  # a NaN is off the curve too
    errors = [None if ok else f"direction is not on the sextic: normalized sigma value {v:.3e}"
              for ok, v in zip(on.tolist(), val.tolist())]
    n, k = N[on], int(on.sum())
    length, c0 = triple.scene.diameter, triple.centers[0]
    C = (triple.centers[1:] - c0) / length
    s = triple.squared_radii / length ** 2
    cross = np.cross(C[:, None, :], n)
    a = 0.5 * (np.einsum("ikd,ikd->ik", cross, cross) + (s[0] - s[1:, None]))
    A = np.concatenate([np.broadcast_to(C, (k, 2, 3)), n[:, None, :]], axis=1)
    rhs = np.column_stack([*a, np.zeros(k)])
    L, sv, Vt = np.linalg.svd(A)
    kept = sv > RANK_TOL * np.where(sv[:, :1] > 0, sv[:, :1], 1.0)
    rank = kept.sum(axis=1)
    # the least-squares solution, and for rank 2 the nullspace direction w
    y = np.divide(np.einsum("kji,kj->ki", L, rhs), sv, out=np.zeros_like(sv), where=kept)
    p0, w = np.einsum("kji,kj->ki", Vt, y), Vt[:, 2]
    resid = np.linalg.norm(np.einsum("kij,kj->ki", A, p0) - rhs, axis=1)
    aq, bq = np.einsum("kd,kd->k", w, w), 2.0 * np.einsum("kd,kd->k", p0, w)
    cq = np.einsum("kd,kd->k", p0, p0) - s[0]
    disc = bq * bq - 4 * aq * cq
    # rank 3: the unique foot must lie on the sphere, else no real tangent
    # has this direction at the working tolerance; rank 2: the line of
    # solutions must meet the sphere
    unique = (rank == 3) & ~(np.abs(cq) > 1e-5)
    line = (rank == 2) & (disc >= 0)
    line &= resid <= 1e-6 * np.maximum(1.0, np.linalg.norm(rhs, axis=1))
    P = np.full((k, 2, 3), np.nan)
    P[unique, 0] = p0[unique]
    root = np.sqrt(np.where(line, disc, 0.0))
    for f, sign, rows in ((0, 1.0, line), (1, -1.0, line & (disc > 0))):
        P[rows, f] = p0[rows] + ((-bq[rows] + sign * root[rows]) / (2 * aq[rows]))[:, None] * w[rows]
    base = length * P + c0
    feet = np.full((len(N), 2, 3), np.nan)
    feet[on] = base - np.einsum("kfd,kd->kf", base, n)[:, :, None] * n[:, None, :]
    return np.ldexp(feet, -shift), errors


# ---------------------------------------------------------------------------
# Curve tracing: marching squares with bisection refinement on grid edges.
# ---------------------------------------------------------------------------

CHART_AXES = {"u1": 0, "u2": 1, "u3": 2}


def chart_point_to_direction(chart: str, x, y) -> np.ndarray:
    """Directions (x, y) of the chart plane u_k = 1, in a trailing axis of 3.

    Scalars give one direction of shape (3,); arrays give shape (..., 3).
    """
    axis = CHART_AXES[chart]
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    comps = [x, y]
    comps.insert(axis, np.ones_like(x))
    return np.stack(comps, axis=-1)


def _bisect_crossings(f, degree, neg, pos, refine_tol, label):
    """Bisect every segment neg + t (pos - neg), t in [0, 1], from a negative
    value of f to a positive one, at once.  There f is a polynomial of at most
    ``degree``: its values at degree + 1 Chebyshev points, in one call of f,
    give its Chebyshev coefficients, and t is bisected on their Clenshaw sum
    until the bracket is at most refine_tol long in the chart; an exact zero
    ends a segment's bisection (Boyd, SIAM Review 55(2), 2013).  A segment's
    vertex does not depend on the segments beside it."""
    theta = (np.arange(degree + 1) + 0.5) * math.pi / (degree + 1)
    step = pos - neg
    nodes = neg[:, None, :] + (0.5 + 0.5 * np.cos(theta))[:, None] * step[:, None, :]
    values = f(nodes[..., 0], nodes[..., 1])
    if not np.all(np.isfinite(values)):
        raise SolverError(f"{label} has non-finite values on the grid")
    cosines = np.cos(np.outer(np.arange(degree + 1), theta)) * (2.0 / (degree + 1))
    cosines[0] *= 0.5
    coeffs = np.einsum("kj,mj->km", values, cosines)  # no BLAS: the same sums for any count
    # one contiguous row per coefficient: each step sums every segment's
    # series, cheaper than gathering the live ones, and moves only the live
    # brackets; a segment's arithmetic is the same either way
    c = np.ascontiguousarray(coeffs.T)
    length = np.linalg.norm(step, axis=1)
    a, b = np.zeros(len(neg)), np.ones(len(neg))
    for _ in range(80):
        live = (b - a) * length > refine_tol
        if not live.any():
            break
        mid = 0.5 * (a + b)
        x = 2.0 * mid - 1.0
        b1 = b2 = np.zeros(len(neg))
        for m in range(degree, 0, -1):
            b1, b2 = c[m] + 2.0 * x * b1 - b2, b1
        v = c[0] + x * b1 - b2
        a = np.where(live & (v <= 0), mid, a)
        b = np.where(live & (v >= 0), mid, b)
    return neg + (0.5 * (a + b))[:, None] * step


# marching-squares segment table: corner bits (bl, br, tr, tl) -> edge pairs,
# edges indexed 0=bottom 1=right 2=top 3=left; the saddles 5 and 10 are keyed
# by (code, whether f is positive at the cell centre)
_MS_CASES = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)],
    9: [(0, 2)], 11: [(1, 2)], 12: [(1, 3)],
    13: [(0, 1)], 14: [(3, 0)],
    (5, True): [(3, 2), (0, 1)], (5, False): [(3, 0), (1, 2)],
    (10, True): [(0, 3), (1, 2)], (10, False): [(3, 2), (0, 1)],
}


def _trace_zero_set(f, degree, xs, ys, refine_tol, label="f"):
    """Marching squares of the zero set of f(X, Y) on the grid xs x ys.

    f is vectorised and broadcasts its arguments: it fills the grid from the
    column xs[:, None] and the row ys[None, :], and decides the saddle cells
    from their centres.  On a grid edge f is a polynomial of degree at most
    k = ``degree``, and every crossing is bisected on its edge's degree-k
    Chebyshev interpolant, all crossings in one batch (_bisect_crossings).
    A crossing's id is the index of its grid edge among the crossing edges;
    the polylines are the bisected points indexed by chains of ids.
    A grid or node value that is not finite has no sign: SolverError,
    naming label.
    """
    values = f(xs[:, None], ys[None, :])
    if not np.all(np.isfinite(values)):
        raise SolverError(f"{label} has non-finite values on the grid")
    sign = values >= 0  # an exact zero counts as positive

    # crossing edges: horizontal (ix, iy)-(ix + 1, iy), then vertical (ix, iy)-(ix, iy + 1)
    h_cross, v_cross = sign[:-1] != sign[1:], sign[:, :-1] != sign[:, 1:]
    hx, hy = np.nonzero(h_cross)
    vx, vy = np.nonzero(v_cross)
    ex, ey = np.concatenate([hx, vx]), np.concatenate([hy, vy])
    start = np.column_stack([xs[ex], ys[ey]])
    end = np.column_stack([xs[np.concatenate([hx + 1, vx])], ys[np.concatenate([hy, vy + 1])]])
    flip = sign[ex, ey][:, None]
    pts = _bisect_crossings(f, degree, np.where(flip, end, start), np.where(flip, start, end),
                            refine_tol, label)
    # a crossing edge's id is its rank in the order of (hx, hy) then (vx, vy)
    h_id = np.cumsum(h_cross).reshape(h_cross.shape) - 1
    v_id = np.cumsum(v_cross).reshape(v_cross.shape) - 1 + len(hx)

    code = sign[:-1, :-1] + 2 * sign[1:, :-1] + 4 * sign[1:, 1:] + 8 * sign[:-1, 1:]
    cx, cy = np.nonzero((code != 0) & (code != 15))
    codes = code[cx, cy]
    saddle = (codes == 5) | (codes == 10)
    centre = np.zeros(len(codes), dtype=bool)
    sx, sy = cx[saddle], cy[saddle]
    centre[saddle] = f(0.5 * (xs[sx] + xs[sx + 1]), 0.5 * (ys[sy] + ys[sy + 1])) > 0

    edge_ids = np.column_stack([h_id[cx, cy], v_id[cx + 1, cy], h_id[cx, cy + 1], v_id[cx, cy]])
    segments = [(ids[e1], ids[e2])
                for ids, c, pos in zip(edge_ids.tolist(), codes.tolist(), centre.tolist())
                for e1, e2 in _MS_CASES[(c, pos) if c in (5, 10) else c]]
    return [pts[chain] for chain in _chain_segments(segments, len(pts))]


def _chain_segments(segments, count):
    """Link segments, pairs of crossing ids below count, into chains of ids.

    A crossing lies on at most two segments.  In segment order, each unused
    segment (a, b) starts a chain, which extends forward from b, then
    backward from a, through the first unused segment at its tip; a closed
    curve's chain ends on its first id.
    """
    on = [[] for _ in range(count)]  # the segments on each crossing
    for s, (a, b) in enumerate(segments):
        on[a].append(s)
        on[b].append(s)
    used = [False] * len(segments)
    chains = []
    for s, (a, b) in enumerate(segments):
        if used[s]:
            continue
        used[s] = True
        fwd, back = [], []
        for tip, ids in ((b, fwd), (a, back)):
            while (t := next((r for r in on[tip] if not used[r]), None)) is not None:
                used[t] = True
                tip = sum(segments[t]) - tip  # the other end of segment t
                ids.append(tip)
        chains.append(back[::-1] + [a, b] + fwd)
    return chains


@dataclass
class CurveTraces:
    """Zero-set polylines per curve in one affine chart of direction space."""

    chart: str
    extent: float
    curves: dict[str, list[np.ndarray]]

    def to_csv(self) -> str:
        """The CSV text of trace-curves: a header, then one line
        "curve:component,chart,x,y" per vertex, each coordinate its repr."""
        lines = ["curve,chart,x,y"]
        for name, polys in self.curves.items():
            for comp, pts in enumerate(polys):
                head = f"{name}:{comp},{self.chart},"
                lines.extend(f"{head}{x!r},{y!r}" for x, y in pts.tolist())
        return "\n".join(lines) + "\n"


CURVE_NAMES = ("sigma", "hessian", "pair01", "pair02", "pair12")


def _curve(triple: Triple, name: str):
    """(f, degree) of the named curve: f maps a GridPowers to the values of
    the curve's form, scaled by its largest coefficient, and degree is the
    form's degree, its bound along any chart line.  None for the conic of an
    overlapping or tangent pair, which bounds nothing."""
    if name == "sigma":
        sig, sig_scale = triple.sigma, triple.sigma_scale
        return (lambda P: sig.eval_grid(P) / sig_scale), sig.degree
    if name == "hessian":
        hess = triple.hessian_entries
        h_scale = max(max(p.max_abs_coeff() for row in hess for p in row) ** 3, 1e-300)

        def hessian(P):
            H = {(a, b): hess[a][b].eval_grid(P) for a in range(3) for b in range(a, 3)}
            H = [[H[min(a, b), max(a, b)] for b in range(3)] for a in range(3)]
            return poly_det(H) / h_scale

        return hessian, 3 * max(p.degree for row in hess for p in row)
    pair = (int(name[4]), int(name[5]))
    if pair in triple.scene.overlapping_pairs():
        return None
    conic = triple.pair_conic(*pair)
    scale = max(conic.max_abs_coeff(), 1e-300)
    return (lambda P: conic.eval_grid(P) / scale), conic.degree


def trace_curves(
    triple: Triple,
    chart: str = "u3",
    grid: int = 200,
    extent: float = 2.0,
) -> CurveTraces:
    """Trace the curves of CURVE_NAMES in an affine chart, for trace-curves.

    The curves are "sigma" (the direction sextic), "hessian" (the
    determinant of its second partials) and the pair conics "pair01",
    "pair02" and "pair12" (empty for an overlapping or tangent pair).  The
    chart "uk" is the plane u_k = 1.  Each vertex is bisected to TRACE_TOL
    on its grid edge's degree-k Chebyshev interpolant, k the degree of the
    curve's form (_curve); components smaller than the grid
    resolution may be missed, which is a documented limitation rather than
    an error.  The work runs at float_safe_triple's scale, so every 2^k
    copy of a triple gets the same traces.
    """
    if chart not in CHART_AXES:
        raise SceneError(f"unknown chart {chart!r}; use one of {sorted(CHART_AXES)}")
    triple = float_safe_triple(triple)[0]
    axis = CHART_AXES[chart]
    xs = np.linspace(-extent, extent, grid)

    def trace(name, g, degree):
        """Trace the zero set of g, a function of one grid's GridPowers."""
        def f(X, Y):
            U = [X, Y]
            U.insert(axis, 1.0)  # the chart plane u_axis = 1, as a scalar whose factors are skipped
            return g(GridPowers(*U))
        return _trace_zero_set(f, degree, xs, xs, TRACE_TOL,
                               f"{name} in chart {chart} at extent {extent!r}")

    curves = {}
    for name in CURVE_NAMES:
        curve = _curve(triple, name)
        curves[name] = [] if curve is None else trace(name, *curve)
    return CurveTraces(chart=chart, extent=extent, curves=curves)
