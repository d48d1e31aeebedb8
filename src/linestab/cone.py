"""Direction cones of ordered ball scenes.

Feasibility of a direction (order-respecting transversal existence),
geodesic-midpoint convexity certification, geometric permutation
enumeration, connected component counting of line directions (its neighbour
pairs come from a fixed-radius cell grid), the boundary directions
of a triple's cones (each ray's exit is a root of the sextic, a pair-cone
conic or a tie-band edge along it), and the classification of the sextic's
roots along the same rays against the triangle of centers.

Every length decision reads one tolerance, the scene's ``band``: geom.REL_TOL
times its diameter.  ConeSampleSet.feasible_for_order alone decides which
directions are feasible: their projected disks share a point up to the band
(slack <= band) and their order has no tie (two center projections closer
than the band); the entry-order margin, the boundary curves (radii r + band)
and the boundary classification read the same band, so no verdict changes
when the scene is scaled.  ConeSampleSet.cones alone groups the feasible
rows by meeting order, for the permutation catalogue and the boundary rays.

The bulk feasibility engine solves the projected-disk minimax problem for a
batch of directions at once, with no per-direction Python work: each row
starts from its best pair of disks, and a violator loop over supports of at
most d disks finishes the few rows the pair does not solve.  Sphere samples
first pass a pair-cone bound, which rules most directions out without it.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geom import (Scene, SceneError, SolverError, _frames, _unit_rows,
                   orthonormal_basis_of_complement)
from .sextic import (TRACE_TOL, Triple, companion_roots, float_safe_triple, sigma_roots_on_rays,
                     tangent_lines_for_direction)

# roundoff margin of the disk-minimax kernel relative to the scene's
# diameter: a row is solved once no disk is violated by more than this at its
# point, and the pair bound rules a row out only above the band plus this
KERNEL_REL_EPS = 1e-12
# sample_scene sends the lattice through the kernel this many rows at a time
SAMPLE_CHUNK = 200_000
# boundary_directions_for_triple anchors its rays on a lattice of this size
BOUNDARY_LATTICE = 4096
# count_components joins feasible samples at most this many lattice
# spacings apart
NEIGHBOUR_SPACINGS = 2.5
# a convexity report lists this many of its midpoint violations
REPORTED_VIOLATIONS = 32


# ---------------------------------------------------------------------------
# Sphere sampling.
# ---------------------------------------------------------------------------


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic quasi-uniform lattice on S^2 (golden angle spiral)."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def sample_directions(d: int, count: int, seed: int = 0) -> np.ndarray:
    """Quasi-uniform direction sample of S^{d-1}.

    d = 2 uses evenly spaced angles and d = 3 the Fibonacci lattice; higher
    dimensions fall back to seeded normalized Gaussians, which are equally
    deterministic under the seed.
    """
    if d == 2:
        phi = 2.0 * math.pi * (np.arange(count) + 0.5) / count
        return np.column_stack([np.cos(phi), np.sin(phi)])
    if d == 3:
        return fibonacci_sphere(count)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, d))
    n = np.linalg.norm(v, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return v / n


def lattice_spacing(d: int, count: int) -> float:
    """Mean angular spacing of a `count`-point sample of S^{d-1}."""
    if d == 3:
        return math.sqrt(4.0 * math.pi / count)
    # general sphere measure, adequate for spacing estimates
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return (area / count) ** (1.0 / (d - 1))


# ---------------------------------------------------------------------------
# The disk-minimax kernel, batched over directions.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), cached and read-only: one call of it costs as
    much as a dozen small array operations, and every kernel call needs it."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _pair_distances(centers: np.ndarray, U: np.ndarray):
    """Index pairs i < j and |pi_u(c_i - c_j)| per direction row, (m, pairs),
    as |D|^2 - (u.D)^2 on the centre differences D."""
    i, j = _index_pairs(len(centers))
    D = centers[i] - centers[j]
    dist = U @ D.T
    dist *= -dist
    dist += np.einsum("pd,pd->p", D, D)
    np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
    return i, j, dist


def _lengths(X: np.ndarray) -> np.ndarray:
    """Lengths over the leading axis of X (d, ...), the coordinates, to the
    bit of np.linalg.norm over a trailing axis: below 8 terms numpy adds the
    squares in order, and so does this sum over whole coordinate planes,
    which runs along the long axes.  From 8 terms on it is the norm itself.
    X is scratch: below 8 terms it is squared in place."""
    if len(X) >= 8:
        return np.linalg.norm(np.moveaxis(X, 0, -1).copy(), axis=-1)
    X *= X
    total = X[0] + X[1] if len(X) > 1 else X[0]
    for c in range(2, len(X)):
        total += X[c]
    return np.sqrt(total, out=total)


def _best_point(P: np.ndarray, radii: np.ndarray, B: np.ndarray, over: np.ndarray):
    """Per row of B (g, b) and over (g, k), which index disks with centres
    the columns of P (d, N) and radii (N,): the smallest max over the disks
    ``over`` of |x - p_i| - r_i at a point x of the affine hull of the
    support B where these agree over B, and the affine weights (g, b) of
    that x over B.  Rows are independent, so callers stack many supports as
    rows of one call, and a row's bits do not depend on the rows beside it.

    One disk's x is its centre.  Two disks are solved in closed form on
    per-row columns (_pair_points), more through LAPACK's det and solve
    (_support_points), each at both roots of a quadratic in t; a row whose
    system is singular or has no real root keeps inf.  Every dot product
    over the coordinates is an einsum over a C-contiguous (g, d) pair, whose
    sum is not the left-to-right one; every other sum runs left to right.
    Points and lengths are (d, c, g) coordinate planes, so each pass runs
    along the rows."""
    g, b = B.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        if b == 1:
            x, w = P.take(B[:, 0], axis=1)[:, None, :], np.ones((1, g, 1))
        else:
            x, w = (_pair_points if b == 2 else _support_points)(P, radii, B)
        # the max over ``over`` one disk at a time, with no reduction over
        # the short k axis: a max is exact
        val = None
        for p, r in zip(P.take(over.T, axis=1).transpose(1, 0, 2), radii.take(over.T)):
            gap = _lengths(x - p[:, None, :])
            gap -= r
            val = gap if val is None else np.maximum(val, gap, out=val)
    val[np.isnan(val)] = np.inf
    pick, rows = val.argmin(axis=0), np.arange(g)
    return val[pick, rows], w[pick, rows]


def _roots(y: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Both roots (2, g) in t of |y0 - t y1| = r0 + t, y = (y0, y1) a
    C-contiguous (2, g, d) array: qa t^2 + 2 hb t + qc = 0 solved without
    cancellation; NaN where they are not real."""
    qa = np.einsum("gd,gd->g", y[1], y[1]) - 1.0
    hb = -np.einsum("gd,gd->g", y[0], y[1]) - r0
    qc = np.einsum("gd,gd->g", y[0], y[0]) - r0 * r0
    q = -(hb + np.copysign(np.sqrt(hb * hb - qa * qc), hb))
    return np.stack([q / qa, qc / q])


def _pair_points(P, radii, B):
    """Candidate points (d, 2, g) and weights (2, g, 2) of two-disk supports:
    x = p0 + alpha E on the line through the centres, E = p1 - p0, where
    |E|^2 alpha = b0 - t b1 (a 1x1 system: alpha = a0 - t a1) and
    |x - p0| = r0 + t.  Coincident centres (E = 0) give NaN, then inf."""
    PB, (r0, r1) = P.take(B.T, axis=1), radii.take(B.T)
    E = np.ascontiguousarray((PB[:, 1] - PB[:, 0]).T)
    d2 = np.einsum("gd,gd->g", E, E)
    dr = r1 - r0
    a = np.stack([0.5 * (d2 - dr * (r1 + r0)), dr]) * np.where(d2 > 0.0, 1.0 / d2, np.nan)
    alpha = a[0] - _roots(E * a[:, :, None], r0) * a[1]
    w = np.stack([1.0 - alpha, alpha], axis=2)
    return PB[:, :1] * w[:, :, 0] + PB[:, 1:] * alpha, w


def _support_points(P, radii, B):
    """Candidate points (d, 2, g) and weights (2, g, b) of supports of b >= 3
    disks: x = p0 + alpha E with edges E_j = p_j - p0, where G alpha = b0 -
    t b1 (G = E E^T, one (g, d) einsum per pair of edges) and |x - p0| =
    r0 + t.  det(G) near zero for its diagonal (det G <= prod diag G, with
    equality for orthogonal edges) makes the row singular."""
    g, b = B.shape
    PB, rB = P.take(B.T, axis=1), radii.take(B.T)
    E = (PB[:, 1:] - PB[:, :1]).transpose(2, 1, 0).copy()
    G = np.empty((g, b - 1, b - 1))
    for i, j in itertools.combinations_with_replacement(range(b - 1), 2):
        G[:, i, j] = G[:, j, i] = np.einsum("gd,gd->g", E[:, i], E[:, j])
    d2, dr = np.einsum("gii->gi", G), (rB[1:] - rB[:1]).T
    rhs = np.stack([0.5 * (d2 - dr * (rB[1:] + rB[:1]).T), dr], axis=2)
    ok = np.linalg.det(G) > 1e-15 * d2.prod(axis=1)
    A = np.linalg.solve(np.where(ok[:, None, None], G, np.eye(b - 1)), rhs)
    A[~ok] = np.nan
    y = A[:, 0].T[:, :, None] * E[:, 0]
    for j in range(1, b - 1):  # y = sum_j a_j E_j, added left to right
        y += A[:, j].T[:, :, None] * E[:, j]
    alpha = A[:, :, 0] - _roots(y, rB[0])[:, :, None] * A[:, :, 1]
    w = np.concatenate([1.0 - alpha.sum(axis=2, keepdims=True), alpha], axis=2)
    x = PB[:, :1] * w[:, :, 0]
    for j in range(1, b):  # x = sum_j w_j p_j, added left to right
        x += PB[:, j:j + 1] * w[:, :, j]
    return x, w


def _unit_scale(centers: np.ndarray, radii: np.ndarray):
    """Centres about their mean and radii at an exact power-of-two rescale
    to unit size, with the mean and the exponent: every product of lengths
    taken there stays inside the float range."""
    mean = centers.sum(axis=0) / len(centers)  # np.mean, to the bit
    centers = centers - mean
    scale = math.frexp(max(np.abs(centers).max(), radii.max()))[1]
    return np.ldexp(centers, -scale), np.ldexp(radii, -scale), mean, scale


def _minimax(centers: np.ndarray, radii: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slack (m,) and affine weights (m, n) of the projected-disk minimax
    problem of each direction row; see minimax_slack_batch.

    The problem is LP-type with bases of at most d disks (Welzl 1991;
    Matousek, Sharir and Welzl 1996).  Each row starts from its best pair of
    projected disks that are not nested, else its smallest disk.  While a
    disk v is violated at the row's point by more than KERNEL_REL_EPS times
    the diameter, the support S becomes the best support in S + {v} that
    holds v, by the max t over S + {v}; a tie goes to the smaller support,
    then to the first in itertools.combinations order.  A round makes one
    _best_point call per candidate size for the open rows of each support
    size, with every candidate support of that size stacked as rows.  t
    rises strictly, so each basis is met at most once; a row still open
    after that many rounds raises SolverError.

    Points live in explicit projected coordinates P = c - (c.u)u, held as d
    coordinate planes of (n, m), so that every elementwise pass runs along
    the rows and not along a short axis of d or n; _best_point reads the
    disks of all rows as one flat list of columns.  The pair start gathers
    no rows, and round 0 reads them whole.  The slack is the max over all
    disks at weights @ P: attained, never below the minimum.  A row's bits
    are those of its own one-row call."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if not len(centers):
        raise SolverError("need at least one ball")
    U = _unit_rows(U)
    # at unit size det(G) in _best_point stays inside the float range
    centers, radii, _, scale = _unit_scale(centers, radii)
    m, n, cap = len(U), len(centers), min(len(centers), U.shape[1])
    rows = np.arange(m)
    # the planes Q (d, n, m); flat, disk i of row r is column i * m + r of
    # ``disks``, and supports hold these columns
    proj, UT = np.ascontiguousarray((U @ centers.T).T), np.ascontiguousarray(U.T)
    Q = proj[None, :, :] * UT[:, None, :]
    np.subtract(centers.T[:, :, None], Q, out=Q)
    disks, disk_radii = Q.reshape(len(Q), n * m), np.repeat(radii, m)
    i, j, dist = _pair_distances(centers, U)
    ri, rj = radii[i], radii[j]
    diameter = _lengths((centers[i] - centers[j]).T) + ri + rj
    eps = KERNEL_REL_EPS * diameter.max(initial=2.0 * radii.max())

    # a support's unused columns hold disk 0 of its row at weight 0
    support, weights = np.repeat(rows[:, None], cap, axis=1), np.zeros((m, cap))
    support[:, 0] += radii.argmin() * m
    weights[:, 0] = 1.0
    t, size = np.full(m, -radii.min()), np.ones(m, dtype=np.int64)
    if n > 1:
        valid = (dist > 0.0) & (dist >= np.abs(ri - rj))
        pair = np.where(valid, dist - ri - rj, -np.inf).argmax(axis=1)
        paired = valid[rows, pair]
        if paired.all():
            paired = slice(None)  # the common case: no row is gathered
        B = np.column_stack([i[pair], j[pair]])[paired] * m + rows[paired, None]
        support[paired, :2], size[paired] = B, 2
        t[paired], weights[paired, :2] = _best_point(disks, disk_radii, B, B)

    worst, slack, open_ = np.zeros(m, dtype=np.int64), np.empty(m), slice(None)
    for _ in range(sum(math.comb(n, k) for k in range(1, cap + 1)) + 1):
        # round 0 reads every row whole; later rounds gather the open rows
        S, wk = disks.take(support[open_].T, axis=1), weights[open_].T
        x = S[:, 0] * wk[0]
        for c in range(1, cap):  # x = sum_k w_k p_k, added left to right
            x += S[:, c] * wk[c]
        g = _lengths(x[:, None, :] - Q[:, :, open_]) - radii[:, None]
        slack[open_] = g.max(axis=0)  # a max is exact: g[argmax], NaN too
        violated = slack[open_] - t[open_] > eps
        open_ = rows[open_][violated]
        if not len(open_):
            break
        worst[open_] = g[:, violated].argmax(axis=0) * m + open_
        for k in set(size[open_].tolist()):  # np.unique would import numpy.ma
            r = open_[size[open_] == k]
            over = np.column_stack([worst[r], support[r, :k]])
            t[r] = np.inf
            for s in range(min(k, cap - 1) + 1):
                # every support of size s + 1 in one call, one block of rows
                # per subset T; the first smallest in combinations order wins
                Ts = list(itertools.combinations(range(1, k + 1), s))
                B = np.concatenate([over[:, (0,) + T] for T in Ts])
                val, w = _best_point(disks, disk_radii, B, np.concatenate([over] * len(Ts)))
                pick = val.reshape(len(Ts), -1).argmin(axis=0) * len(r) + np.arange(len(r))
                val, w, B = val[pick], w[pick], B[pick]
                better = val < t[r]
                b = r[better]
                t[b], size[b] = val[better], s + 1
                support[b], weights[b] = b[:, None], 0.0
                support[b, :s + 1], weights[b, :s + 1] = B[better], w[better]
    else:
        raise SolverError(f"disk minimax did not converge on {len(open_)} direction rows")
    W = np.zeros((n, m))
    for c in range(cap):  # padding adds 0.0 to column 0
        W.reshape(-1)[support[:, c]] += weights[:, c]
    return np.ldexp(slack, scale), np.ascontiguousarray(W.T)


def minimax_slack_batch(centers: np.ndarray, radii: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Slack of the projected-disk minimax problem for each direction row.

    For direction u the balls project to disks in u^perp; the returned value
    is min_x max_i (|x - c_i,proj| - r_i), attained at the row's minimax
    point and exact up to KERNEL_REL_EPS times the scene's diameter.  Rows
    need not be unit vectors; a zero or non-finite row raises SolverError.
    The disks share a point iff the slack is nonpositive.
    """
    return _minimax(centers, radii, U)[0]


def minimax_weights_batch(centers: np.ndarray, radii: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Affine weights (m, n) over the centers of each row's minimax point.

    The minimizer of the projected-disk problem for direction row u is
    ``weights[row] @ P`` for any projection P of the centers onto u^perp,
    expressed in whatever frame of u^perp the caller uses.  Weights are
    exactly zero off the row's support of at most d disks.
    """
    return _minimax(centers, radii, U)[1]


def _pair_bound(centers: np.ndarray, radii: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Pair-cone lower bound on the minimax slack of each direction row.

    Any point x of u^perp is at least (|pi_u(c_i - c_j)| - r_i - r_j) / 2
    outside one of the projected disks i and j, so the slack is at least the
    largest of these values over pairs i < j: the pair-cone condition of the
    direction sextic, in any dimension.  Built from centre differences, so it
    does not depend on where the scene sits; -inf for fewer than two balls.
    """
    i, j, gap = _pair_distances(centers, U)
    gap -= radii[i] + radii[j]
    # the max runs over the leading axis of a contiguous transposed copy, as
    # in geom._unit_rows: several times faster, and a max is exact
    return 0.5 * np.max(np.ascontiguousarray(gap.T), axis=0, initial=-np.inf)


def realized_orders_batch(scene: Scene, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Meeting orders (m, n) of the balls along each direction row, and ties.

    For disjoint balls a transversal of direction u meets them in the order
    of the center projections <c_i, u>.  Rows are scaled to unit length, and
    two projections closer than the scene's band make the row's order a tie:
    indeterminate, never feasible.  Each row's projections are summed on
    their own, so a row's answer does not depend on the rows beside it.
    """
    keys = np.einsum("md,nd->mn", _unit_rows(U), scene.centers)  # per row: no BLAS
    orders = np.argsort(keys, axis=1, kind="stable")
    sorted_keys = np.take_along_axis(keys, orders, axis=1)
    return orders, np.any(np.diff(sorted_keys, axis=1) < scene.band, axis=1)


@dataclass
class ConeSampleSet:
    """Kernel data of direction rows for one scene, from sample_scene or
    evaluate_directions, and the one decision of which rows are feasible
    (``meets`` and ``feasible_for_order``).

    ``slacks`` are exact (up to roundoff) where they are <= the scene's
    band; above it a sample_scene row may hold the pair-cone lower bound of its
    slack, which certifies it infeasible.  ``orders`` and ``ties`` are those
    of realized_orders_batch on the rows that meet; a row that does not
    meet holds the identity order and no tie.  Read them through the two
    predicates, on feasible rows only, or by meeting order through ``cones``.
    """

    scene: Scene
    directions: np.ndarray
    slacks: np.ndarray
    orders: np.ndarray
    ties: np.ndarray

    @property
    def meets(self) -> np.ndarray:
        """Rows whose projected disks share a point: slack <= the scene's band."""
        return self.slacks <= self.scene.band

    @property
    def feasible(self) -> np.ndarray:
        return self.feasible_for_order()

    def feasible_for_order(self, order: Optional[Sequence[int]] = None,
                           order_semantics: str = "center") -> np.ndarray:
        """Rows with a transversal that meets the balls in ``order``.

        Center semantics: the row meets, its center order has no tie (a tie
        is indeterminate, never feasible) and, given ``order``, equals it.
        Entry semantics, which needs ``order`` and a scene in R^3: the row
        meets and entry_order_feasible finds a transversal with that entry
        order.  Any other semantics, or an order that is not a permutation
        of the balls, raises SceneError.
        """
        order = _check_order(self.scene, order, order_semantics)
        mask = self.meets
        if order_semantics == "entry":
            mask[mask] = entry_order_feasible(self.scene, self.directions[mask], order)
            return mask
        mask &= ~self.ties
        if order is not None:
            mask &= np.all(self.orders == np.asarray(order)[None, :], axis=1)
        return mask

    def cones(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """The distinct meeting orders of the feasible rows, in lexicographic
        order, each with its rows in increasing order: one stable sort over
        the order columns, cut where a row's order differs from the last."""
        rows = np.flatnonzero(self.feasible)
        orders = self.orders[rows]
        by = np.lexsort(orders.T[::-1])
        cuts = np.flatnonzero(np.any(np.diff(orders[by], axis=0), axis=1)) + 1
        return [(tuple(orders[group[0]].tolist()), rows[group])
                for group in np.split(by, cuts) if len(group)]


def _evaluate(scene: Scene, U, prefilter: bool) -> ConeSampleSet:
    """Kernel data of direction rows, scaled to unit length, SAMPLE_CHUNK rows
    at a time.  With ``prefilter`` a row whose pair-cone bound exceeds the
    band plus KERNEL_REL_EPS times the diameter keeps that bound, which
    certifies it infeasible (the margin covers the roundoff between bound
    and kernel), and only the other rows (a NaN bound, where its squares
    overflow, among them) get the kernel's slack; without it every slack is
    the kernel's and no bound is taken.  Only the rows that meet get
    realized_orders_batch's orders and ties; the others keep the identity
    order and no tie."""
    U = _unit_rows(U)
    cut = scene.band + KERNEL_REL_EPS * scene.diameter
    slacks = np.empty(len(U))
    orders = np.tile(np.arange(len(scene)), (len(U), 1))
    ties = np.zeros(len(U), dtype=bool)
    for lo in range(0, len(U), SAMPLE_CHUNK):
        chunk = slice(lo, lo + SAMPLE_CHUNK)
        rows = U[chunk]
        bound = (_pair_bound(scene.centers, scene.radii, rows) if prefilter
                 else np.full(len(rows), -np.inf))
        near = ~(bound > cut)
        bound[near] = minimax_slack_batch(scene.centers, scene.radii, rows[near])
        slacks[chunk] = bound
        meet = np.flatnonzero(bound <= scene.band)
        orders[lo + meet], ties[lo + meet] = realized_orders_batch(scene, rows[meet])
    return ConeSampleSet(scene, U, slacks, orders, ties)


def evaluate_directions(scene: Scene, U) -> ConeSampleSet:
    """Kernel data of the given direction rows at unit length, every slack
    exact; SolverError on a zero or non-finite row."""
    return _evaluate(scene, U, prefilter=False)


def sample_scene(scene: Scene, samples: int, seed: int = 0) -> ConeSampleSet:
    """Sample the direction sphere and record slack/order for each direction.

    Only rows whose pair-cone bound does not already exceed the scene's band
    go through the exact kernel; the others keep the bound (see
    ConeSampleSet and _evaluate).
    """
    return _evaluate(scene, sample_directions(scene.dimension, samples, seed), prefilter=True)


def _check_order(scene: Scene, order, order_semantics: str):
    """The order as a tuple of ints, or None; SceneError unless it is None or
    a permutation of the balls, and the order semantics is known and fits
    the scene and order: the entry order searches transversals over a plane
    for one given order, so it needs R^3 and an order."""
    if order_semantics not in ("center", "entry"):
        raise SceneError(f"unknown order semantics {order_semantics!r}")
    if order is not None:
        order = tuple(np.asarray(order).tolist())
        if sorted(order) != list(range(len(scene))):
            raise SceneError(f"order {order} is not a permutation of the balls")
    if order_semantics == "entry" and scene.dimension != 3:
        raise SceneError(f"entry order semantics needs a scene in R^3, not R^{scene.dimension}")
    if order_semantics == "entry" and order is None:
        raise SceneError("entry order semantics needs an order")
    return None if order is None else tuple(map(int, order))


# ---------------------------------------------------------------------------
# Entry-order feasibility.
#
# For disjoint balls the meeting order along any transversal equals the order
# of the center projections <c_i, u>, independent of which transversal is
# chosen.  For overlapping balls the two notions differ: the entry order
# (first boundary crossing per ball) depends on the transversal, and it is
# the entry-order cones that lose convexity in the overlap transition.  The
# default semantics everywhere is "center" (identical to "entry" on disjoint
# scenes); "entry" exists for the overlap demonstrations.  In u^perp, the
# lines entering the balls in order form a compact region bounded by the n
# disk rims and the n - 1 curves e_a = e_b of consecutive entry times, each on
# the projection of the circle where spheres a and b meet.  Such a region, if
# not empty, holds a vertex of its boundary or a coordinate extreme of one of
# its curves (Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry,
# 2006): a finite list of candidate points decides a row.
# ---------------------------------------------------------------------------

# rows go through in chunks of about this many (row, candidate, ball) entries
_ENTRY_CHUNK = 1 << 16


def _dot(x, y):
    """<x, y> over the last axis, broadcast, one row at a time (no BLAS)."""
    return np.einsum("...d,...d->...", x, y)


def _sphere_circle(c: np.ndarray, r: np.ndarray, band: float):
    """(centre, radius, unit normal, frame p and q) of the circle where two
    spheres meet, a point if they touch up to the band; None if they miss."""
    D = c[1] - c[0]
    dd = float(D @ D)
    alpha = (dd + r[0] ** 2 - r[1] ** 2) / (2.0 * dd) if dd else math.nan
    rho2 = r[0] ** 2 - alpha * alpha * dd
    if not rho2 >= -2.0 * band * r[0]:
        return None
    return (c[0] + alpha * D, math.sqrt(max(rho2, 0.0)), D / math.sqrt(dd),
            *orthonormal_basis_of_complement(D))


def _cos_sin_roots(A, B, K) -> np.ndarray:
    """theta (..., 2) where A cos theta + B sin theta = K, or nearest to it."""
    phi, turn = np.arctan2(B, A), np.arccos(np.clip(K / np.hypot(A, B), -1.0, 1.0))
    return np.stack([phi + turn, phi - turn], axis=-1)


def _projected_meets(circle, U: np.ndarray, M2, rho2, n2) -> np.ndarray:
    """theta (m, 4) where M + rho (cos theta p + sin theta q) on ``circle``
    projects along u onto the circle (M2, rho2, unit normal n2): the real
    parts of the roots (companion_roots) of the quartic in tan(theta / 2)
    of |L(y - M2)| = rho2 <u, n2>, L(v) = <u, n2> v - <v, n2> u.
    theta = pi, its root at infinity, is not among them."""
    M, rho, _, p, q = circle
    un = _dot(U, n2)
    L0, Lp, Lq = (un[:, None] * v - _dot(v, n2)[..., None] * U for v in (M - M2, rho * p, rho * q))
    pp, qq, b2 = _dot(Lp, Lp), _dot(Lq, Lq), _dot(Lp, Lq)
    # the harmonics a0 + a1 cos + b1 sin + a2 cos 2 theta + b2 sin 2 theta
    a0 = _dot(L0, L0) + 0.5 * (pp + qq) - (rho2 * un) ** 2
    a1, b1, a2 = 2.0 * _dot(L0, Lp), 2.0 * _dot(L0, Lq), 0.5 * (pp - qq)
    C = np.stack([a0 - a1 + a2, 2.0 * b1 - 4.0 * b2, 2.0 * a0 - 6.0 * a2,
                  2.0 * b1 + 4.0 * b2, a0 + a1 + a2], axis=1)
    return 2.0 * np.arctan(companion_roots(C).real)


def _entry_candidates(c, r, U, E, circles):
    """Candidate points (m, K, 3) of each row, and masks (K, n) of the balls
    on whose rim (depth 0) or sphere (depth |<y - c_i, u>|) each one lies."""
    m, n, blocks = len(U), len(c), []

    def add(Y, rim=(), sphere=()):
        known = np.array([[i in balls for i in range(n)] for balls in (rim, sphere)])
        blocks.append((Y, *np.broadcast_to(known[:, None], (2, Y.shape[1], n))))

    # each rim's extremes along both axes, and where two rims meet
    for i in range(n):
        add(c[i] + r[i] * np.concatenate([E, -E], axis=1), rim=(i,))
    for i, j in itertools.combinations(range(n), 2):
        D = (c[j] - c[i]) - _dot(U, c[j] - c[i])[:, None] * U
        dd = _dot(D, D)
        a = (dd + r[i] ** 2 - r[j] ** 2) / (2.0 * dd)
        b = np.sqrt(np.clip(r[i] ** 2 / dd - a * a, 0.0, None))[:, None, None]
        add(c[i] + a[:, None, None] * D[:, None] + [[1.0], [-1.0]] * b * np.cross(U, D)[:, None],
            rim=(i, j))
    for ab, *circle in circles:
        M, rho, _, p, q = circle
        # its extremes, theta = pi, where it touches its own rims, and where
        # it meets the next ball's sphere, as its curve meets the next curve
        theta = [np.arctan2(np.einsum("med,d->me", E, q), np.einsum("med,d->me", E, p))]
        theta += [theta[0] + math.pi, np.full((m, 1), math.pi)]
        theta += [_cos_sin_roots(rho * _dot(U, p), rho * _dot(U, q), -_dot(U, M - c[l]))
                  for l in ab]
        for l in (cd[1] for cd, *_ in circles if cd[0] == ab[1]):
            w = M - c[l]
            on_sphere = _cos_sin_roots(2.0 * rho * (w @ p), 2.0 * rho * (w @ q),
                                       r[l] ** 2 - w @ w - rho ** 2)
            theta.append(np.broadcast_to(on_sphere, (m, 2)))
        # where it meets every other rim, and every circle sharing no ball
        meets = [_projected_meets(circle, U, c[o], r[o], U) for o in range(n) if o not in ab]
        meets += [_projected_meets(circle, U, *other[:3])
                  for cd, *other in circles if not set(ab) & set(cd)]
        for angles, sphere in ((theta, ab), ([np.zeros((m, 0)), *meets], ())):
            angles = np.concatenate(angles, axis=1)
            add(M + rho * (np.cos(angles)[..., None] * p + np.sin(angles)[..., None] * q),
                sphere=sphere)
    Y, rim, sphere = zip(*blocks)
    return np.concatenate(Y, axis=1), np.concatenate(rim), np.concatenate(sphere)


def _entry_witnesses(scene: Scene, U: np.ndarray, order: Sequence[int]):
    """(feasible mask, witness points (m, 3), NaN where infeasible): a row is
    feasible when a candidate lies within the band of every disk with every
    entry gap >= -band; its witness is on that candidate's line.  Depths
    known by construction are read as such: sqrt(r^2 - d^2) turns roundoff
    near a rim into its square root.  Quartic coefficients are fourth powers
    of length, so the work runs at an exact power-of-two rescale."""
    U = _unit_rows(U)
    order = list(order)
    c, r, shift, scale = _unit_scale(scene.centers, scene.radii)
    band = np.ldexp(scene.band, -scale)
    circles = [(ab, *circle) for ab in zip(order, order[1:])
               if (circle := _sphere_circle(c[list(ab)], r[list(ab)], band)) is not None]
    ok, witness = np.zeros(len(U), dtype=bool), np.full(U.shape, np.nan)
    count = len(_entry_candidates(c, r, U[:0], np.zeros((0, 2, 3)), circles)[1])
    step = max(1, _ENTRY_CHUNK // (count * len(c)))
    for lo in range(0, len(U), step):
        u = U[lo:lo + step]
        E = _frames(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            Y, rim, sphere = _entry_candidates(c, r, u, E, circles)
            k = np.einsum("nd,md->mn", c, u)
            h = _dot(Y, u[:, None, :])[:, :, None] - k[:, None, :]
            X, C2 = np.einsum("mkd,med->mke", Y, E), np.einsum("nd,med->mne", c, E)
            d2 = np.sum((X[:, :, None, :] - C2[:, None, :, :]) ** 2, axis=3)
            root = np.sqrt(np.clip(r * r - d2, 0.0, None))
            s = np.where(rim, 0.0, np.where(sphere, np.abs(h), root))
            gaps = np.min(np.diff((k[:, None, :] - s)[:, :, order], axis=2), axis=2, initial=np.inf)
            good = np.all(d2 <= (r + band) ** 2, axis=2) & (gaps >= -band)
        rows, first = np.arange(len(u)), np.argmax(good, axis=1)
        ok[lo:lo + step] = good[rows, first]
        witness[lo:lo + step] = np.where(good[rows, first, None], Y[rows, first], np.nan)
    return ok, np.ldexp(witness, scale) + shift


def entry_order_feasible(scene: Scene, U: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Per direction row: does some transversal meet the balls in this entry
    order, up to the scene's band?  See _entry_witnesses.  SceneError unless
    the scene is in R^3 and the order is a permutation of its balls."""
    return _entry_witnesses(scene, U, _check_order(scene, order, "entry"))[0]


# ---------------------------------------------------------------------------
# Convexity certification by geodesic midpoints.
# ---------------------------------------------------------------------------


def cone_convexity_check(
    scene: Scene,
    order: Sequence[int],
    pairs: int = 1000,
    seed: int = 0,
    lattice: int = 4096,
    order_semantics: str = "center",
) -> dict:
    """Sample feasible direction pairs of the cone of ``order`` and test
    their geodesic midpoints.

    For a strictly convex cone every midpoint of feasible directions is
    feasible; near-boundary pairs additionally get strictly interior
    midpoints, which the min midpoint margin tracks.  Fewer than two
    feasible samples make the check inconclusive.

    Returns the report's verdicts: ``tested_pairs``, ``violation_count``
    and the first REPORTED_VIOLATIONS ``violations`` (u, v, midpoint, slack,
    order_mismatch), ``min_midpoint_margin``, ``feasible_samples``,
    ``inconclusive``, and ``pass`` when conclusive without a violation.

    ``order_semantics`` chooses how the meeting order of a direction is
    decided: "center" (projections of centers; the library default) or
    "entry" (first boundary crossing of some transversal).  The two agree
    on disjoint scenes; only entry-order cones lose convexity when balls
    overlap.  Entry semantics needs a scene in R^3, and ``order`` must be a
    permutation of the balls (SceneError otherwise, before any sampling).
    """
    order = _check_order(scene, order, order_semantics)
    sset = sample_scene(scene, lattice, seed=seed)
    mask = sset.feasible_for_order(order, order_semantics)
    F, fslacks = sset.directions[mask], sset.slacks[mask]
    if len(F) < 2:
        return {"tested_pairs": 0, "violations": [], "violation_count": 0,
                "min_midpoint_margin": None, "feasible_samples": len(F),
                "inconclusive": True, "pass": False}

    rng = np.random.default_rng(seed + 1)
    ii = rng.integers(0, len(F), size=pairs)
    jj = rng.integers(0, len(F), size=pairs)

    # bias one third of the pairs toward the boundary (largest slack) to
    # exercise strictness where it is tightest, and one third toward LOCAL
    # boundary pairs whose midpoints hug the boundary arc; local pairs are
    # what detect a concave dimple
    k_bd = max(2, len(F) // 5)
    boundary_idx = np.argsort(fslacks)[-k_bd:]
    nb = pairs // 3
    ii[:nb] = boundary_idx[rng.integers(0, k_bd, size=nb)]
    jj[:nb] = boundary_idx[rng.integers(0, k_bd, size=nb)]
    spacing = lattice_spacing(scene.dimension, lattice)
    cos_lo = math.cos(min(14.0 * spacing, math.pi * 0.9))
    cos_hi = math.cos(min(1.5 * spacing, math.pi * 0.5))
    B = F[boundary_idx]
    dots = np.clip(B @ B.T, -1.0, 1.0)
    for slot in range(nb, min(2 * nb, pairs)):
        a = int(rng.integers(0, k_bd))
        near = np.nonzero((dots[a] >= cos_lo) & (dots[a] <= cos_hi))[0]
        b = int(near[rng.integers(0, len(near))]) if len(near) else int(rng.integers(0, k_bd))
        ii[slot] = boundary_idx[a]
        jj[slot] = boundary_idx[b]
    bad = ii == jj
    jj = np.where(bad, (jj + 1) % len(F), jj)

    u, v = F[ii], F[jj]
    mids = u + v
    norms = np.linalg.norm(mids, axis=1)
    good = norms > 1e-9  # angular distance < pi, guaranteed for one convex cone
    mids = mids[good] / norms[good, None]
    u, v = u[good], v[good]

    mset = evaluate_directions(scene, mids)
    slacks = mset.slacks
    bad_idx = np.nonzero(~mset.feasible_for_order(order, order_semantics))[0]
    meet = mset.meets[bad_idx]  # the disks share a point: the order failed

    violations = [
        {"u": u[m].tolist(), "v": v[m].tolist(), "midpoint": mids[m].tolist(),
         "slack": float(slacks[m]), "order_mismatch": bool(order_failed)}
        for m, order_failed in zip(bad_idx[:REPORTED_VIOLATIONS], meet)
    ]
    return {"tested_pairs": len(mids), "violations": violations,
            "violation_count": len(bad_idx),
            "min_midpoint_margin": float(np.min(-slacks)) if len(slacks) else None,
            "feasible_samples": len(F), "inconclusive": False, "pass": not len(bad_idx)}


# ---------------------------------------------------------------------------
# Geometric permutations and components.
# ---------------------------------------------------------------------------


def enumerate_geometric_permutations(sset: ConeSampleSet) -> dict:
    """Catalog of the geometric permutations of ``sset.scene`` discovered by
    its direction sample ``sset``.

    Orderings are identified with their reversals; each entry keeps the
    deepest-slack witness direction.  Cones thinner than the sampling
    density can be missed, which is reported through the sample counts.
    Returns the report's verdicts: the ``count`` and the ``permutations``
    in order of discovery, each with its ``witness`` direction,
    ``witness_order``, ``witness_slack`` and ``sample_count``.
    """
    merged = {}
    for order, rows in sset.cones():
        perm = min(order, order[::-1])
        merged[perm] = np.sort(np.concatenate([merged.get(perm, rows[:0]), rows]))
    permutations = []
    for perm, rows in sorted(merged.items(), key=lambda item: item[1][0]):  # by first sample
        m = rows[np.argmin(sset.slacks[rows])]  # the first deepest
        permutations.append({
            "permutation": list(perm), "witness": sset.directions[m].tolist(),
            "witness_order": sset.orders[m].tolist(), "witness_slack": float(sset.slacks[m]),
            "sample_count": len(rows)})
    return {"count": len(permutations), "permutations": permutations}


# candidate pairs _close_pairs tests at a time (plus at most one row's run),
# which bounds its memory however crowded a cell is
_PAIR_BATCH = 1 << 16


def _close_pairs(points: np.ndarray, chord: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of rows of ``points`` at Euclidean distance
    <= chord, each unordered pair once.

    A pair is close when its squared differences, summed in coordinate
    order, are at most chord^2 and its differences on the coordinate w of
    widest spread and on w + 1 are at most chord.  Those two screens can only
    fail where the sum is chord^2 to the bit, so only such batches read
    them.  A fixed-radius cell grid (Bentley, Stanat and Williams 1977) finds
    the pairs: rows are bucketed into cubes of side h >= chord / 2 over the k
    coordinates of widest spread, so close rows are at most two cells apart
    on each axis.  k is the largest count up to min(d - 1, 5), and at least
    1, with 5^(k-1) <= n: rows on S^{d-1} with one sign per line, as
    count_components passes them, are a graph over d - 1 coordinates, where
    one more axis splits few cells.  The first axis has stride 1 in the cell
    key, so the five cells around a row in its column (the cells that share
    the other k - 1 coordinates) are one run of sorted rows: each row is
    tested against the later rows of its own column's run and against the
    run of each of its (5^(k-1) - 1) / 2 half-neighbour columns, which never
    outnumber the rows.  h is at least 2^-30 times the widest spread, so
    roundoff moves a row by under 2^-21 of a cell.
    """
    n, d = points.shape
    none = np.zeros(0, dtype=np.int64)
    if n < 2:
        return none, none
    cols = np.ascontiguousarray(points.T)  # fast reductions along each coordinate
    spread = np.ptp(cols, axis=1)
    w = int(np.argmax(spread))
    k = 1
    while k < min(d - 1, 5) and 5 ** k <= n:
        k += 1
    # 2^-490 keeps a cell wider than any difference whose square underflows
    h = max(chord * (0.5 + 2.0 ** -20), float(spread[w]) * 2.0 ** -30, 2.0 ** -490)
    key, strides = _cell_keys(points, h, np.argsort(-spread, kind="stable")[:k])
    order = np.argsort(key)  # the order within a cell moves no pair
    key = key[order]
    cols = cols.take(order, axis=1)
    starts = np.append(np.flatnonzero(np.diff(key, prepend=-1)), n)  # each cell's first row, then n
    cells = key[starts[:-1]]
    cell_of = np.repeat(np.arange(len(cells)), np.diff(starts))
    c2 = chord * chord
    firsts, seconds = [none], [none]
    for digits in itertools.product(range(-2, 3), repeat=len(strides) - 1):
        if next((x for x in digits if x), 1) < 0:
            continue  # the opposite column visits these cell pairs
        column = cells + sum(x * s for x, s in zip(digits, strides[1:]))
        # the run of the column's cells two before to two after each cell
        hi = starts[np.searchsorted(cells, column + 2, side="right")][cell_of]
        if any(digits):
            lo = starts[np.searchsorted(cells, column - 2)][cell_of]
        else:
            lo = np.arange(1, n + 1)  # in its own column, each pair once
        i = np.flatnonzero(hi > lo)
        for a, b in _row_ranges(i, lo[i], hi[i] - lo[i]):
            dist_sq = sum((cols[c].take(b) - cols[c].take(a)) ** 2 for c in range(d))
            keep = dist_sq <= c2
            if np.any(dist_sq == c2):
                for c in (w, (w + 1) % d):
                    keep &= (dist_sq < c2) | (np.abs(cols[c].take(b) - cols[c].take(a)) <= chord)
            a, b = order[a[keep]], order[b[keep]]
            firsts.append(np.minimum(a, b))
            seconds.append(np.maximum(a, b))
    return np.concatenate(firsts), np.concatenate(seconds)


def _cell_keys(points: np.ndarray, h: float, axes: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Mixed-radix key of the cube of side h holding each row, over the given
    axes in turn, and each used axis' stride.  Cell indices start at 2 and
    the radix leaves two spare cells on each side, so offsets from -2 to +2
    never wrap; an axis joins only while the keys fit in int64."""
    key, stride, strides = np.zeros(len(points), dtype=np.int64), 1, []
    for a in axes:
        cell = np.floor((points[:, a] - points[:, a].min()) / h).astype(np.int64) + 2
        extent = int(cell.max()) + 3
        if stride * extent > 2 ** 62:
            break
        key += stride * cell
        strides.append(stride)
        stride *= extent
    return key, strides


def _row_ranges(rows: np.ndarray, lo: np.ndarray, m: np.ndarray):
    """Yield index pairs (a, b), b over [lo[k], lo[k] + m[k]) for a = rows[k],
    in batches of at most _PAIR_BATCH pairs or one row."""
    ends = np.cumsum(m)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_PAIR_BATCH, total, _PAIR_BATCH), side="right")
    for r0, r1 in zip([0, *cuts], [*cuts, len(rows)]):
        mm = m[r0:r1]
        size = int(mm.sum())
        if size:
            b = np.repeat(lo[r0:r1] - (np.cumsum(mm) - mm), mm) + np.arange(size)
            yield np.repeat(rows[r0:r1], mm), b


def _component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label of each of n nodes, equal within each connected component of
    the graph with edges (a[k], b[k]), a[k] < b[k]: the component's smallest
    node.

    Each label points to a root.  Every edge hooks the root of its larger
    end under the root of its smaller one (the smallest offer wins), then
    labels jump to their roots; the edges that still join two roots go
    round again.
    """
    labels = np.arange(n)
    while len(a):
        np.minimum.at(labels, b, a)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        a, b = labels[a], labels[b]
        joins = a != b
        a, b = np.minimum(a[joins], b[joins]), np.maximum(a[joins], b[joins])
    return labels


def count_components(sset: ConeSampleSet) -> dict:
    """Count connected clusters of the line directions of the feasible samples
    of ``sset``.

    Lines are unoriented, so u and -u are one line direction, and two samples
    are neighbours when min(|u - v|, |u + v|) is at most the chord of
    NEIGHBOUR_SPACINGS lattice spacings: a graph that reads no ball label.
    Its edges come from a fixed-radius cell grid (_close_pairs) over one
    representative per sample, flipped to u_w >= 0 on the seam axis w, the
    coordinate with the fewest samples within the chord of 0, plus a negated
    copy of each sample within the chord of that seam; pairs found through a
    copy are mapped back to their samples and counted once.
    ``neighbour_pairs`` counts the edges, and ``cluster_sizes`` (in
    decreasing order) counts each feasible sample once.  For disjoint scenes
    the count must equal the number of geometric permutations.  Returns the
    report's verdicts: the ``count``, the ``cluster_sizes``, the
    ``angular_radius``, ``undersampled`` (a cluster of fewer than 10
    samples), ``feasible_samples`` and ``neighbour_pairs``.
    """
    dirs = sset.directions[sset.feasible]
    n = len(dirs)
    if n == 0:
        return {"count": 0, "cluster_sizes": [], "angular_radius": 0.0, "undersampled": False,
                "feasible_samples": 0, "neighbour_pairs": 0}
    theta = NEIGHBOUR_SPACINGS * lattice_spacing(sset.scene.dimension, len(sset.directions))
    chord = 2.0 * math.sin(min(theta, math.pi) / 2.0)
    w = int(np.argmin(np.count_nonzero(np.abs(dirs) <= chord, axis=0)))
    reps = np.where((dirs[:, w] < 0.0)[:, None], -dirs, dirs)
    # a pair through a copy has |u_w + v_w| <= chord, so both rows lie in the
    # seam; the margin covers the roundoff of that sum
    seam = np.flatnonzero(reps[:, w] <= chord * (1.0 + 2.0 ** -20))
    a, b = _close_pairs(np.vstack([reps, -reps[seam]]), chord)
    if len(seam):
        # each pair of rows once: a pair with one copy is found from both of
        # its rows, a pair of copies repeats the pair of their rows, and a row
        # is not its own neighbour
        row = np.concatenate([np.arange(n), seam])
        ra, rb = row[a], row[b]
        key = np.unique(np.minimum(ra, rb) * n + np.maximum(ra, rb))
        a, b = np.divmod(key[key // n != key % n], n)
    labels = _component_labels(n, a, b)
    counts = np.bincount(labels)
    sizes = sorted(counts[counts > 0].tolist(), reverse=True)
    return {"count": len(sizes), "cluster_sizes": sizes, "angular_radius": theta,
            "undersampled": any(s < 10 for s in sizes), "feasible_samples": n,
            "neighbour_pairs": len(a)}


# ---------------------------------------------------------------------------
# Boundary direction location (shared with the flex probe).
# ---------------------------------------------------------------------------


# the curve of each column of a ray's candidate exits: six sextic roots, then
# two roots per pair-cone conic and two per pair of tie-band edges
_EXIT_CURVES = np.array(["sextic"] * 6 + [f"{kind} {pair}" for kind in ("conic", "tie")
                                          for pair in ("01", "01", "02", "02", "12", "12")])


def _geodesic_point(anchor: np.ndarray, tangent: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return np.cos(theta)[..., None] * anchor + np.sin(theta)[..., None] * tangent


def _level_roots(phi: np.ndarray, level_sq, sine_sq) -> np.ndarray:
    """The two theta in [0, pi) per column where (u . D)^2 = level_sq on each
    ray, for u . D = rho cos(theta - phi) and sine_sq = rho^2 - level_sq; NaN
    where either is negative, as u . D never reaches the level there."""
    with np.errstate(invalid="ignore"):
        alpha = np.arctan2(np.sqrt(sine_sq), np.sqrt(level_sq))
    return np.mod(np.stack([phi - alpha, phi + alpha], axis=-1), math.pi).reshape(len(phi), -1)


def _cone_rays(triple: Triple, count: int):
    """The rays cos(theta) a + sin(theta) t of boundary_directions_for_triple,
    every cone's in one batch, so that a triple makes one sextic-root call
    and one kernel call, prefiltered by the pair bound: the lattice's cone
    orders (ConeSampleSet.cones), each cone's anchor a (c, 3), its first
    deepest row, and per ray its cone's index (m,) and unit tangent t (m, 3),
    cone by cone.  Every cone has k > 0 of the ``count`` rays."""
    sset = sample_scene(triple.scene, BOUNDARY_LATTICE)
    catalogue = sset.cones()[:count]
    cones = [order for order, _ in catalogue]
    anchors, tangents = np.zeros((len(cones), 3)), [np.zeros((0, 3))]
    sizes = [count // len(cones) + (k < count % len(cones)) for k in range(len(cones))]
    for k, ((_, rows), n_rays) in enumerate(zip(catalogue, sizes)):
        anchors[k] = sset.directions[rows[np.argmin(sset.slacks[rows])]]
        basis = orthonormal_basis_of_complement(anchors[k])
        phis = 2.0 * math.pi * (np.arange(n_rays) + 0.5) / n_rays
        tangents.append(np.cos(phis)[:, None] * basis[0] + np.sin(phis)[:, None] * basis[1])
    return cones, anchors, np.repeat(np.arange(len(cones)), sizes), np.concatenate(tangents)


def _boundary_exits(triple: Triple, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary directions (k, 3) of boundary_directions_for_triple and the
    curve each lies on: "sextic", "conic ij" or "tie ij"."""
    triple = float_safe_triple(triple)[0]
    scene = triple.scene
    band = scene.band
    # slack <= band is slack <= 0 at radii r + band, so the inflated curves
    # hold the exits of the feasibility predicate itself
    R = scene.radii + band
    i, j = np.triu_indices(3, 1)
    D = scene.centers[j] - scene.centers[i]
    DD, S = np.einsum("pd,pd->p", D, D), R[i] + R[j]
    cones, anchors, cone, tangents = _cone_rays(triple, count)
    n_rays = len(tangents)
    if not n_rays:
        return np.zeros((0, 3)), _EXIT_CURVES[:0]
    anchor = anchors[cone]
    # D @ a one cone at a time: one BLAS product of every anchor could round otherwise
    aD = np.stack([D @ a for a in anchors])[cone]
    tD = _dot(tangents[:, None], D)
    nD = _dot(np.cross(anchor, tangents)[:, None], D)
    phi = np.arctan2(tD, aD)
    cand = np.concatenate([
        sigma_roots_on_rays(triple, R * R, anchor, tangents),
        _level_roots(phi, DD - S * S, S * S - nD * nD),
        _level_roots(phi, band * band, aD * aD + tD * tD - band * band),
    ], axis=1)
    by = np.argsort(cand, axis=1)  # NaN last
    cand = np.take_along_axis(cand, by, axis=1)
    edges = np.column_stack([np.zeros(n_rays), np.where(np.isnan(cand), math.pi, cand),
                             np.full(n_rays, math.pi)])
    # feasibility is constant between consecutive candidates: one prefiltered
    # kernel call decides the midpoints of every ray's non-empty intervals,
    # and each cone reads its own rows of it
    lo, hi = edges[:, :-1], edges[:, 1:]
    ok = np.ones(lo.shape, dtype=bool)
    span = hi > lo
    ray = np.nonzero(span)[0]
    sset = _evaluate(scene, _geodesic_point(anchor[ray], tangents[ray], 0.5 * (lo + hi)[span]),
                     prefilter=True)
    feasible = np.zeros(len(ray), dtype=bool)
    for k, order in enumerate(cones):
        mine = cone[ray] == k
        feasible[mine] = sset.feasible_for_order(order)[mine]
    ok[span] = feasible
    first = np.argmax(~ok, axis=1)
    if np.any(first == 0):
        bad = int(np.argmin(first))
        k = int(cone[bad])
        raise SolverError(f"boundary ray {bad - int(np.searchsorted(cone, k))} of cone "
                          f"{cones[k]} has no exit from a feasible interval in (0, pi)")
    rays = np.arange(n_rays)
    pts = _geodesic_point(anchor, tangents, lo[rays, first])
    return _unit_rows(pts), _EXIT_CURVES[by[rays, first - 1]]


def boundary_directions_for_triple(triple: Triple, count: int) -> np.ndarray:
    """``count`` directions (count, 3) on the cone boundaries of a triple.

    Every cone the BOUNDARY_LATTICE lattice finds gets an even share of geodesic rays
    cos(theta) a + sin(theta) t from its deepest lattice direction a.  The
    cone is strictly convex, and -a has the reversed order, so each ray
    leaves it exactly once in (0, pi), at a root of the sextic, of a
    pair-cone conic or of a tie-band edge, all at radii r + band.  The
    conic and tie roots are closed forms and the sextic's come from its
    companion matrix, for every ray of every cone at once.  One kernel call
    per triple, prefiltered by the pair bound as in sample_scene, decides a
    midpoint of every interval between consecutive roots, each cone reading
    its own rows through ConeSampleSet.feasible_for_order, and a ray's exit
    is the left end of its first infeasible interval.  A ray without one
    raises SolverError, naming its index within its cone;
    no feasible lattice direction gives an empty array.  The work runs at
    sextic.float_safe_triple's scale, so every 2^k copy of a triple gives
    the same directions bit for bit.
    """
    return _boundary_exits(triple, count)[0]


# ---------------------------------------------------------------------------
# Boundary classification against the triangle of centers.
# ---------------------------------------------------------------------------


def sextic_ray_directions(triple: Triple, count: int) -> tuple[np.ndarray, int]:
    """Unit directions (k, 3) of every real root of the sextic, at the
    triple's own radii, along the ``count`` rays of
    boundary_directions_for_triple, ray by ray in increasing theta; and the
    number of rays cast, 0 when no lattice direction is feasible.

    A root where a ray leaves its cone is a boundary direction and the
    ray's other roots lie off the boundary, so the roots test both sides of
    the boundary criterion.  Like boundary_directions_for_triple, it works
    at sextic.float_safe_triple's scale."""
    triple = float_safe_triple(triple)[0]
    _, anchors, cone, tangents = _cone_rays(triple, count)
    anchor = anchors[cone]
    theta = np.sort(sigma_roots_on_rays(triple, triple.squared_radii, anchor, tangents), axis=1)
    ray, root = np.nonzero(~np.isnan(theta))
    return _unit_rows(_geodesic_point(anchor[ray], tangents[ray], theta[ray, root])), len(tangents)


def classify_boundary_direction(triple: Triple, U) -> list[dict]:
    """Classify sextic directions, the rows of U (m, 3): cone boundary vs
    interior, one dict per row.  The rows are scaled to unit length
    (_unit_rows), so a zero or non-finite row raises SolverError.

    ``on_boundary`` reads the disk-minimax slack, one kernel call for all
    rows.  A sextic direction's three circles share a point, which all
    three closed disks contain, so its slack is <= 0 in exact arithmetic;
    the direction is on the cone boundary iff |slack| <= 2 * the scene's
    band, which keeps the boundary exits (slack = band, at radii r + band)
    strictly inside the test.  ``crosses_triangle`` independently
    intersects each recovered tangent line, through its foot point along
    u, with the plane of centers and tests barycentric containment in the
    triangle of centers; the two must agree on disjoint balls.  When no
    tangent line decides ``crosses_triangle``, ``tag`` says why, and
    collinear centers decide none of them.  A row off the sextic gets only
    ``error``, the reason tangent_lines_for_direction gives for it, whose
    one batch recovers every row's tangent lines.  The work runs at
    sextic.float_safe_triple's scale, where the plane of centers' normal and
    Gram matrix neither overflow nor underflow, and each slack is scaled
    back exactly, so every 2^k copy of a triple gets the same answers.
    """
    U = _unit_rows(np.reshape(U, (-1, 3)))
    triple, shift = float_safe_triple(triple)
    if triple.collinear_centers:
        return [{"on_boundary": None, "crosses_triangle": None, "slack": None,
                 "tag": "collinear centers: no triangle"} for _ in U]
    scene, c0 = triple.scene, triple.centers[0]
    edges = triple.centers[1:] - c0
    normal = np.cross(edges[0], edges[1])
    normal /= np.linalg.norm(normal)
    feet, errors = tangent_lines_for_direction(triple, U)
    found = ~np.isnan(feet[:, :, 0])
    count = found.sum(axis=1)
    denom = np.einsum("md,d->m", U, normal)
    off = np.einsum("mkd,d->mk", c0 - feet, normal)
    # a direction within TRACE_TOL of the plane of centers counts as
    # parallel to it: neither an explicit direction nor a root along a ray
    # is known closer, so its tangent lines may lie in the plane
    row, foot = np.nonzero(found & (np.abs(denom) > TRACE_TOL)[:, None])
    # barycentrics (1 - l1 - l2, l1, l2) of each line's plane crossing, all
    # feet in one solve against the fixed Gram matrix of the edges
    hits = feet[row, foot] + (off[row, foot] / denom[row])[:, None] * U[row] - c0
    lam = np.linalg.solve(edges @ edges.T, np.einsum("jd,fd->jf", edges, hits))
    inside = np.zeros(feet.shape[:2], dtype=bool)
    inside[row, foot] = np.all(lam >= -1e-9, axis=0) & (1.0 - lam.sum(axis=0) >= -1e-9)
    results = []
    for i, slack in enumerate(minimax_slack_batch(scene.centers, scene.radii, U).tolist()):
        if errors[i] is not None:
            results.append({"error": errors[i]})
            continue
        crosses, tag = None, "no real tangent line"
        if count[i] and abs(denom[i]) <= TRACE_TOL:
            tag = ("tangent inside plane of centers" if abs(off[i, count[i] - 1]) < scene.band
                   else "tangent parallel to plane of centers")
        elif count[i]:
            crosses, tag = bool(np.any(inside[i])), None
        results.append({"on_boundary": bool(abs(slack) <= 2.0 * scene.band),
                        "crosses_triangle": crosses, "slack": math.ldexp(slack, -shift),
                        "tag": tag})
    return results
