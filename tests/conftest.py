import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from linestab import cone
from linestab.cone import (
    boundary_directions_for_triple,
    evaluate_directions,
    minimax_weights_batch,
    realized_orders_batch,
    sample_directions,
    sample_scene,
)
from linestab.flexprobe import LiftedConfig, lifted_hessian_decomposition
from linestab.geom import (
    Scene,
    SceneError,
    _unit_rows,
    orthonormal_basis_of_complement,
    random_scene_with_transversal,
)
from linestab.sextic import Triple, float_safe_triple


def collinear_scene() -> Scene:
    return Scene([[0, 0, 0], [4, 0, 0], [8, 0, 0]], [1.0, 1.0, 1.0])


def moved_scene(scene: Scene, perm=None, rotation=None, scale=1.0, shift=0.0) -> Scene:
    """A motion of the scene, as row expressions: ball k of the result is
    ball perm[k] (a relabelling, with the meeting order permuted to match),
    with centre scale * (rotation @ c) + shift and radius scale * r.  A scale
    of 2^k makes the exact 2^k copy; without a rotation the centres are not
    multiplied by one, and each rotated row is a per-row product, not BLAS."""
    perm = np.arange(len(scene)) if perm is None else np.asarray(perm)
    centers = scene.centers[perm]
    if rotation is not None:
        centers = np.einsum("ij,nj->ni", rotation, centers)
    return Scene(scale * centers + shift, scale * scene.radii[perm],
                 allow_overlap=scene.allow_overlap)


def sample_with_directions(scene: Scene, samples: int, extra, seed: int = 0):
    """sample_scene's lattice rows followed by the rows of ``extra``, through
    the same prefiltered evaluation, which scales each row to unit length."""
    U = np.vstack([sample_directions(scene.dimension, samples, seed), extra])
    return cone._evaluate(scene, U, prefilter=True)


def random_triple(seed: int, radius_range=(0.8, 1.6)) -> Triple:
    scene, _ = random_scene_with_transversal(3, 3, radius_range, seed=seed)
    return Triple(scene)


def center_order(scene: Scene, u) -> tuple[tuple[int, ...], bool]:
    """Meeting order of the balls along one direction, and whether it is tied."""
    orders, ties = realized_orders_batch(scene, np.asarray(u, dtype=float)[None, :])
    return tuple(orders[0].tolist()), bool(ties[0])


def canonical_permutation(order) -> tuple[int, ...]:
    """The lexicographically smaller of an ordering and its reversal."""
    fwd = tuple(int(i) for i in order)
    return min(fwd, fwd[::-1])


def line_entry_parameters(point, direction, scene, band=0.0):
    """Entry parameter of the line {point + t direction} into each ball.

    Independent order oracle: smaller quadratic root per ball, or None if
    the line misses it, passing farther than radius + band from its centre;
    a line within the band of a ball touches it at the nearest point.
    """
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    out = []
    for center, radius in zip(scene.centers, scene.radii.tolist()):
        w = center - p
        tm = float(np.dot(w, d))
        dist2 = float(np.dot(w, w)) - tm * tm
        if dist2 > (radius + band) ** 2:
            out.append(None)
        else:
            out.append(tm - np.sqrt(max(radius * radius - dist2, 0.0)))
    return out


def random_overlapping_scene(n: int, seed: int) -> Scene:
    """n balls of radii in [0.8, 1.6] along a random line, each overlapping
    the one before it: consecutive centres are 0.5 to 1.0 times the sum of
    their radii apart along the line, and sit off it by up to 0.4 radius."""
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    radii = rng.uniform(0.8, 1.6, size=n)
    centers, t = [], 0.0
    for i in range(n):
        if i:
            t += rng.uniform(0.5, 1.0) * (radii[i - 1] + radii[i])
        off = rng.normal(size=3)
        off -= (off @ axis) * axis
        off *= rng.uniform(0.0, 0.4) * radii[i] / np.linalg.norm(off)
        centers.append(t * axis + off)
    return Scene(centers, radii, allow_overlap=True)


def entry_order_margin(scene, U, order, grid=400):
    """Search oracle for cone.entry_order_feasible: the best entry-order
    margin over transversals of each unit direction row.

    Positive: some transversal meets the balls in the given entry order with
    that much separation between consecutive entry times; negative: no
    sampled transversal does; -inf when none was found inside every disk up
    to 1e-12 diameter^2.  Each row tries the minimax point of its projected
    disks and a grid x grid lattice over their bounding-box intersection, one
    row at a time, then polishes its best transversal by a pattern search of
    40 rounds whose step halves down to the band.  It is one-sided: a row it
    calls feasible is feasible up to roundoff, but a thin feasible region
    between lattice points can be missed.
    """
    U = np.asarray(U, dtype=float).reshape(-1, 3)
    order = list(order)
    centers, radii = scene.centers, scene.radii
    r2 = radii ** 2
    r2_in = r2 + 1e-12 * scene.diameter ** 2
    W = minimax_weights_batch(centers, radii, U)
    m = len(U)
    result, x = np.full(m, -np.inf), np.zeros((m, 2))
    C2, keys = np.zeros((m, len(scene), 2)), U @ centers.T
    for k, u in enumerate(U):
        C2[k] = centers @ orthonormal_basis_of_complement(u).T
        lo = np.max(C2[k] - radii[:, None], axis=0)
        hi = np.min(C2[k] + radii[:, None], axis=0)
        start = W[k] @ C2[k]
        d2 = np.sum((start - C2[k]) ** 2, axis=1)
        if np.all(d2 <= r2_in):
            entry = keys[k] - np.sqrt(np.clip(r2 - d2, 0.0, None))
            result[k], x[k] = np.min(np.diff(entry[order]), initial=np.inf), start
        if not np.all(lo <= hi):
            continue
        # the lattice's squared distances add one row term and one column term
        xs, ys = np.linspace(lo[0], hi[0], grid), np.linspace(lo[1], hi[1], grid)
        d2 = [(ys[:, None] - C2[k, i, 1]) ** 2 + (xs[None, :] - C2[k, i, 0]) ** 2
              for i in range(len(scene))]
        entry = [keys[k, i] - np.sqrt(np.clip(r2[i] - d2[i], 0.0, None)) for i in order]
        gaps = np.full((grid, grid), np.inf)
        for a, b in zip(entry, entry[1:]):
            gaps = np.minimum(gaps, b - a)
        inside = np.all([d2[i] <= r2_in[i] for i in range(len(scene))], axis=0)
        margins = np.where(inside, gaps, -np.inf)
        row, col = np.unravel_index(np.argmax(margins), margins.shape)
        if margins[row, col] > result[k]:
            result[k], x[k] = margins[row, col], (xs[col], ys[row])
    step = np.full(m, 0.25 * float(np.min(radii)))
    active = np.isfinite(result)
    for _ in range(40):
        if not np.any(active):
            break
        improved = np.zeros(m, dtype=bool)
        for move in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
            cand = x + step[:, None] * np.array(move)
            cd2 = np.sum((cand[:, None, :] - C2) ** 2, axis=2)
            centry = keys - np.sqrt(np.clip(r2 - cd2, 0.0, None))
            cm = np.min(np.diff(centry[:, order], axis=1), axis=1, initial=np.inf)
            better = active & np.all(cd2 <= r2_in, axis=1) & (cm > result)
            result = np.where(better, cm, result)
            x = np.where(better[:, None], cand, x)
            improved |= better
        halve = active & ~improved
        step = np.where(halve, 0.5 * step, step)
        active &= ~(halve & (step < scene.band))
    return result


def simplex_minimax(centers, radii, starts=8):
    """Independent high-accuracy oracle for min_x max_i (|x - c_i| - r_i):
    multi-start downhill simplex."""
    from scipy.optimize import minimize

    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)

    def f(x):
        return float(np.max(np.linalg.norm(centers - x, axis=1) - radii))

    best = math.inf
    rng = np.random.default_rng(1234)
    inits = [centers.mean(axis=0)] + [
        rng.uniform(centers.min(axis=0), centers.max(axis=0)) for _ in range(starts)
    ]
    for x0 in inits:
        m = minimize(
            f, x0, method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-14, "maxiter": 8000},
        )
        best = min(best, float(m.fun))
    return best


def enumerate_minimax(centers, radii, U):
    """Exhaustive oracle for the projected-disk minimax slack of direction rows.

    Every support of at most d disks yields the points y + p_0 of its affine
    hull at which |x - p_i| - r_i takes one value t over the support: with
    edges E = p_i - p_0, y = pinv(E) (b0 - t b1) solves the support's linear
    equations, and |y| = r_0 + t gives two roots.  Each candidate is evaluated
    over all disks in explicit projected coordinates P = c - (c.u)u; the
    smallest max is the slack.  Rows must be unit vectors.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    U = np.asarray(U, dtype=float)
    centers = centers - centers.mean(axis=0)
    P = centers[None, :, :] - (U @ centers.T)[:, :, None] * U[:, None, :]
    n, d = centers.shape

    def value(x):
        return np.max(np.linalg.norm(P - x[:, None, :], axis=2) - radii, axis=1)

    best = np.full(len(U), np.inf)
    for k in range(1, min(n, d) + 1):
        for support in itertools.combinations(range(n), k):
            p0, r0 = P[:, support[0]], radii[support[0]]
            if k == 1:
                best = np.minimum(best, value(p0))
                continue
            E = P[:, support[1:]] - p0[:, None, :]
            rs = radii[list(support[1:])]
            b0 = 0.5 * (np.einsum("mkd,mkd->mk", E, E) - rs ** 2 + r0 ** 2)
            b1 = np.broadcast_to(rs - r0, b0.shape)
            pinv = np.linalg.pinv(E)
            y0 = np.einsum("mdk,mk->md", pinv, b0)
            y1 = np.einsum("mdk,mk->md", pinv, b1)
            qa = np.einsum("md,md->m", y1, y1) - 1.0
            qb = -2.0 * (np.einsum("md,md->m", y0, y1) + r0)
            qc = np.einsum("md,md->m", y0, y0) - r0 ** 2
            with np.errstate(divide="ignore", invalid="ignore"):
                sq = np.sqrt(qb * qb - 4.0 * qa * qc)
                for t in ((-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa), -qc / qb):
                    ok = np.isfinite(t)
                    x = p0 + y0 - np.where(ok, t, 0.0)[:, None] * y1
                    best = np.where(ok, np.minimum(best, value(x)), best)
    return best


def bisected_boundary_directions(triple, count, lattice=4096):
    """Bisection oracle for cone.boundary_directions_for_triple.

    The same lattice, anchors and rays; each ray is marched in 0.02 rad
    steps to its first infeasible point, and the crossing is bisected a
    fixed 45 times, down to a bracket of 0.02 * 2**-45, about 6e-16 rad,
    whose midpoint is returned.  Rays that never leave their cone are
    dropped.
    """
    scene = triple.scene
    sset = sample_scene(scene, lattice)
    feas = sset.feasible
    cones = sorted({tuple(int(i) for i in sset.orders[m]) for m in np.nonzero(feas)[0]})
    out = [np.zeros((0, 3))]
    for k, order in enumerate(cones):
        n_rays = count // len(cones) + (k < count % len(cones))
        idx = np.nonzero(sset.feasible_for_order(order))[0]
        anchor = sset.directions[idx[np.argmin(sset.slacks[idx])]]
        basis = orthonormal_basis_of_complement(anchor)
        phis = 2.0 * math.pi * (np.arange(n_rays) + 0.5) / n_rays
        tangents = np.cos(phis)[:, None] * basis[0] + np.sin(phis)[:, None] * basis[1]

        def feasible(tg, theta):
            U = np.cos(theta)[:, None] * anchor + np.sin(theta)[:, None] * tg
            return evaluate_directions(scene, U).feasible_for_order(order)

        lo, hi, alive = np.zeros(n_rays), np.full(n_rays, np.nan), np.ones(n_rays, dtype=bool)
        theta = 0.0
        while theta < math.pi - 1e-3 and np.any(alive):
            theta += 0.02
            ok = feasible(tangents, np.full(n_rays, theta))
            hi[alive & ~ok] = theta
            lo[alive & ok] = theta
            alive &= ok
        found = ~np.isnan(hi)
        lo, hi, tangents = lo[found], hi[found], tangents[found]
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            ok = feasible(tangents, mid)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        theta = 0.5 * (lo + hi)
        out.append(np.cos(theta)[:, None] * anchor + np.sin(theta)[:, None] * tangents)
    pts = np.concatenate(out)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def poly_value(poly, u1, u2, u3):
    """Oracle: a DirectionPoly's value at (u1, u2, u3), summed term by term
    in the scalar type of its coefficients and of u."""
    total = 0
    for (i, j, k), c in poly.coeffs.items():
        total = total + c * u1 ** i * u2 ** j * u3 ** k
    return total


def _oracle_fraction(rng, height, signed=False):
    """Oracle draw of one sampled fraction: numerator, then denominator, each
    in its own scalar call, then the sign."""
    num = int(rng.integers(1, height + 1))
    den = int(rng.integers(1, height + 1))
    if signed and rng.integers(0, 2):
        num = -num
    return Fraction(num, den)


def _oracle_triangle_weights(rng, height):
    return {
        "a": _oracle_fraction(rng, height),
        "b": _oracle_fraction(rng, height, signed=True),
        "c": _oracle_fraction(rng, height),
        "p": tuple(_oracle_fraction(rng, height) for _ in range(3)),
    }


def _oracle_full(rng, height):
    out = _oracle_triangle_weights(rng, height)
    out["x"] = tuple(_oracle_fraction(rng, height, signed=True) for _ in range(3))
    return out


def _oracle_q_triangle(rng, height):
    while True:
        q = tuple(_oracle_fraction(rng, height) for _ in range(3))
        qs = sorted(q)
        if qs[0] + qs[1] > qs[2]:
            return {"q": q}


# Oracle: each identity's sampler with one rng call per drawn value, the
# stream that verify-identities' reports are pinned to.
ORACLE_SAMPLERS = {
    "master-hessian-decomposition": _oracle_full,
    "area-q-lemma": _oracle_triangle_weights,
    "gram-solution": _oracle_triangle_weights,
    "beta-product-sum": _oracle_q_triangle,
    "vertex-factorization": _oracle_q_triangle,
    "symmetric-plane-value": lambda rng, height: {"q": _oracle_fraction(rng, height)},
}


def eval_hessian_sigma(triple, u) -> float:
    """Determinant of the matrix of second partials of the sextic at u,
    from its coefficient expansion differentiated coefficientwise."""
    u = np.asarray(u, dtype=float)
    H = [[poly_value(triple.hessian_entries[a][b], *u) for b in range(3)] for a in range(3)]
    return float(np.linalg.det(np.array(H, dtype=float)))


def lifted_triple(cfg) -> Triple:
    """The ball triple a LiftedConfig of one sample parametrizes: vertex k
    raised to its lift, with radius |v_k|."""
    [c], [r] = cfg.centers, cfg.radii
    return Triple(Scene(c, r, allow_overlap=True))


def frame_of_complement(u) -> np.ndarray:
    """Oracle: the orthonormal frame (2, 3) of u^perp for one unit direction
    u, built with one-sample numpy calls: e1 is u x the axis of u's smallest
    component, at unit length, and e2 is u x e1."""
    e1 = np.cross(u, np.eye(3)[int(np.argmin(np.abs(u)))])
    e1 = e1 / np.sqrt(np.einsum("d,d->", e1, e1))
    return np.array([e1, np.cross(u, e1)])


def plane_config(vertices2, point2, lifts) -> LiftedConfig:
    """Oracle for LiftedConfig.from_plane_data on one sample: the frame
    canonicalised with one-sample numpy calls and Python floats, and the
    configuration built as a batch of one."""
    P = np.asarray(vertices2, dtype=float)
    pt = np.asarray(point2, dtype=float)
    d1 = P[1] - P[0]
    a = float(np.linalg.norm(d1))
    if a <= 0:
        raise SceneError("degenerate triangle edge")
    e1 = d1 / a
    e2 = np.array([-e1[1], e1[0]])
    d2 = P[2] - P[0]
    b = float(np.dot(d2, e1))
    c = float(np.dot(d2, e2))
    if c < 0:
        c = -c
        e2 = -e2
    if c <= 0:
        raise SceneError("collinear triangle vertices")
    rel = pt - P[0]
    px, py = float(np.dot(rel, e1)), float(np.dot(rel, e2))
    w2 = py / c
    w1 = (px - b * w2) / a
    w0 = 1.0 - w1 - w2
    if min(w0, w1, w2) <= 0:
        raise SceneError("point is not interior to the triangle")
    return LiftedConfig(a=[a], b=[b], c=[c], weights=np.array([[w0, w1, w2]]),
                        lifts=np.asarray([lifts], dtype=float))


def lifted_configs_one_by_one(triple, U) -> list:
    """Oracle for flexprobe.lifted_config_for_direction: one frame and one
    plane_config per row, the centres' frame coordinates and heights taken
    for that row alone; an unusable row gets the SceneError it raised."""
    U = np.array([_unit_rows(u[None])[0] for u in np.asarray(U, dtype=float)]).reshape(-1, 3)
    weights = minimax_weights_batch(triple.centers, triple.scene.radii, U)
    out = []
    for u, w in zip(U, weights):
        plane = np.einsum("kd,nd->nk", frame_of_complement(u), triple.centers)
        lifts = np.einsum("d,nd->n", u, triple.centers)
        try:
            out.append(plane_config(plane, np.einsum("n,nk->k", w, plane), lifts))
        except SceneError as exc:
            out.append(exc)
    return out


def pair_gaps_one(cfg) -> np.ndarray:
    """Oracle for flexprobe.rebuilt_pair_gaps on a batch of one sample."""
    [tri], [x], [r] = cfg.triangle, cfg.lifts, cfg.radii
    out = []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        d2 = float(np.dot(tri[i] - tri[j], tri[i] - tri[j])) + (x[i] - x[j]) ** 2
        out.append(math.sqrt(d2) - (r[i] + r[j]))
    return np.array(out)


def flex_report_one_by_one(triple, boundary_samples) -> dict:
    """Oracle for certify_flex_free(...).to_json_dict() on a triple of
    moderate size: the Hessian split and the gap check one sample at a time,
    at float_safe_triple's scale 2^shift, each margin (a sixth power of
    length) scaled back by 2^(-6 shift)."""
    triple, shift = float_safe_triple(triple)
    dirs = boundary_directions_for_triple(triple, boundary_samples)
    gap_floor = -1e-6 * triple.scene.diameter
    rows, margins, nmargins = [], [], []
    for u, cfg in zip(dirs, lifted_configs_one_by_one(triple, dirs)):
        if isinstance(cfg, SceneError):
            rows.append({"direction": [float(x) for x in u], "margin": None,
                         "normalized_margin": None, "skipped": str(cfg), "disjointness_ok": None})
            continue
        split = lifted_hessian_decomposition(cfg)
        [H2], [H4] = split.H2, split.H4
        scale = abs(H2) + abs(H4)
        nm = 0.0 if scale == 0.0 else float((H4 + H2) / scale)
        ok = bool(np.all(pair_gaps_one(cfg) >= gap_floor))
        margin = math.ldexp(float(split.margin[0]), -6 * shift)
        rows.append({"direction": [float(x) for x in u], "margin": margin,
                     "normalized_margin": nm, "skipped": None, "disjointness_ok": ok})
        margins.append(margin)
        nmargins.append(nm)
    disjoint = all(r["disjointness_ok"] for r in rows if r["disjointness_ok"] is not None)
    return {
        "requested": boundary_samples,
        "located": len(rows),
        "probed": len(margins),
        "skipped": len(rows) - len(margins),
        "min_margin": min(margins) if margins else None,
        "min_normalized_margin": min(nmargins) if nmargins else None,
        "pass": bool(margins and min(margins) > 0.0 and disjoint),
        "samples": rows,
    }


def line_distance(foot, u, x) -> float:
    """Distance from the point x to the line through ``foot`` along unit u."""
    w = np.asarray(x, dtype=float) - foot
    return float(np.linalg.norm(w - np.dot(w, u) * u))


def cayley_matrix_5x5(triple, U, squared_radii) -> np.ndarray:
    """Oracle for the sextic at float rows: the bordered 5x5 matrices (m, 5, 5)
    written out by hand, with border 1, s_k q in row 1 and the squared
    projected distance q |e|^2 - (u . e)^2 of each edge e."""
    U = np.asarray(U, dtype=float)
    q = np.einsum("md,md->m", U, U)
    M = np.zeros((len(U), 5, 5))
    M[:, 0, 1:] = M[:, 1:, 0] = 1.0
    M[:, 1, 2:] = M[:, 2:, 1] = q[:, None] * np.asarray(squared_radii, dtype=float)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        e = triple.centers[j] - triple.centers[i]
        M[:, i + 2, j + 2] = M[:, j + 2, i + 2] = float(np.dot(e, e)) * q - (U @ e) ** 2
    return M


def bordered_cayley_menger(centers, squared_radii, one, q, lin) -> list[list]:
    """Oracle for sextic.cayley_menger_forms: the bordered Cayley-Menger
    matrix of the circles' common point and the k projected centres,
    (k + 2) x (k + 2), over any ring of forms in u, written out from its
    definition: border ``one``, s_i q between the common point and centre i,
    and q |e|^2 - <e, u>^2 between centres i < j, e = c_j - c_i.  Its
    determinant is the form's -det."""
    k = len(centers)
    zero = one - one
    M = [[zero] * (k + 2) for _ in range(k + 2)]
    for a in range(1, k + 2):
        M[0][a] = M[a][0] = one
    for i in range(k):
        M[1][i + 2] = M[i + 2][1] = q * squared_radii[i]
        for j in range(i + 1, k):
            e = [b - a for a, b in zip(centers[i], centers[j])]
            w = lin(e)
            M[i + 2][j + 2] = M[j + 2][i + 2] = q * sum(x * x for x in e) - w * w
    return M


def pair_matrix(scene, i, j) -> np.ndarray:
    """Oracle for the conic of balls i and j of a scene: the symmetric 3x3
    matrix (|e|^2 - (r_i + r_j)^2) I - e e^T, e = c_j - c_i, whose form
    u^T M u is negative exactly on the directions of the pair's transversals."""
    e = scene.centers[j] - scene.centers[i]
    rr = float(scene.radii[i] + scene.radii[j]) ** 2
    return (float(np.dot(e, e)) - rr) * np.eye(3) - np.outer(e, e)


def conic_matrix(conic) -> np.ndarray:
    """The symmetric 3x3 matrix of a quadratic DirectionPoly."""
    M = np.zeros((3, 3))
    for e, c in conic.coeffs.items():
        a, b = [k for k in range(3) for _ in range(e[k])]
        M[a, b] += c / 2
        M[b, a] += c / 2
    return M


def z_gaps(cfg) -> np.ndarray:
    """Squared lift gaps z_k = (x_i - x_j)^2 of a LiftedConfig of one
    sample, cyclically."""
    [x] = cfg.lifts
    return np.array([(x[1] - x[2]) ** 2, (x[2] - x[0]) ** 2, (x[0] - x[1]) ** 2])


def is_pinned_planar(triple, tol=1e-9) -> bool:
    """Whether the cone of directions degenerates to a single point.

    True iff some line in the plane of centers is tangent to all three traced
    discs with the middle ball on the opposite side from the outer two.  The
    sign-patterned tangency conditions determine the line normal by a 2x2
    solve; pinning holds exactly when that normal has unit length.
    """
    if triple.collinear_centers:
        return False
    centers = triple.centers
    radii = triple.scene.radii
    e1 = centers[1] - centers[0]
    e2 = centers[2] - centers[0]
    normal = np.cross(e1, e2)
    normal /= np.linalg.norm(normal)
    b1 = e1 - np.dot(e1, normal) * normal
    # orthonormal frame of the plane of centers
    f1 = b1 / np.linalg.norm(b1)
    f2 = np.cross(normal, f1)
    P = np.array([[0.0, 0.0], [e1 @ f1, e1 @ f2], [e2 @ f1, e2 @ f2]])
    for signs in ((1.0, -1.0, 1.0), (-1.0, 1.0, -1.0)):
        rhs = np.array(
            [signs[1] * radii[1] - signs[0] * radii[0],
             signs[2] * radii[2] - signs[0] * radii[0]]
        )
        A = np.array([P[1] - P[0], P[2] - P[0]])
        det = np.linalg.det(A)
        if abs(det) < 1e-12 * max(np.abs(A).max() ** 2, 1e-30):
            continue
        n2 = np.linalg.solve(A, rhs)
        if abs(np.linalg.norm(n2) - 1.0) <= tol:
            return True
    return False


@dataclass(frozen=True)
class SceneFlags:
    thinly_distributed: bool
    pairwise_inflatable: bool
    collinear_centers: bool


def scene_classification(scene: Scene, rank_tol: float = 1e-9) -> SceneFlags:
    """Classify a scene: thin distribution, pairwise inflatability, collinearity.

    Thinly distributed: every center distance is at least twice the sum of the
    two radii.  Pairwise inflatable: every squared center distance is at least
    twice the sum of the two squared radii.
    """
    thin = True
    inflatable = True
    centers, radii = scene.centers, scene.radii.tolist()
    for i, j in itertools.combinations(range(len(scene)), 2):
        d2 = float(np.dot(centers[i] - centers[j], centers[i] - centers[j]))
        if math.sqrt(d2) < 2.0 * (radii[i] + radii[j]):
            thin = False
        if d2 < 2.0 * (radii[i] ** 2 + radii[j] ** 2):
            inflatable = False
    rel = centers - centers[0]
    if len(scene) <= 2:
        collinear = True
    else:
        sv = np.linalg.svd(rel, compute_uv=False)
        scale = sv[0] if sv[0] > 0 else 1.0
        collinear = bool(np.sum(sv > rank_tol * scale) <= 1)
    return SceneFlags(thin, inflatable, collinear)


def close_pairs(points, chord) -> set[tuple[int, int]]:
    """Brute-force oracle for cone._close_pairs: every pair i < j of rows
    whose squared differences, summed in coordinate order, are at most
    chord^2 and whose differences on the coordinate w of widest spread (the
    first, on a tie) and on w + 1 are at most chord."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if n < 2:
        return set()
    w = int(np.argmax(np.ptp(points, axis=0)))
    pairs = set()
    for i in range(n):
        diff = points[i + 1:] - points[i]
        dist_sq = np.zeros(len(diff))
        for c in range(d):
            dist_sq += diff[:, c] ** 2
        near = ((dist_sq <= chord * chord) & (np.abs(diff[:, w]) <= chord)
                & (np.abs(diff[:, (w + 1) % d]) <= chord))
        pairs.update((i, i + 1 + int(j)) for j in np.flatnonzero(near))
    return pairs


@pytest.fixture
def rng():
    return np.random.default_rng(0)
