import itertools
import math

import numpy as np
import pytest

from linestab.cone import realized_orders_batch
from linestab.geom import Ball, Scene, random_scene_with_transversal
from linestab.sextic import Triple


def collinear_scene() -> Scene:
    return Scene(3, (Ball([0, 0, 0], 1.0), Ball([4, 0, 0], 1.0), Ball([8, 0, 0], 1.0)))


def random_triple(seed: int, radius_range=(0.8, 1.6)) -> Triple:
    scene, _ = random_scene_with_transversal(3, 3, radius_range, seed=seed)
    return Triple.from_scene(scene)


def center_order(scene: Scene, u) -> tuple[tuple[int, ...], bool]:
    """Meeting order of the balls along one direction, and whether it is tied."""
    orders, ties = realized_orders_batch(scene, np.asarray(u, dtype=float)[None, :])
    return tuple(orders[0].tolist()), bool(ties[0])


def canonical_permutation(order) -> tuple[int, ...]:
    """The lexicographically smaller of an ordering and its reversal."""
    fwd = tuple(int(i) for i in order)
    return min(fwd, fwd[::-1])


def line_entry_parameters(point, direction, scene):
    """Entry parameter of the line {point + t direction} into each ball.

    Independent order oracle: smaller quadratic root per ball, or None if
    the line misses it.
    """
    p = np.asarray(point, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    out = []
    for b in scene.balls:
        w = b.center - p
        tm = float(np.dot(w, d))
        h2 = b.squared_radius - (float(np.dot(w, w)) - tm * tm)
        if h2 < 0:
            out.append(None)
        else:
            out.append(tm - np.sqrt(h2))
    return out


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


@pytest.fixture
def rng():
    return np.random.default_rng(0)
