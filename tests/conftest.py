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


@pytest.fixture
def rng():
    return np.random.default_rng(0)
