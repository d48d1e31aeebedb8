"""The disk-minimax kernel against the exhaustive support enumeration."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linestab import cone
from linestab.cone import (
    KERNEL_REL_EPS,
    _pair_bound,
    fibonacci_sphere,
    minimax_slack_batch,
    minimax_weights_batch,
    sample_scene,
)
from linestab.geom import (
    Scene,
    SolverError,
    orthonormal_basis_of_complement,
    random_disjoint_scene,
    random_scene_with_transversal,
)
from linestab.cli import preset_scene
from conftest import enumerate_minimax, simplex_minimax

# an overlapping scene on which a Gram-form evaluation of ill-conditioned
# supports (weights near 4e13) read -1.0 at REPRO_U
REPRO_CENTERS = np.array(
    [[0, -2, -1], [-3, -2, 3], [-1, 2, -3], [0, 1, -1], [1, -3, -3], [-1, 2, -2], [2, -1, 1]],
    dtype=float,
)
REPRO_RADII = np.array([2, 2.5, 3.5, 1.5, 1, 2.5, 2])
REPRO_U = np.array([0.5843213886530327, -0.5634739320619541, 0.5840082556344832])


def diameter(centers, radii):
    n = len(centers)
    pairs = [np.linalg.norm(centers[i] - centers[j]) + radii[i] + radii[j]
             for i in range(n) for j in range(i + 1, n)]
    return max(pairs + [2.0 * float(np.max(radii))])


def projected_2d(centers, u):
    """Centres projected onto u^perp, in the coordinates of its basis (R^3)."""
    return centers @ orthonormal_basis_of_complement(u).T


def collinear_scene(n, seed):
    """Disjoint balls with centres on the first axis of R^3."""
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.5, 2.0, size=n)
    x = 2.0 * np.cumsum(radii) - radii + np.cumsum(rng.uniform(0.1, 1.0, size=n))
    return Scene(np.outer(x, [1.0, 0.0, 0.0]), radii)


def assert_attained(centers, radii, U, slack, W):
    """The slack is max_i |x - p_i| - r_i at x = weights @ P, for the kernel's
    own centring, and the weights are affine with at most d non-zeros."""
    centers = np.asarray(centers, dtype=float)
    centered = centers - centers.mean(axis=0)
    U = U / np.linalg.norm(U, axis=1, keepdims=True)
    P = centered[None, :, :] - (U @ centered.T)[:, :, None] * U[:, None, :]
    x = np.einsum("mn,mnd->md", W, P)
    g = np.max(np.linalg.norm(P - x[:, None, :], axis=2) - radii, axis=1)
    assert np.max(np.abs(g - slack)) <= KERNEL_REL_EPS * diameter(centers, radii)
    assert np.all(np.count_nonzero(W, axis=1) <= min(len(centers), U.shape[1]))
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-9


class TestRegressions:
    def test_ill_conditioned_support_repro(self):
        u = REPRO_U[None, :]
        slack = minimax_slack_batch(REPRO_CENTERS, REPRO_RADII, u)[0]
        assert abs(slack - 1.8775) <= 1e-4
        assert abs(slack - enumerate_minimax(REPRO_CENTERS, REPRO_RADII, u)[0]) <= 1e-12
        assert abs(slack - simplex_minimax(projected_2d(REPRO_CENTERS, REPRO_U), REPRO_RADII)) <= 1e-8
        W = minimax_weights_batch(REPRO_CENTERS, REPRO_RADII, u)
        assert_attained(REPRO_CENTERS, REPRO_RADII, u, [slack], W)

    @pytest.mark.parametrize("n, seed", [(6, 3), (8, 2)])
    def test_collinear_centres_never_read_low(self, n, seed):
        scene = collinear_scene(n, seed)
        U = fibonacci_sphere(20000)
        slack = minimax_slack_batch(scene.centers, scene.radii, U)
        oracle = enumerate_minimax(scene.centers, scene.radii, U)
        err = (slack - oracle) / scene.diameter
        assert np.max(np.abs(err)) <= KERNEL_REL_EPS
        # the rows of smallest slack against independent Nelder-Mead solves
        for k in np.argsort(slack)[:3]:
            ref = simplex_minimax(projected_2d(scene.centers, U[k]), scene.radii)
            assert abs(slack[k] - ref) <= 1e-8 * scene.diameter

    def test_rows_are_normalised(self):
        scene, axis = random_scene_with_transversal(5, 3, (0.5, 2.0), seed=4)
        u = axis
        at_unit = minimax_slack_batch(scene.centers, scene.radii, u[None, :])[0]
        assert at_unit == pytest.approx(-0.5996361378, abs=1e-9)
        for factor in (1.01, 3.0, 1e-200, 1e200):
            scaled = minimax_slack_batch(scene.centers, scene.radii, factor * u[None, :])[0]
            assert abs(scaled - at_unit) <= KERNEL_REL_EPS * scene.diameter

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_row_rejected(self, bad):
        scene, axis = random_scene_with_transversal(5, 3, (0.5, 2.0), seed=4)
        U = np.vstack([axis, [bad, 0.0, 0.0]])
        for kernel in (minimax_slack_batch, minimax_weights_batch):
            with pytest.raises(SolverError):
                kernel(scene.centers, scene.radii, U)

    def test_empty_batch(self):
        scene, _ = random_scene_with_transversal(4, 3, (0.5, 2.0), seed=0)
        assert minimax_slack_batch(scene.centers, scene.radii, np.zeros((0, 3))).shape == (0,)
        assert minimax_weights_batch(scene.centers, scene.radii, np.zeros((0, 3))).shape == (0, 4)


@pytest.mark.parametrize("k, n, d", [(0, 3, 3), (1, 6, 3), (2, 10, 3), (3, 8, 4), (4, 6, 5)])
def test_sampled_masks_equal_the_oracle(k, n, d):
    # the shapes and scenes of TestPairPrefilter: every row that reaches the
    # kernel gets the oracle's slack, so the feasible masks are equal
    scene, _ = random_scene_with_transversal(n, d, (1.0, 2.0), seed=300 + k)
    sset = sample_scene(scene, 20000, seed=0)
    band = KERNEL_REL_EPS * scene.diameter
    near = _pair_bound(scene.centers, scene.radii, sset.directions) <= scene.band + band
    oracle = enumerate_minimax(scene.centers, scene.radii, sset.directions[near])
    assert np.max(np.abs(sset.slacks[near] - oracle)) <= band
    feasible = np.zeros(len(near), dtype=bool)
    feasible[near] = oracle <= scene.band
    assert np.array_equal(sset.feasible, feasible & ~sset.ties)


def _property_scene(kind, n, d, rng):
    """Centres and radii of one of the property's scene kinds."""
    if kind == "transversal":
        scene, _ = random_scene_with_transversal(n, d, (0.5, 2.0), seed=int(rng.integers(10_000)))
        return scene.centers, scene.radii
    if kind == "disjoint":
        scene = random_disjoint_scene(n, d, (0.5, 2.0), seed=int(rng.integers(10_000)))
        return scene.centers, scene.radii
    radii = rng.uniform(0.3, 2.0, size=n)
    centers = rng.uniform(-3.0, 3.0, size=(n, d))
    if kind == "collinear":
        centers = np.outer(rng.uniform(-4.0, 4.0, size=n), rng.normal(size=d)) + rng.normal(size=d)
    elif kind == "tied":
        # lattice centres and one radius: many supports tie
        centers = rng.integers(-2, 3, size=(n, d)).astype(float)
        radii = np.ones(n)
    elif kind == "nested" and n > 1:
        centers[1] = centers[0] + 0.1 * rng.normal(size=d)
        radii[0], radii[1] = 2.5, 0.5
    return centers, radii


@settings(max_examples=80, deadline=None)
@example(seed=0, n=1, d=3, kind="overlap")
@example(seed=1, n=4, d=2, kind="collinear")
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 10),
    d=st.integers(2, 5),
    kind=st.sampled_from(["transversal", "disjoint", "overlap", "collinear", "tied", "nested"]),
)
def test_kernel_matches_exhaustive_oracle(seed, n, d, kind):
    rng = np.random.default_rng(seed)
    centers, radii = _property_scene(kind, n, d, rng)
    U = rng.normal(size=(24, d))
    # rows near the centre line, where the supports are largest
    axis = centers[-1] - centers[0] if n > 1 else rng.normal(size=d)
    if np.linalg.norm(axis) > 0:
        U[:12] = axis / np.linalg.norm(axis) + 0.1 * U[:12]
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    slack = minimax_slack_batch(centers, radii, U)
    oracle = enumerate_minimax(centers, radii, U)
    assert np.max(np.abs(slack - oracle)) <= KERNEL_REL_EPS * diameter(centers, radii)
    assert_attained(centers, radii, U, slack, minimax_weights_batch(centers, radii, U))


def test_unconverged_row_raises(monkeypatch):
    # a support solve that never improves leaves violated rows open: the
    # kernel raises after as many rounds as there are bases, never guesses
    scene, _ = random_scene_with_transversal(4, 3, (1.0, 2.0), seed=1)
    U = fibonacci_sphere(200)
    minimax_slack_batch(scene.centers, scene.radii, U)

    def stuck(P, radii, B, over):
        return np.full(len(B), -np.inf), np.zeros(B.shape)

    monkeypatch.setattr(cone, "_best_point", stuck)
    with pytest.raises(SolverError, match="did not converge"):
        minimax_slack_batch(scene.centers, scene.radii, U)


def _near_boundary_rows(scene, count):
    U = cone.sample_directions(scene.dimension, 4096)
    slack = minimax_slack_batch(scene.centers, scene.radii, U)
    return U[np.argsort(np.abs(slack))[:count]]


@pytest.mark.parametrize("key", ["flexdemo-disjoint", (10, 3, 310), (8, 4, 303)], ids=str)
def test_one_best_point_call_per_support_size(key, monkeypatch):
    # after the pair start, each violator round solves every candidate
    # support of one size in one call: within a size group k (over = k + 1
    # disks) the support sizes 1, 2, ... appear once each, in turn.  Rows
    # near a random scene's transversal reach the largest supports
    if isinstance(key, str):
        U = _near_boundary_rows(scene := preset_scene(key), 200)
    else:
        scene, axis = random_scene_with_transversal(*key[:2], (1.0, 2.0), seed=key[2])
        noise = 0.1 * np.random.default_rng(0).normal(size=(200, scene.dimension))
        U = np.vstack([_near_boundary_rows(scene, 200), axis + noise])
    calls = []
    real = cone._best_point

    def counted(P, radii, B, over):
        calls.append((B.shape[1], over.shape[1]))
        return real(P, radii, B, over)

    monkeypatch.setattr(cone, "_best_point", counted)
    slack = minimax_slack_batch(scene.centers, scene.radii, U)
    monkeypatch.undo()
    assert np.array_equal(slack, minimax_slack_batch(scene.centers, scene.radii, U))
    assert calls[0] == (2, 2)  # the pair start
    cap = min(len(scene), scene.dimension)
    groups = []
    for b, width in calls[1:]:
        if b == 1:
            groups.append([])
        groups[-1].append((b, width))
    for group in groups:
        width = group[0][1]
        assert group == [(b, width) for b in range(1, min(width - 1, cap - 1) + 2)]
    # the rows reach groups of three disks, and of four or more in the random
    # scenes
    assert max(group[0][1] for group in groups) >= (3 if isinstance(key, str) else 4)


@pytest.mark.parametrize("d", range(1, 11))
def test_lengths_are_the_norm_to_the_bit(d):
    # the kernel's lengths add whole coordinate planes in order, as numpy's
    # norm adds a trailing axis below 8 terms; from 8 on they are the norm
    rng = np.random.default_rng(d)
    X = rng.normal(size=(2, 300, 5, d)) * np.exp(5.0 * rng.normal(size=(2, 300, 5, d)))
    norm = np.linalg.norm(X, axis=-1)
    assert np.array_equal(cone._lengths(np.moveaxis(X, -1, 0).copy()), norm)


def _pair_call(p0, p1, r0, r1):
    """_best_point on the two-disk supports (p0[k], p1[k]) over themselves:
    the centres as the columns of one (d, 2N) array."""
    N = len(p0)
    B = np.column_stack([np.arange(N), N + np.arange(N)])
    return cone._best_point(np.hstack([p0.T, p1.T]), np.concatenate([r0, r1]), B, B)


def _as_bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 5), N=st.integers(1, 40),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_two_disk_support_is_the_closed_form(seed, d, N, scale):
    # two disks that are not nested agree at t = (|p0 - p1| - r0 - r1) / 2,
    # on the segment between the centres; N rows give the bits of N calls
    rng = np.random.default_rng(seed)
    p0, p1 = scale * rng.normal(size=(2, N, d))
    r0, r1 = scale * rng.uniform(0.05, 1.5, size=(2, N))
    D = np.linalg.norm(p1 - p0, axis=1)
    t, w = _pair_call(p0, p1, r0, r1)
    sound = D > np.abs(r0 - r1) * (1 + 1e-9)
    tol = 1e-12 * scale * (1.0 + D / scale)
    assert np.all(np.abs(t - (D - r0 - r1) / 2)[sound] <= tol[sound])
    assert np.all(np.abs(w.sum(axis=1) - 1.0)[sound] <= 1e-12)
    assert np.all((w[sound] >= -1e-12) & (w[sound] <= 1 + 1e-12))
    x = w[:, :1] * p0 + w[:, 1:] * p1
    for p, r in ((p0, r0), (p1, r1)):
        gap = np.linalg.norm(x - p, axis=1) - r
        assert np.all(np.abs(gap - t)[sound] <= tol[sound])
    for k in range(N):
        tk, wk = _pair_call(p0[k:k + 1], p1[k:k + 1], r0[k:k + 1], r1[k:k + 1])
        assert np.array_equal(_as_bits(tk), _as_bits(t[k:k + 1]))
        assert np.array_equal(_as_bits(wk), _as_bits(w[k:k + 1]))


def test_coincident_pair_support_keeps_inf():
    # a two-disk support whose projected centres coincide has |E|^2 = 0: the
    # 1x1 system is singular and its row keeps inf, beside a sound row
    for d in (2, 3, 5):
        p0 = np.random.default_rng(d).normal(size=(2, d))
        p1 = np.vstack([p0[0], p0[1] + 3.0])
        t, _ = _pair_call(p0, p1, np.array([1.0, 0.5]), np.array([0.5, 0.5]))
        assert t[0] == np.inf and np.isfinite(t[1])


@pytest.mark.parametrize("tau", [1e-9, 1e-3, 0.25])
def test_inflated_radii_shift_the_slack(tau):
    # slack <= tol is slack <= 0 at radii r + tol: boundary exits rest on it
    scene, axis = random_scene_with_transversal(5, 3, (0.5, 2.0), seed=4)
    rng = np.random.default_rng(1)
    U = np.vstack([fibonacci_sphere(400), axis + 0.3 * rng.normal(size=(400, 3))])
    base = minimax_slack_batch(scene.centers, scene.radii, U)
    inflated = minimax_slack_batch(scene.centers, scene.radii + tau, U)
    eps = KERNEL_REL_EPS * diameter(scene.centers, scene.radii + tau)
    assert np.max(np.abs(inflated - (base - tau))) <= eps
