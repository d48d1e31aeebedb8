import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linestab import cone
from linestab.cli import PRESET_NAMES, preset_scene
from linestab.geom import (
    Scene,
    SceneError,
    SolverError,
    _unit_rows,
    orthonormal_basis_of_complement,
    random_disjoint_scene,
    random_scene_with_transversal,
)
from linestab.sextic import (
    Triple, eval_sigma, float_safe_triple, sigma_roots_on_rays, tangent_lines_for_direction,
)
from linestab.cone import (
    _pair_bound,
    boundary_directions_for_triple,
    classify_boundary_direction,
    cone_convexity_check,
    count_components,
    entry_order_feasible,
    enumerate_geometric_permutations,
    evaluate_directions,
    fibonacci_sphere,
    minimax_slack_batch,
    minimax_weights_batch,
    realized_orders_batch,
    sample_directions,
    sample_scene,
)
from conftest import (
    bisected_boundary_directions, canonical_permutation, center_order, close_pairs,
    collinear_scene, entry_order_margin, is_pinned_planar, line_entry_parameters, moved_scene,
    random_overlapping_scene, random_triple, sample_with_directions, scene_classification,
    simplex_minimax,
)


class TestSampling:
    def test_fibonacci_lattice_unit_and_deterministic(self):
        U = fibonacci_sphere(500)
        np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(U, fibonacci_sphere(500))

    def test_gaussian_fallback_for_d4(self):
        U = sample_directions(4, 300, seed=5)
        assert U.shape == (300, 4)
        np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)
        U2 = sample_directions(4, 300, seed=5)
        np.testing.assert_array_equal(U, U2)


X_AXIS = np.array([[1.0, 0.0, 0.0]])


class TestPairPrefilter:
    """sample_scene rules directions out by the pair-cone bound first."""

    @pytest.mark.parametrize("k, n, d", [(0, 3, 3), (1, 6, 3), (2, 10, 3), (3, 8, 4), (4, 6, 5)])
    def test_masks_equal_all_exact(self, monkeypatch, k, n, d):
        scene, _ = random_scene_with_transversal(n, d, (1.0, 2.0), seed=300 + k)
        exact_rows = []

        def counted(centers, radii, U):
            exact_rows.append(len(U))
            return minimax_slack_batch(centers, radii, U)

        monkeypatch.setattr(cone, "minimax_slack_batch", counted)
        sset = sample_scene(scene, 20000, seed=0)
        monkeypatch.undo()
        band = 1e-12 * scene.diameter
        full = evaluate_directions(scene, sset.directions)
        exact = full.slacks
        feas = sset.feasible
        assert np.any(feas)
        assert np.array_equal(feas, full.feasible)
        assert np.max(np.abs(sset.slacks[feas] - exact[feas])) <= band
        # only rows the pair bound cannot rule out reach the kernel
        bound = _pair_bound(scene.centers, scene.radii, sset.directions)
        assert sum(exact_rows) == np.sum(bound <= scene.band + band) < len(bound)

    @pytest.mark.parametrize("length", [1e-3, 0.5, 2.0, 1e3])
    def test_extra_directions_are_scaled_before_the_bound(self, length):
        # the bound reads |D|^2 - (u.D)^2, so a short extra row must not be
        # ruled out: the pinned cone's one direction stays feasible
        from linestab.cli import preset_scene

        scene = preset_scene("pinned")
        U = np.vstack([sample_directions(3, 100), length * X_AXIS])
        sset = cone._evaluate(scene, U, prefilter=True)
        np.testing.assert_array_equal(sset.directions[-1], X_AXIS[0])
        assert sset.feasible_for_order((0, 1, 2))[-1]


class TestUnitRows:
    def test_unit_rows_come_back_as_they_are(self):
        U = fibonacci_sphere(1000)
        assert _unit_rows(U) is U

    @pytest.mark.parametrize("scale", [1e-200, 1e-9, 1.0 + 1e-14, 3.0, 1e200])
    def test_other_rows_are_scaled(self, scale):
        U = scale * fibonacci_sphere(1000)
        unit = _unit_rows(U)
        assert np.max(np.abs(np.linalg.norm(unit, axis=1) - 1.0)) <= 4e-16
        assert _unit_rows(unit) is unit

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]])
    def test_zero_or_non_finite_row_raises(self, row):
        with pytest.raises(SolverError, match="finite and non-zero"):
            _unit_rows(np.vstack([fibonacci_sphere(10), row]))


# the length of each kind of row _unit_rows is given: unit, or not
ROW_LENGTHS = {"unit": lambda rng: 1.0, "scaled": lambda rng: rng.uniform(0.1, 10.0),
               "huge": lambda rng: 2.0 ** rng.uniform(900, 1020),
               "tiny": lambda rng: 2.0 ** -rng.uniform(900, 1070)}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    d=st.integers(2, 5),
    kinds=st.lists(st.sampled_from(sorted(ROW_LENGTHS)), min_size=1, max_size=12),
)
@example(seed=0, d=3, kinds=["unit"] * 8 + ["scaled"])
def test_unit_rows_decides_each_row_on_its_own(seed, d, kinds):
    # N rows, unit or not, huge or tiny, come back as N one-row calls bit for
    # bit: a unit row keeps its bits beside any other row
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(len(kinds), d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    U *= np.array([ROW_LENGTHS[kind](rng) for kind in kinds])[:, None]
    rows = _unit_rows(U)
    assert np.array_equal(rows, np.vstack([_unit_rows(U[k:k + 1]) for k in range(len(U))]))
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 4e-16


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 8),
    d=st.integers(2, 5),
    kind=st.sampled_from(["transversal", "disjoint", "overlap"]),
)
def test_pair_bound_below_exact_slack(seed, n, d, kind):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(300, d))
    if kind == "transversal":
        scene, axis = random_scene_with_transversal(n, d, (0.5, 2.0), seed=seed)
        U[:150] = axis + 0.2 * U[:150]
    elif kind == "disjoint":
        scene = random_disjoint_scene(n, d, (0.5, 2.0), seed=seed)
    else:
        scene = Scene(rng.uniform(-3.0, 3.0, size=(n, d)), rng.uniform(0.5, 2.0, size=n),
                      allow_overlap=True)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    bound = _pair_bound(scene.centers, scene.radii, U)
    exact = minimax_slack_batch(scene.centers, scene.radii, U)
    assert np.all(bound <= exact + 1e-12 * scene.diameter)
    assert n > 1 or np.all(bound == -np.inf)



class TestDirectionFeasible:
    def test_collinear_axis_feasible(self):
        sset = evaluate_directions(collinear_scene(), X_AXIS)
        assert sset.feasible_for_order((0, 1, 2))[0]
        assert sset.slacks[0] <= -1.0 + 1e-9
        assert realized_orders_batch(collinear_scene(), X_AXIS)[0][0].tolist() == [0, 1, 2]

    def test_wrong_order_infeasible(self):
        assert not evaluate_directions(collinear_scene(), X_AXIS).feasible_for_order((0, 2, 1))[0]

    def test_tie_is_indeterminate(self):
        z = np.array([[0.0, 0.0, 1.0]])
        assert realized_orders_batch(collinear_scene(), z)[1][0]
        assert not evaluate_directions(collinear_scene(), z).feasible_for_order((0, 1, 2))[0]

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_single_tie_rule(self, factor):
        # balls 0 and 1 overlap, so every projected disk shares a point and
        # only the tie decides; their center projections along u differ by
        # factor times the tie tolerance
        scene = Scene([[0, 0, 0], [1, 0, 0], [0, 0, 5]], [1.0, 1.0, 1.0], allow_overlap=True)
        a = factor * 1e-9 * scene.diameter
        u = np.array([[a, 0.0, math.sqrt(1.0 - a * a)]])
        orders, ties = realized_orders_batch(scene, u)
        assert orders[0].tolist() == [0, 1, 2]
        assert ties[0] == (factor < 1)
        uset = evaluate_directions(scene, u)
        mask, slacks = uset.feasible_for_order((0, 1, 2)), uset.slacks
        assert slacks[0] < 0
        assert mask[0] == (not ties[0])
        sset = sample_with_directions(scene, 64, u)
        assert sset.ties[-1] == ties[0]
        assert sset.feasible_for_order((0, 1, 2))[-1] == mask[0]

    @pytest.mark.parametrize("length", [1e-6, 0.4, 2.5, 1e6])
    def test_tie_rule_is_row_scale_free(self, length):
        # test_single_tie_rule's scene at factor 2: no tie at any row length,
        # and the entry-order decision and its witness do not read the
        # length either
        scene = Scene([[0, 0, 0], [1, 0, 0], [0, 0, 5]], [1.0, 1.0, 1.0], allow_overlap=True)
        a = 2e-9 * scene.diameter
        u = np.array([[a, 0.0, math.sqrt(1.0 - a * a)]])
        orders, ties = realized_orders_batch(scene, length * u)
        assert orders[0].tolist() == [0, 1, 2]
        assert not ties[0]
        (ok, witness), (ok_scaled, witness_scaled) = (
            cone._entry_witnesses(scene, v, (0, 1, 2)) for v in (u, length * u))
        assert ok[0] and ok_scaled[0]
        assert np.max(np.abs(witness_scaled - witness)) <= 1e-12 * scene.diameter

    def test_order_must_be_permutation(self):
        with pytest.raises(SceneError, match=r"order \(0, 1, 1\) is not a permutation"):
            evaluate_directions(collinear_scene(), X_AXIS).feasible_for_order((0, 1, 1))

    def test_batch_matches_oracle(self, rng):
        # slack against the scipy simplex oracle on the projected disks, mask
        # against that slack plus the center order; half the directions lie
        # near the transversal axis so both verdicts occur
        scene, axis = random_scene_with_transversal(4, 3, (0.8, 1.5), seed=2)
        order, _ = center_order(scene, axis)
        U = np.vstack([rng.normal(size=(12, 3)), axis + 0.2 * rng.normal(size=(12, 3))])
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        uset = evaluate_directions(scene, U)
        mask, slacks = uset.feasible_for_order(order), uset.slacks
        for m in range(len(U)):
            c2 = scene.centers @ orthonormal_basis_of_complement(U[m]).T
            oracle = simplex_minimax(c2, scene.radii)
            assert abs(slacks[m] - oracle) <= 1e-8
            realized, tied = center_order(scene, U[m])
            if abs(oracle) > 1e-6:
                want = oracle <= 0 and realized == order and not tied
                assert bool(mask[m]) == want
        assert 0 < np.sum(mask) < len(U)

    def test_boundary_nudge(self):
        # a bisected boundary direction is feasible just inside and
        # infeasible just outside along its great circle
        tri = random_triple(11)
        scene = tri.scene
        sset = sample_scene(scene, 2048, seed=0)
        feas = sset.feasible
        assert np.any(feas)
        order = tuple(int(i) for i in sset.orders[np.nonzero(feas)[0][0]])
        dirs = boundary_directions_for_triple(tri, 12)
        idx = np.nonzero(feas)[0]
        anchor = sset.directions[idx[np.argmin(sset.slacks[idx])]]
        for uvec in dirs[:6]:
            w = uvec - np.dot(uvec, anchor) * anchor
            nw = np.linalg.norm(w)
            if nw < 1e-9:
                continue
            w /= nw
            theta = float(np.arccos(np.clip(np.dot(anchor, uvec), -1, 1)))
            eps = 1e-4
            inside = np.cos(theta - eps) * anchor + np.sin(theta - eps) * w
            outside = np.cos(theta + eps) * anchor + np.sin(theta + eps) * w
            pair = np.array([inside, outside])
            feasible = evaluate_directions(scene, pair).feasible_for_order(order)
            if all(center_order(scene, v)[0] == order for v in pair):
                assert feasible[0]
                assert not feasible[1]

    def test_sigma_gradient_nudge(self):
        # at a sextic-arc boundary direction, nudging along the sextic
        # gradient crosses the cone boundary: one side feasible, other not
        from linestab.cli import preset_scene
        from linestab.sextic import eval_sigma

        tri = Triple(preset_scene("flexdemo-disjoint"))
        scene = tri.scene
        dirs = boundary_directions_for_triple(tri, 40)
        checked = 0
        for uvec in dirs:
            if abs(eval_sigma(tri, [uvec])[0]) > 1e-7 * tri.sigma_scale:
                continue
            h = 1e-6
            grad = np.array(
                [
                    (eval_sigma(tri, [uvec + h * e])[0] - eval_sigma(tri, [uvec - h * e])[0])
                    / (2 * h)
                    for e in np.eye(3)
                ]
            )
            grad -= np.dot(grad, uvec) * uvec  # tangent component only
            ng = np.linalg.norm(grad)
            if ng < 1e-9:
                continue
            grad /= ng
            eps = 2e-4
            plus = (uvec + eps * grad) / np.linalg.norm(uvec + eps * grad)
            minus = (uvec - eps * grad) / np.linalg.norm(uvec - eps * grad)
            slacks = minimax_slack_batch(
                scene.centers, scene.radii, np.vstack([plus, minus])
            )
            feas = slacks <= 1e-9
            assert feas[0] != feas[1], "gradient nudge did not cross the boundary"
            checked += 1
        assert checked >= 3

    def test_reversal_symmetry(self, rng):
        scene, _ = random_scene_with_transversal(4, 3, (0.8, 1.5), seed=7)
        U = rng.normal(size=(30, 3))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        np.testing.assert_array_equal(evaluate_directions(scene, U).feasible_for_order((0, 1, 2, 3)),
                                      evaluate_directions(scene, -U).feasible_for_order((3, 2, 1, 0)))


ONE_DECISION_SCENES = [
    *PRESET_NAMES, *((n, d, seed) for n, d in ((8, 4), (10, 3), (6, 5)) for seed in range(3)),
]


@pytest.mark.parametrize("key", ONE_DECISION_SCENES, ids=str)
def test_evaluated_rows_share_the_sample_set_decision(key):
    # evaluate_directions takes every slack exactly and sample_scene keeps the
    # pair bound above the band, yet both decide through feasible_for_order,
    # so they agree on every row, for each realized order and semantics; a
    # known transversal direction (the pinned cone's axis) joins the lattice
    if isinstance(key, str):
        scene, extra = preset_scene(key), X_AXIS
    else:
        scene, u = random_scene_with_transversal(key[0], key[1], (1.0, 2.0), seed=key[2])
        extra = u[None, :]
    sset = sample_with_directions(scene, 2048, extra)
    orders = {tuple(o) for o in sset.orders[sset.feasible].tolist()}
    semantics = ("center", "entry") if scene.dimension == 3 else ("center",)
    checked = 0
    full = evaluate_directions(scene, sset.directions)
    for order in sorted(orders | {tuple(range(len(scene)))}):
        for sem in semantics:
            mask = full.feasible_for_order(order, sem)
            assert np.array_equal(mask, sset.feasible_for_order(order, sem)), (order, sem)
            checked += int(np.sum(mask))
    assert checked > 0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    key=st.one_of(st.sampled_from(PRESET_NAMES),
                  st.tuples(st.integers(2, 10), st.integers(3, 5))),
)
def test_sample_orders_are_read_on_meeting_rows(seed, key):
    # sample_scene sorts and tie-tests only the rows that meet, and those
    # equal realized_orders_batch on the whole sample; the other rows hold
    # the identity order and no tie, and feasible_for_order decides every
    # order as it does from the whole sample's orders
    if isinstance(key, str):
        scene = preset_scene(key)
    else:
        scene = random_scene_with_transversal(*key, (0.5, 2.0), seed=seed)[0]
    sset = sample_scene(scene, 3000, seed=seed)
    orders, ties = realized_orders_batch(scene, sset.directions)
    meets = sset.meets
    assert np.array_equal(sset.orders[meets], orders[meets])
    assert np.array_equal(sset.ties[meets], ties[meets])
    assert np.all(sset.orders[~meets] == np.arange(len(scene)))
    assert not np.any(sset.ties[~meets])
    found = {tuple(o) for o in sset.orders[sset.feasible].tolist()}
    for order in [None, *sorted(found)]:
        rule = meets & ~ties
        if order is not None:
            rule &= np.all(orders == np.asarray(order), axis=1)
        assert np.array_equal(sset.feasible_for_order(order), rule), order


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from([(3, 3), (6, 3), (10, 3), (5, 4), (6, 5)]),
    rows=st.integers(1, 120),
)
def test_orders_of_a_row_do_not_depend_on_its_batch(seed, shape, rows):
    # N rows give the orders and ties of N one-row calls, bit for bit; half
    # the rows put two centre projections one band apart, where the tie
    # decision reads the last bits of the keys
    n, d = shape
    scene, axis = random_scene_with_transversal(n, d, (0.5, 2.0), seed=seed)
    rng = np.random.default_rng(seed)
    U = axis + 0.3 * rng.normal(size=(rows, d))
    for k in range(0, rows, 2):
        i, j = rng.choice(n, size=2, replace=False)
        D = scene.centers[j] - scene.centers[i]
        t = rng.normal(size=d)
        t -= (t @ D) / (D @ D) * D
        sine = scene.band / np.linalg.norm(D) * (1.0 + 1e-13 * rng.normal())
        U[k] = math.sqrt(1.0 - sine * sine) * t / np.linalg.norm(t) + sine * D / np.linalg.norm(D)
    U *= rng.uniform(0.5, 2.0, size=(rows, 1))  # rows need not be unit
    orders, ties = realized_orders_batch(scene, U)
    for k in range(rows):
        one_order, one_tie = realized_orders_batch(scene, U[k:k + 1])
        assert np.array_equal(one_order[0], orders[k]) and one_tie[0] == ties[k], k


class TestConvexity:
    def test_random_triples_have_convex_cones(self):
        for seed in (1, 4, 8):
            scene, axis = random_scene_with_transversal(3, 3, (0.7, 1.4), seed=seed)
            order, _ = center_order(scene, axis)
            rep = cone_convexity_check(scene, order, pairs=400, seed=2, lattice=2048)
            assert not rep["inconclusive"]
            assert rep["violations"] == []
            assert rep["min_midpoint_margin"] > 0

    def test_r4_scene_convex(self):
        scene, axis = random_scene_with_transversal(5, 4, (1.0, 3.0), seed=3)
        order, _ = center_order(scene, axis)
        rep = cone_convexity_check(scene, order, pairs=300, seed=0, lattice=4096)
        assert not rep["inconclusive"]
        assert rep["violations"] == []

    def test_overlap_breaks_entry_order_convexity(self):
        from linestab.cli import preset_scene

        scene = preset_scene("transition-overlapping")
        rep = cone_convexity_check(
            scene,
            (0, 1, 2),
            pairs=2500,
            seed=1,
            lattice=4096,
            order_semantics="entry",
        )
        assert rep["violation_count"] >= 1

    def test_disjoint_panel_clean_under_both_semantics(self):
        from linestab.cli import preset_scene

        scene = preset_scene("transition-disjoint")
        cat = enumerate_geometric_permutations(sample_scene(scene, 2048))
        order = cat["permutations"][0]["witness_order"]
        for semantics in ("center", "entry"):
            rep = cone_convexity_check(
                scene,
                order,
                pairs=800,
                seed=1,
                lattice=2048,
                order_semantics=semantics,
            )
            assert rep["violations"] == []

    def test_inconclusive_without_transversals(self):
        # far-apart small balls at a fat triangle admit no common transversal
        s = 100.0
        scene = Scene([[0, 0, 0], [s, 0, 0], [s / 2, s, 0]], [1.0, 1.0, 1.0])
        rep = cone_convexity_check(scene, (0, 1, 2), pairs=50, lattice=512)
        assert rep["inconclusive"]

    @pytest.mark.parametrize("d", [2, 4])
    def test_entry_semantics_needs_r3(self, d):
        scene, _ = random_scene_with_transversal(3, d, (0.8, 1.4), seed=1)
        with pytest.raises(SceneError, match=r"needs a scene in R\^3"):
            cone_convexity_check(scene, (0, 1, 2), pairs=10, lattice=256, order_semantics="entry")
        with pytest.raises(SceneError, match=r"needs a scene in R\^3"):
            evaluate_directions(scene, np.eye(d)).feasible_for_order((0, 1, 2), "entry")

    def test_feasible_for_order_checks_its_semantics(self):
        # the one predicate rejects entry semantics without an order and an
        # unknown semantics, rather than failing inside or reading it as center
        sset = sample_scene(preset_scene("transition-overlapping"), 64)
        with pytest.raises(SceneError, match="entry order semantics needs an order"):
            sset.feasible_for_order(order_semantics="entry")
        with pytest.raises(SceneError, match="unknown order semantics 'bogus'"):
            sset.feasible_for_order((0, 1, 2), order_semantics="bogus")

    def test_entry_semantics_matches_center_on_disjoint(self, rng):
        scene, _ = random_scene_with_transversal(3, 3, (0.8, 1.4), seed=5)
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            order = tuple(np.argsort(scene.centers @ u))
            assert entry_order_feasible(scene, u[None, :], order)[0] == (
                minimax_slack_batch(scene.centers, scene.radii, u[None, :])[0] <= scene.band
            )


def _not_a_permutation(kind: str, order: list, pick: int) -> tuple:
    """``order`` with one ball repeated, dropped, added or out of range."""
    n, i = len(order), pick % len(order)
    if kind == "repeat":
        return tuple(order[:i] + [order[(i + 1) % n]] + order[i + 1:])
    if kind == "drop":
        return tuple(order[:i] + order[i + 1:])
    if kind == "add":
        return tuple(order + [order[i]])
    return tuple(order[:i] + [n + pick if pick % 2 else -1 - pick] + order[i + 1:])


@settings(max_examples=40, deadline=None)
@given(
    key=st.one_of(st.sampled_from(PRESET_NAMES),
                  st.tuples(st.integers(2, 6), st.sampled_from([3, 4]), st.integers(0, 50))),
    kind=st.sampled_from(["repeat", "drop", "add", "range"]),
    pick=st.integers(0, 100),
    data=st.data(),
)
@example(key="two-permutations", kind="drop", pick=0, data=None)
def test_every_order_reader_checks_the_permutation(key, kind, pick, data):
    # each public function that reads an order raises the one SceneError for
    # an order that is not a permutation of the balls, under each semantics
    # it takes, rather than answering for it or failing inside
    if isinstance(key, str):
        scene = preset_scene(key)
    else:
        scene = random_scene_with_transversal(key[0], key[1], (1.0, 2.0), seed=key[2])[0]
    n = len(scene)
    perm = list(range(n)) if data is None else data.draw(st.permutations(range(n)))
    order = _not_a_permutation(kind, perm, pick)
    sset = sample_scene(scene, 256)
    semantics = ("center", "entry") if scene.dimension == 3 else ("center",)
    message = rf"order \({', '.join(map(str, order))},?\) is not a permutation of the balls"
    for sem in semantics:
        with pytest.raises(SceneError, match=message):
            sset.feasible_for_order(order, sem)
        with pytest.raises(SceneError, match=message):
            cone_convexity_check(scene, order, pairs=10, lattice=64, order_semantics=sem)
    if scene.dimension == 3:
        with pytest.raises(SceneError, match=message):
            entry_order_feasible(scene, sset.directions[:8], order)


def _entry_split_scene(name):
    """(scene, entry order) of the row-split test: the two transition presets,
    each with an order it realizes, one ball, and four disjoint balls with a
    transversal."""
    if name == "one-ball":
        return Scene([[0, 0, 0]], [1.0]), (0,)
    if name == "four-balls":
        scene, axis = random_scene_with_transversal(4, 3, (0.8, 1.5), seed=2)
        return scene, center_order(scene, axis)[0]
    return preset_scene(name), {"transition-overlapping": (0, 1, 2),
                                "transition-disjoint": (1, 0, 2)}[name]


def _split_rows(scene, count):
    """``count`` direction rows from deep inside the scene's meeting cone out
    past its rim, about two thirds inside, in shuffled order."""
    U = fibonacci_sphere(20000)
    slack = minimax_slack_batch(scene.centers, scene.radii, U)
    stride = max(1, 3 * int(np.sum(slack <= scene.band)) // (2 * count))
    return U[np.random.default_rng(0).permutation(np.argsort(slack)[::stride][:count])]


@pytest.mark.parametrize("rows", [25, 60])
@pytest.mark.parametrize("name", ["transition-overlapping", "transition-disjoint",
                                  "one-ball", "four-balls"])
def test_entry_margin_does_not_depend_on_the_row_split(name, rows, monkeypatch):
    # entry_order_feasible takes rows in chunks and uses per-row products
    # only, so N rows decide as N one-row calls do, witnesses included, bit
    # for bit.  The chunk is set to hold ``rows`` rows, read from the
    # candidates' (candidate, ball) entries per row, and the sizes N span
    # several chunks (one ball has fewer rows in its cone, so fewer chunks);
    # then a call of more than one chunk at the default size is checked on a
    # subsample of its rows
    scene, order = _entry_split_scene(name)
    candidates, seen = cone._entry_candidates, []

    def spy(c, r, U, *rest):
        out = candidates(c, r, U, *rest)
        seen.append((len(U), out[1].size))
        return out

    def single(U):
        rows = [cone._entry_witnesses(scene, u[None, :], order) for u in U]
        return tuple(np.concatenate([empty, *part])
                     for empty, part in zip((np.zeros(0, bool), np.zeros((0, 3))), zip(*rows)))

    monkeypatch.setattr(cone, "_entry_candidates", spy)
    cone._entry_witnesses(scene, np.zeros((0, 3)), order)
    entries = seen[0][1]
    n_max = 3 * rows + 5
    U = _split_rows(scene, n_max)
    with monkeypatch.context() as patch:
        patch.setattr(cone, "_ENTRY_CHUNK", rows * entries)
        want = single(U)
        for N in (min(k, len(U)) for k in (0, 1, rows, rows + 1, n_max)):
            seen.clear()
            got = cone._entry_witnesses(scene, U[:N], order)
            assert [m for m, _ in seen[1:]] == [min(rows, N - lo) for lo in range(0, N, rows)], N
            for g, w in zip(got, want):
                assert np.array_equal(g, w[:N], equal_nan=True), N
    if len(scene) > 1:
        assert np.any(want[0]) and not np.all(want[0])
    U = _split_rows(scene, 4 * cone._ENTRY_CHUNK // entries)
    pick = np.random.default_rng(1).choice(len(U), 30, replace=False)
    for g, w in zip(cone._entry_witnesses(scene, U, order), single(U[pick])):
        assert np.array_equal(g[pick], w, equal_nan=True)


# the entry decision is tested against the search oracle on these scenes,
# every order of each: the overlapping and tangent presets, and random
# overlapping scenes of 3 and 4 balls (n = 4 has curves that share no ball)
ENTRY_ORACLE_SCENES = ["transition-overlapping", "transition-tangent", "flexdemo-overlapping",
                       "flexdemo-tangent", (3, 0), (3, 1), (4, 0), (4, 1)]


@pytest.mark.parametrize("key", ENTRY_ORACLE_SCENES, ids=str)
def test_entry_decision_against_search_oracle(key):
    # rows are the lattice directions whose disks meet, the rows entry
    # semantics decides.  Every row called feasible has a witness whose
    # entries, read independently, are in order up to the band plus the
    # square-root roundoff of a witness on a rim: a point 1 ulp inside a rim
    # has a depth of sqrt(2 eps) radius, about 2e-8, so the tolerance is the
    # band plus 1e-7 diameter.  The grid-400 search oracle, run on the
    # infeasible rows closest to feasible ones and on random infeasible
    # rows, finds no transversal the decision missed.
    scene = preset_scene(key) if isinstance(key, str) else random_overlapping_scene(*key)
    U = fibonacci_sphere(2048)
    U = U[minimax_slack_batch(scene.centers, scene.radii, U) <= scene.band]
    tol = scene.band + 1e-7 * scene.diameter
    rng = np.random.default_rng(0)
    feasible_rows = 0
    for order in itertools.permutations(range(len(scene))):
        ok, witness = cone._entry_witnesses(scene, U, order)
        assert np.all(np.isnan(witness[~ok])) and np.all(np.isfinite(witness[ok]))
        for u, w in zip(U[ok], witness[ok]):
            entry = line_entry_parameters(w, u, scene, scene.band)
            assert None not in entry, (order, u)
            assert min(entry[b] - entry[a] for a, b in zip(order, order[1:])) >= -tol, (order, u)
        feasible_rows += int(np.sum(ok))
        rows = np.nonzero(~ok)[0]
        near = np.max(U[rows] @ U[ok].T, axis=1, initial=-1.0)
        picked = np.union1d(rows[np.argsort(-near, kind="stable")[:6]],
                            rng.choice(rows, min(4, len(rows)), replace=False))
        margin = entry_order_margin(scene, U[picked], order)
        assert np.all(margin < -scene.band), (order, U[picked][margin >= -scene.band])
    assert feasible_rows > 0


def test_entry_decision_reads_depths_from_the_construction():
    # on flexdemo-overlapping this lattice direction has transversals in
    # order (0, 1, 2) (the oracle's best margin is 8.5e-5), and the only
    # candidates that show it are where the circle of spheres 0 and 1
    # touches the rim of ball 1: there e_0 = e_1 exactly, but the depths
    # sqrt(r^2 - d^2) of the float point put the gap at -1.5e-8, below -band
    scene = preset_scene("flexdemo-overlapping")
    u = np.array([[-0.22106119020472767, 0.9673104564782788, -0.124267578125]])
    assert entry_order_margin(scene, u, (0, 1, 2))[0] > 0
    assert entry_order_feasible(scene, u, (0, 1, 2))[0]


class TestPermutations:
    def test_collinear_has_one_permutation(self):
        cat = enumerate_geometric_permutations(sample_scene(collinear_scene(), 2000))
        assert cat["count"] == 1
        assert [e["permutation"] for e in cat["permutations"]] == [[0, 1, 2]]

    def test_thinly_distributed_catalog_matches_components(self):
        # tiny balls spaced along a line: genuinely thinly distributed
        # (every center distance at least twice the sum of the two radii)
        rng = np.random.default_rng(9)
        centers, radii = [], []
        t = 0.0
        axis = np.array([1.0, 0.2, -0.1])
        axis /= np.linalg.norm(axis)
        for k in range(4):
            radii.append(rng.uniform(0.2, 0.35))
            centers.append(t * axis + 0.05 * rng.normal(size=3))
            t += 3.0
        scene = Scene(centers, radii)
        assert scene_classification(scene).thinly_distributed
        sset = sample_scene(scene, 20000, seed=0)
        cat = enumerate_geometric_permutations(sset)
        comp = count_components(sset)
        assert cat["count"] >= 1
        assert comp["count"] == cat["count"]

    def test_two_permutation_scene(self):
        from linestab.cli import preset_scene

        scene = preset_scene("two-permutations")
        sset = sample_scene(scene, 20000, seed=0)
        cat = enumerate_geometric_permutations(sset)
        assert cat["count"] == 2
        assert _catalog_by_loop(sset) == [
            (tuple(e["permutation"]), tuple(e["witness_order"]), e["witness_slack"],
             e["sample_count"])
            for e in cat["permutations"]
        ]
        for entry in cat["permutations"]:
            witness = evaluate_directions(scene, np.array(entry["witness"])[None, :])
            assert witness.feasible_for_order(entry["witness_order"])[0]

    def test_canonicalization(self):
        assert canonical_permutation((2, 1, 0)) == (0, 1, 2)
        assert canonical_permutation((1, 0, 2)) == (1, 0, 2)


class TestComponents:
    def test_collinear_single_component(self):
        rep = count_components(sample_scene(collinear_scene(), 4000))
        assert rep["count"] == 1
        assert not rep["undersampled"]

    def test_two_corridor_scene(self):
        from linestab.cli import preset_scene

        scene = preset_scene("two-permutations")
        rep = count_components(sample_scene(scene, 20000))
        assert rep["count"] == 2

    def test_components_equal_permutations_random(self):
        for seed in (2, 6):
            scene, _ = random_scene_with_transversal(4, 3, (0.7, 1.3), seed=seed)
            sset = sample_scene(scene, 20000, seed=0)
            cat = enumerate_geometric_permutations(sset)
            rep = count_components(sset)
            assert rep["count"] == cat["count"]

    def test_plane_scenes_form_one_component(self):
        # in R^2 the sample is evenly spaced angles: seeded Gaussian rows left
        # gaps wider than the clustering radius and split one cone into many
        pair = Scene([[0, 0], [5, 0]], [1.0, 1.0])
        five, _ = random_scene_with_transversal(5, 2, (1.0, 2.0), seed=3)
        for scene in (pair, five):
            for samples in (500, 2000, 20000):
                sset = sample_scene(scene, samples, seed=0)
                rep = count_components(sset)
                cat = enumerate_geometric_permutations(sset)
                assert rep["count"] == cat["count"] == 1

    def test_empty_scene_reports_zero(self):
        s = 100.0
        scene = Scene([[0, 0, 0], [s, 0, 0], [s / 2, s, 0]], [1.0, 1.0, 1.0])
        rep = count_components(sample_scene(scene, 2000))
        assert rep["count"] == 0
        assert rep["feasible_samples"] == rep["neighbour_pairs"] == 0

    @pytest.mark.parametrize("name", ["flexdemo-tangent", "flexdemo-overlapping"])
    def test_touching_cones_give_one_count_under_every_labelling(self, name):
        # two cones of different orders touch along a tie; the directions
        # form one cluster of lines however the balls are numbered
        scene = preset_scene(name)
        for perm in itertools.permutations(range(3)):
            rep = count_components(sample_scene(moved_scene(scene, perm), 20000))
            assert rep["count"] == 1, perm

    def test_two_permutations_at_acceptance_budget(self):
        # the clusters and neighbour pairs the one-axis sweep found at 1e5
        # samples, to the sample
        from linestab.cli import preset_scene

        scene = preset_scene("two-permutations")
        sset = sample_scene(scene, 100_000, seed=0)
        rep = count_components(sset)
        assert rep["count"] == 2
        assert rep["cluster_sizes"] == [7713, 2399]
        assert rep["feasible_samples"] == int(np.sum(sset.feasible)) == 10112
        assert rep["neighbour_pairs"] == 185181


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 4), caps=st.integers(1, 6))
def test_components_match_the_line_graph(seed, d, caps):
    # feasible samples in random caps, some across the seam of every axis:
    # the count, sizes and pairs are those of the graph joining two samples
    # when min(|u - v|, |u + v|) is within the chord, taken pair by pair
    rng = np.random.default_rng(seed)
    samples = {2: 400, 3: 4000, 4: 6000}[d]
    U = sample_directions(d, samples, seed)
    centres = rng.normal(size=(caps, d))
    centres[: caps // 2, rng.integers(0, d)] = 0.0  # on the equator of an axis
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    feasible = np.any(np.abs(U @ centres.T) >= np.cos(rng.uniform(0.05, 0.4, size=caps)), axis=1)
    scene = Scene(np.outer([0.0, 3.0, 6.0], np.eye(d)[0]), np.ones(3))
    sset = cone.ConeSampleSet(scene, U, np.where(feasible, -1.0, 1.0),
                              np.tile(np.arange(3), (samples, 1)), np.zeros(samples, dtype=bool))
    rep = count_components(sset)

    F = U[feasible]
    theta = cone.NEIGHBOUR_SPACINGS * cone.lattice_spacing(d, samples)
    chord = 2.0 * math.sin(min(theta, math.pi) / 2.0)
    near = np.zeros((len(F), len(F)), dtype=bool)
    for sign in (-1.0, 1.0):
        dist_sq = np.zeros(near.shape)
        for c in range(d):
            dist_sq += (sign * F[None, :, c] - F[:, None, c]) ** 2
        near |= dist_sq <= chord * chord
    i, j = np.nonzero(np.triu(near, 1))
    labels = np.arange(len(F))
    for _ in range(len(F)):
        low = np.minimum(labels[i], labels[j])
        if np.array_equal(labels[i], low) and np.array_equal(labels[j], low):
            break
        np.minimum.at(labels, i, low)
        np.minimum.at(labels, j, low)
    sizes = sorted(np.unique(labels, return_counts=True)[1].tolist(), reverse=True)
    assert rep["feasible_samples"] == len(F)
    assert rep["neighbour_pairs"] == len(i)
    assert rep["cluster_sizes"] == sizes and rep["count"] == len(sizes)


@settings(max_examples=30, deadline=None)
@given(
    source=st.one_of(
        st.sampled_from(PRESET_NAMES),
        st.tuples(st.integers(0, 500), st.sampled_from([(4, 3), (5, 3), (4, 4), (5, 4)])),
    ),
    labels=st.permutations(range(5)),
)
@example(source="flexdemo-tangent", labels=(0, 2, 1, 3, 4))
@example(source="flexdemo-overlapping", labels=(1, 2, 0, 3, 4))
def test_component_count_does_not_depend_on_labels(source, labels):
    # relabelling the balls moves no direction: the count is the same, and
    # where the feasible samples are the same, so is the whole report
    if isinstance(source, str):
        scene, samples = preset_scene(source), 20000
    else:
        (seed, (n, d)), samples = source, 6000
        scene = random_scene_with_transversal(n, d, (0.4, 1.2), seed=seed)[0]
    perm = [p for p in labels if p < len(scene)]
    base = sample_scene(scene, samples)
    d = scene.dimension
    moved = sample_scene(moved_scene(scene, perm), samples)
    rep, moved_rep = count_components(base), count_components(moved)
    assert moved_rep["count"] == rep["count"]
    if np.array_equal(moved.feasible, base.feasible):
        assert moved_rep == rep


def _close_pair_set(points, chord) -> set[tuple[int, int]]:
    a, b = cone._close_pairs(np.asarray(points, dtype=float), chord)
    pairs = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
    assert len(pairs) == len(a) and not np.any(a == b)  # each pair once
    return pairs


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 400),
    d=st.integers(2, 6),
    kind=st.sampled_from(["unit", "antipodal", "duplicates", "lattice"]),
    log_chord=st.floats(-9.0, 0.3),
)
def test_close_pairs_match_the_oracle(seed, n, d, kind, log_chord):
    rng = np.random.default_rng(seed)
    chord = 10.0 ** log_chord
    if kind == "lattice":
        # integer multiples of the chord: many pairs at exactly chord
        X = chord * rng.integers(-3, 4, size=(n, d))
    else:
        X = rng.normal(size=(n, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        if kind == "antipodal":
            # rows and their antipodes as count_components passes them: each
            # flipped to u_w >= 0 on its seam axis w, then a negated copy of
            # every row within the chord of that seam
            X[: n // 2] = -X[n - n // 2:]
            w = int(np.argmin(np.count_nonzero(np.abs(X) <= chord, axis=0)))
            X = np.where((X[:, w] < 0.0)[:, None], -X, X)
            X = np.vstack([X, -X[X[:, w] <= chord]])
        elif kind == "duplicates":
            X = X[rng.integers(0, max(1, n // 4), size=n)]
    assert _close_pair_set(X, chord) == close_pairs(X, chord)


def test_close_pairs_batches_a_crowded_cell(monkeypatch):
    # every row in one cell: the pairs still come out whole across batches
    monkeypatch.setattr(cone, "_PAIR_BATCH", 97)
    X = np.random.default_rng(3).normal(size=(300, 5)) * 1e-3
    every = set(itertools.combinations(range(300), 2))
    assert _close_pair_set(X, 1.0) == close_pairs(X, 1.0) == every


def test_close_pair_cell_keys_fit_int64():
    # at chord 1e-9 over a spread of 2 each axis has about 2^30 cells, so
    # only two of the five axes fit a key
    X = np.random.default_rng(4).normal(size=(300, 5))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X[1] = X[0] + 1e-10
    key, strides = cone._cell_keys(X, 1e-9, np.arange(5))
    assert len(strides) == 2 and np.all(key > 0)
    assert _close_pair_set(X, 1e-9) == close_pairs(X, 1e-9) == {(0, 1)}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 20), rows=st.integers(0, 300))
@example(seed=0, n=16, rows=300)
@example(seed=0, n=3, rows=0)
def test_catalog_matches_the_loop(seed, n, rows):
    # a few orders, read forward or reversed and repeated, and two more equal
    # to the first but for its first or its last two balls, with infeasible
    # and tied rows among them: ConeSampleSet.cones lists each feasible row
    # once, under its order, the orders in lexicographic order, and the
    # catalogue groups them as the loop does, for every n
    rng = np.random.default_rng(seed)
    scene = Scene(np.outer(3.0 * np.arange(n), [1.0, 0.0, 0.0]), np.ones(n))
    base = np.array([rng.permutation(n) for _ in range(rng.integers(1, 6))])
    base = np.vstack([base, base[:1], base[:1]])
    base[-2, :2] = base[-2, :2][::-1]
    base[-1, -2:] = base[-1, -2:][::-1]
    orders = base[rng.integers(0, len(base), size=rows)]
    flip = rng.random(rows) < 0.5
    orders[flip] = orders[flip, ::-1]
    slacks = rng.choice([-1.0, -0.5, 0.0, 1.0], size=rows)  # repeats, and infeasible rows
    ties = rng.random(rows) < 0.1
    sset = cone.ConeSampleSet(scene, rng.normal(size=(rows, 3)), slacks, orders, ties)
    want = {}
    for m in range(rows):
        if slacks[m] <= scene.band and not ties[m]:
            want.setdefault(tuple(int(i) for i in orders[m]), []).append(m)
    cones = sset.cones()
    assert [order for order, _ in cones] == sorted(want)
    assert [group.tolist() for _, group in cones] == [want[order] for order in sorted(want)]
    cat = enumerate_geometric_permutations(sset)
    assert _catalog_by_loop(sset) == [
        (tuple(e["permutation"]), tuple(e["witness_order"]), e["witness_slack"], e["sample_count"])
        for e in cat["permutations"]
    ]
    assert cat["count"] == len(cat["permutations"])


def _catalog_by_loop(sset):
    """Reference catalog: first-seen permutations, first smallest-slack witness."""
    entries = {}
    for m in np.nonzero(sset.feasible)[0]:
        order = tuple(int(i) for i in sset.orders[m])
        canon = canonical_permutation(order)
        if canon not in entries:
            entries[canon] = [order, float(sset.slacks[m]), 0]
        elif sset.slacks[m] < entries[canon][1]:
            entries[canon][:2] = [order, float(sset.slacks[m])]
        entries[canon][2] += 1
    return [(canon, *entry) for canon, entry in entries.items()]


class TestHellyConsistency:
    def test_scene_feasibility_is_triple_conjunction(self):
        scene, _ = random_scene_with_transversal(6, 3, (0.6, 1.2), seed=4)
        U = sample_directions(3, 150, seed=0)
        # include directions near the construction axis so both verdicts occur
        rng = np.random.default_rng(1)
        extra = []
        base = scene.centers[-1] - scene.centers[0]
        base /= np.linalg.norm(base)
        for _ in range(50):
            v = base + 0.15 * rng.normal(size=3)
            extra.append(v / np.linalg.norm(v))
        U = np.vstack([U, extra])
        scene_slacks = minimax_slack_batch(scene.centers, scene.radii, U)
        feas_scene = scene_slacks <= 1e-9
        conj = np.ones(len(U), dtype=bool)
        for sub in itertools.combinations(range(6), 3):
            centers = scene.centers[list(sub)]
            radii = scene.radii[list(sub)]
            conj &= minimax_slack_batch(centers, radii, U) <= 1e-9
        mismatches = np.sum(feas_scene != conj)
        assert mismatches == 0
        assert np.sum(feas_scene) > 0  # non-vacuous


def _probe_feasible_fraction(triple, u, eps=1e-4, probes=16):
    """Share of ``probes`` directions at angle ``eps`` around u that are
    feasible for u's meeting order: 1 inside the cone, between 0 and 1 on
    its boundary, as long as eps is small against the distance to it."""
    scene = triple.scene
    order, tie = center_order(scene, u)
    assert not tie
    basis = orthonormal_basis_of_complement(u)
    phis = 2.0 * math.pi * (np.arange(probes) + 0.5) / probes
    tangents = np.cos(phis)[:, None] * basis[0] + np.sin(phis)[:, None] * basis[1]
    pts = math.cos(eps) * u + math.sin(eps) * tangents
    return float(np.mean(evaluate_directions(scene, pts).feasible_for_order(order)))


def _ray_root_directions(triple):
    """The sextic directions classify-boundary classifies by default: sigma's
    roots along 8 boundary rays."""
    return cone.sextic_ray_directions(triple, 8)[0]


def _criterion_5_triples():
    """The 20 random triples and the 5-gap sweep of acceptance criterion 5."""
    for seed in range(300, 320):
        yield random_triple(seed, (0.7, 1.5))
    for g in (0.2, 0.1, 0.05, 0.02, 0.008):
        yield Triple(Scene([[0, 0, 0], [2.0 + g, 0, 0], [1.1, 2.2, 0]], [1.0, 1.0, 1.0]))


def _per_cone_exits(triple, count):
    """cone._boundary_exits cone by cone: one sigma_roots_on_rays call and one
    evaluate_directions call per cone, every slack from the kernel."""
    triple = float_safe_triple(triple)[0]
    scene = triple.scene
    band = scene.band
    R = scene.radii + band
    i, j = np.triu_indices(3, 1)
    D = scene.centers[j] - scene.centers[i]
    DD, S = np.einsum("pd,pd->p", D, D), R[i] + R[j]
    cones, anchors, cone_of, all_tangents = cone._cone_rays(triple, count)
    points, curves = [np.zeros((0, 3))], [cone._EXIT_CURVES[:0]]
    for k, order in enumerate(cones):
        anchor, tangents = anchors[k], all_tangents[cone_of == k]
        n_rays = len(tangents)
        aD, tD = D @ anchor, cone._dot(tangents[:, None], D)
        nD = cone._dot(np.cross(anchor, tangents)[:, None], D)
        phi = np.arctan2(tD, aD)
        cand = np.concatenate([
            sigma_roots_on_rays(triple, R * R, anchor, tangents),
            cone._level_roots(phi, DD - S * S, S * S - nD * nD),
            cone._level_roots(phi, band * band, aD * aD + tD * tD - band * band),
        ], axis=1)
        by = np.argsort(cand, axis=1)
        cand = np.take_along_axis(cand, by, axis=1)
        edges = np.column_stack([np.zeros(n_rays), np.where(np.isnan(cand), math.pi, cand),
                                 np.full(n_rays, math.pi)])
        lo, hi = edges[:, :-1], edges[:, 1:]
        ok = np.ones(lo.shape, dtype=bool)
        span = hi > lo
        mids = cone._geodesic_point(anchor, tangents[np.nonzero(span)[0]], 0.5 * (lo + hi)[span])
        ok[span] = evaluate_directions(scene, mids).feasible_for_order(order)
        first = np.argmax(~ok, axis=1)
        assert np.all(first > 0)
        rays = np.arange(n_rays)
        points.append(_unit_rows(cone._geodesic_point(anchor, tangents, lo[rays, first])))
        curves.append(cone._EXIT_CURVES[by[rays, first - 1]])
    return np.concatenate(points), np.concatenate(curves)


def _assert_exits_match_bisection(tri, count):
    dirs = boundary_directions_for_triple(tri, count)
    assert dirs.shape == (count, 3)
    gap = np.max(np.linalg.norm(dirs - bisected_boundary_directions(tri, count), axis=1))
    assert gap <= 1e-12, gap


class TestBoundaryExits:
    """Each ray leaves its cone at a root of the sextic, a pair-cone conic or
    a tie-band edge; one kernel call per triple, prefiltered by the pair
    bound, decides between the roots."""

    def test_one_batch_per_triple_matches_the_per_cone_loop(self):
        # the batch takes D @ anchor per cone and decides every row on its
        # own, and the pair-bound cut only skips rows the kernel would find
        # infeasible, so the exits and their curves keep every bit
        checked = 0
        presets = [preset_scene(name) for name in PRESET_NAMES]
        copies = [moved_scene(s, scale=2.0 ** k) for s in presets for k in (-200, 200)]
        for tri in [*(Triple(s) for s in presets + copies), *_criterion_5_triples()]:
            dirs, curves = cone._boundary_exits(tri, 200)
            want_dirs, want_curves = _per_cone_exits(tri, 200)
            assert np.array_equal(dirs, want_dirs) and np.array_equal(curves, want_curves)
            checked += len(dirs) > 0
        assert checked == 3 * (len(PRESET_NAMES) - 1) + 25  # pinned has no cone

    def test_cone_rays_match_the_per_cone_masks(self):
        # the catalogue gives the cones, sorted, and the anchors, bit for bit,
        # of a set of the feasible orders and one mask and argmin per cone
        triples = [Triple(preset_scene(name)) for name in PRESET_NAMES]
        for tri in triples + [random_triple(seed, (0.7, 1.5)) for seed in range(300, 304)]:
            tri = float_safe_triple(tri)[0]
            cones, anchors, _, _ = cone._cone_rays(tri, 200)
            sset = sample_scene(tri.scene, cone.BOUNDARY_LATTICE)
            want = sorted({tuple(sset.orders[m].tolist()) for m in np.flatnonzero(sset.feasible)})
            assert cones == want[:200]
            for k, order in enumerate(cones):
                idx = np.flatnonzero(sset.feasible_for_order(order))
                deepest = sset.directions[idx[np.argmin(sset.slacks[idx])]]
                assert anchors[k].tobytes() == deepest.tobytes()

    @pytest.mark.parametrize("name", ["flexdemo-disjoint", "transition-disjoint", "two-permutations"])
    def test_presets_match_bisection(self, name):
        from linestab.cli import preset_scene

        _assert_exits_match_bisection(Triple(preset_scene(name)), 200)

    def test_criterion_5_triples_match_bisection(self):
        for tri in _criterion_5_triples():
            _assert_exits_match_bisection(tri, 200)

    @pytest.mark.parametrize("name", ["flexdemo-disjoint", "two-permutations", "flexdemo-tangent"])
    def test_exits_lie_on_their_curves(self, name):
        from linestab.cli import preset_scene

        tri = Triple(preset_scene(name))
        scene = tri.scene
        band = scene.band
        dirs, curves = cone._boundary_exits(tri, 200)
        eps = 1e-12 * scene.diameter
        slacks = minimax_slack_batch(scene.centers, scene.radii, dirs)
        for u, slack, curve in zip(dirs, slacks, curves):
            kind, pair = (curve + " ").split(" ")[:2]
            if kind != "tie":  # the disks just share a point
                assert abs(slack - band) <= eps, (curve, slack)
            if kind == "sextic":
                continue
            i, j = int(pair[0]), int(pair[1])
            D = scene.centers[j] - scene.centers[i]
            if kind == "conic":
                gap = math.sqrt(D @ D - (u @ D) ** 2) - scene.radii[i] - scene.radii[j] - 2 * band
            else:
                gap = abs(u @ D) - band
            assert abs(gap) <= eps, (curve, gap)
        # the cones of disjoint balls end before any tie
        assert not any(c.startswith("tie") for c in curves) or scene.allow_overlap

    def test_sextic_exits_are_the_rows_with_three_positive_weights(self):
        # an exit lies on a sextic arc exactly when the kernel's minimax point
        # has all three disks in its support; the weights are exact zeros off
        # the support, so no roundoff decides this.  flexdemo-overlapping
        # breaks it (conic exits with three positive weights) and is left out
        names = [name for name in PRESET_NAMES if not name.endswith("-overlapping")]
        sextic = {}
        for key, tri in [*((name, Triple(preset_scene(name))) for name in names),
                         *enumerate(_criterion_5_triples())]:
            tri = float_safe_triple(tri)[0]
            dirs, curves = cone._boundary_exits(tri, 200)
            weights = minimax_weights_batch(tri.scene.centers, tri.scene.radii, dirs)
            np.testing.assert_array_equal(curves == "sextic", np.all(weights > 0, axis=1))
            sextic[key] = int(np.sum(curves == "sextic"))
        assert [sextic[name] for name in ("two-permutations", "flexdemo-disjoint",
                                          "flexdemo-tangent")] == [23, 16, 56]
        # criterion 5: no sextic exit on its 20 random triples, 16 to 48 on its gap sweep
        assert [sextic[k] for k in range(25)] == [0] * 20 + [16, 31, 37, 44, 48]

    def test_kernel_calls_do_not_grow_with_count(self, monkeypatch):
        from linestab.cli import preset_scene

        calls = []
        kernel = cone.minimax_slack_batch
        monkeypatch.setattr(cone, "minimax_slack_batch", lambda *a: calls.append(1) or kernel(*a))
        tri = Triple(preset_scene("flexdemo-disjoint"))
        per_count = []
        for count in (20, 400):
            calls.clear()
            assert len(boundary_directions_for_triple(tri, count)) == count
            per_count.append(len(calls))
        assert per_count == [2, 2]  # the lattice sample, then one for every cone's rays

    def test_ray_without_exit_raises(self, monkeypatch):
        monkeypatch.setattr(cone.ConeSampleSet, "feasible_for_order",
                            lambda self, order=None, order_semantics="center":
                            np.ones(len(self.directions), bool))
        with pytest.raises(SolverError, match="boundary ray 0 of cone"):
            boundary_directions_for_triple(random_triple(300, (0.7, 1.5)), 10)

    def test_ray_without_exit_is_counted_within_its_cone(self, monkeypatch):
        # only the last cone is feasible everywhere: its first ray is ray 0,
        # though the rays of the cones before it come first in the batch
        tri = Triple(preset_scene("two-permutations"))
        cones = cone._cone_rays(float_safe_triple(tri)[0], 10)[0]
        assert len(cones) == 4
        feasible = cone.ConeSampleSet.feasible_for_order
        monkeypatch.setattr(cone.ConeSampleSet, "feasible_for_order",
                            lambda self, order=None, order_semantics="center":
                            np.ones(len(self.directions), bool) if order == cones[-1]
                            else feasible(self, order, order_semantics))
        with pytest.raises(SolverError, match=re.escape(f"boundary ray 0 of cone {cones[-1]} ")):
            boundary_directions_for_triple(tri, 10)

    @pytest.mark.parametrize("name", [
        "collinear", "pinned", "two-permutations", "transition-disjoint", "transition-tangent",
        "transition-overlapping", "flexdemo-disjoint", "flexdemo-tangent",
    ])
    def test_every_requested_point_is_delivered(self, name):
        from linestab.cli import preset_scene
        from linestab.flexprobe import certify_flex_free

        tri = Triple(preset_scene(name))
        rep = certify_flex_free(tri, boundary_samples=37)
        lattice_feasible = np.any(sample_scene(tri.scene, 4096).feasible)
        assert len(rep.samples) == (37 if lattice_feasible else 0)
        assert lattice_feasible or name == "pinned"


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 500),
    shift=st.floats(-100.0, 100.0, allow_nan=False),
    angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi, allow_nan=False)] * 2),
    log_scale=st.floats(-3.0, 3.0, allow_nan=False),
)
def test_exits_match_bisection_under_similarity(seed, shift, angles, log_scale):
    a, b = angles
    Rz = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    Rx = np.array([[1, 0, 0], [0, math.cos(b), -math.sin(b)], [0, math.sin(b), math.cos(b)]])
    scale = 10.0 ** log_scale
    scene, _ = random_scene_with_transversal(3, 3, (0.7, 1.5), seed=seed)
    moved = moved_scene(scene, rotation=Rz @ Rx, scale=scale,
                        shift=scale * shift * np.array([1.0, -0.7, 0.3]))
    _assert_exits_match_bisection(Triple(moved), 24)


class TestBoundaryClassification:
    def test_crossing_directions_classified(self):
        from linestab.cli import preset_scene

        tri = Triple(preset_scene("flexdemo-disjoint"))
        dirs = boundary_directions_for_triple(tri, 40)
        # bitangent-arc boundary directions are not on the sextic
        on_sextic = dirs[np.abs(eval_sigma(tri, dirs)) <= 1e-7 * tri.sigma_scale]
        agree = 0
        for cls in classify_boundary_direction(tri, on_sextic):
            if cls["on_boundary"] is None or cls["crosses_triangle"] is None:
                continue
            assert cls["on_boundary"] == cls["crosses_triangle"]
            assert cls["on_boundary"]  # boundary directions cross the triangle
            agree += 1
        assert agree >= 3

    def test_interior_sigma_direction_not_boundary(self):
        # the disjoint demo triple has sextic-Hessian crossings strictly
        # inside the feasible set; those directions are interior, and every
        # perturbation around them stays feasible
        from linestab.cli import preset_scene
        from linestab.sextic import chart_point_to_direction, trace_curves

        tri = Triple(preset_scene("flexdemo-disjoint"))
        scene = tri.scene
        traces = trace_curves(tri, chart="u2", grid=160, extent=2.5)
        checked = 0
        for poly in traces.curves["sigma"]:
            for x, y in poly[::7]:
                u = chart_point_to_direction("u2", x, y)
                u /= np.linalg.norm(u)
                slack = minimax_slack_batch(scene.centers, scene.radii, u[None, :])[0]
                if slack < -5e-3:  # strictly interior sextic point
                    [cls] = classify_boundary_direction(tri, [u])
                    if cls["crosses_triangle"] is None:
                        continue
                    assert cls["on_boundary"] is False
                    assert cls["crosses_triangle"] is False
                    assert _probe_feasible_fraction(tri, u) == 1.0
                    checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("name", ["flexdemo-disjoint", "two-permutations", 300, 301])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_similarity_invariant(self, name, scale):
        # moved, rotated, scaled and relabelled, with the directions rotated
        # to match: every root direction that classify-boundary classifies
        # keeps both verdicts
        from linestab.cli import preset_scene

        tri = (Triple(preset_scene(name)) if isinstance(name, str)
               else random_triple(name, (0.7, 1.5)))
        a, b = 0.7, 2.1
        Q = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
        Q = Q @ np.array([[1, 0, 0], [0, math.cos(b), -math.sin(b)], [0, math.sin(b), math.cos(b)]])
        moved = Triple(
            moved_scene(tri.scene, (2, 0, 1), Q, scale, scale * np.array([30.0, -21.0, 9.0]))
        )
        U = _ray_root_directions(tri)
        assert len(U) > 0
        pairs = zip(U, classify_boundary_direction(tri, U), classify_boundary_direction(moved, U @ Q.T))
        for u, before, after in pairs:
            assert (after["on_boundary"], after["crosses_triangle"]) == (
                before["on_boundary"], before["crosses_triangle"]
            ), u

    @pytest.mark.parametrize("name", ["flexdemo-disjoint", "two-permutations"])
    def test_batch_rows_match_single_rows(self, name):
        from linestab.cli import preset_scene

        tri = Triple(preset_scene(name))
        U = _ray_root_directions(tri)
        batch = classify_boundary_direction(tri, U)
        assert len(batch) == len(U) > 0
        for u, cls in zip(U, batch):
            [one] = classify_boundary_direction(tri, u[None, :])
            for key in ("on_boundary", "crosses_triangle", "tag"):
                assert cls[key] == one[key], (key, u)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_batch_rows_are_single_rows_bit_for_bit(self, name):
        # the rows classify-boundary classifies by default, and three rows
        # off the sextic: the tangent feet of N rows and their dicts are
        # those of N one-row calls; all but the slack, the disk-minimax
        # kernel's, whose last bits still depend on the batch (ROADMAP item 4)
        tri, _ = float_safe_triple(Triple(preset_scene(name)))
        off = np.array([[0.12, 0.93, -0.41], [0.6, 0.0, 0.8], [-0.3, 0.4, 0.866]])
        U = np.concatenate([_ray_root_directions(tri), off / np.linalg.norm(off, axis=1)[:, None]])
        feet, errors = tangent_lines_for_direction(tri, U)
        batch = classify_boundary_direction(tri, U)
        for i in range(len(U)):
            one_feet, one_errors = tangent_lines_for_direction(tri, U[i:i + 1])
            assert np.array_equal(one_feet[0], feet[i], equal_nan=True), (name, i)
            assert one_errors == [errors[i]]
            [one] = classify_boundary_direction(tri, U[i:i + 1])
            assert list(one) == list(batch[i]), (name, i)
            assert all(one[k] == batch[i][k] for k in one if k != "slack"), (name, i)

    @pytest.mark.parametrize("z", [-7.991595998085517e-09, 7.991595998085517e-09])
    def test_tangent_lines_are_scale_free(self, z):
        # two traced sextic directions of the tangent demo triple, 8e-9 off
        # the plane of centres, where the tangent-line solve is rank-marginal
        from linestab.cli import preset_scene

        scene = preset_scene("flexdemo-tangent")
        u = [0.4472135954999579, 0.8944271909999159, z]
        verdicts = set()
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            tri = Triple(moved_scene(scene, scale=scale))
            [cls] = classify_boundary_direction(tri, [u])
            verdicts.add((cls["crosses_triangle"], cls["tag"]))
        assert len(verdicts) == 1, verdicts

    def test_tangent_recovery_goes_through_its_public_name(self, monkeypatch):
        # per-layer tracing wraps public names only, so the tangent-recovery
        # metric counts classify-boundary only while its one batch is a call
        # through cone's binding of sextic.tangent_lines_for_direction
        calls = []
        recover = cone.tangent_lines_for_direction
        monkeypatch.setattr(cone, "tangent_lines_for_direction",
                            lambda *args: calls.append(len(args[1])) or recover(*args))
        tri = Triple(preset_scene("two-permutations"))
        U = _ray_root_directions(tri)
        assert len(classify_boundary_direction(tri, U)) == len(U) > 1
        assert calls == [len(U)]

    def test_collinear_tagged(self):
        tri = Triple(collinear_scene())
        [cls] = classify_boundary_direction(tri, [[1, 0, 0]])
        assert cls["tag"] is not None
        assert cls["on_boundary"] is None


class TestPinning:
    def pinned_triple(self):
        return Triple(Scene([[0, 1, 0], [3, -1, 0], [6, 1.5, 0]], [1.0, 1.0, 1.5]))

    def test_pinned_configuration_detected(self):
        assert is_pinned_planar(self.pinned_triple())

    def test_pinned_cone_is_a_single_direction(self):
        tri = self.pinned_triple()
        scene = tri.scene
        axis = np.array([1.0, 0.0, 0.0])
        sset = sample_with_directions(scene, 20000, axis[None, :])
        feas_dirs = sset.directions[sset.slacks <= 1e-9]
        assert len(feas_dirs) >= 1
        cos = np.abs(feas_dirs @ axis)
        assert np.all(cos >= np.cos(1e-3))

    def test_generic_triple_not_pinned(self):
        assert not is_pinned_planar(random_triple(2))

    def test_collinear_not_pinned(self):
        assert not is_pinned_planar(Triple(collinear_scene()))


class TestInvariance:
    """Verdicts are properties of the geometry, not of where the scene sits."""

    def test_translation_repro(self):
        # centers shifted by up to 10^6 along a generic vector: no feasibility
        # verdict flips and the convexity theorem still shows no violation
        scene, axis = random_scene_with_transversal(5, 3, (0.8, 2.0), seed=3)
        order, _ = center_order(scene, axis)
        U = fibonacci_sphere(20000)
        sset0 = evaluate_directions(scene, U)
        mask0, slack0 = sset0.feasible_for_order(order), sset0.slacks
        assert np.sum(mask0) > 0
        for s in (1e3, 1e4, 1e5, 1e6):
            moved = moved_scene(scene, shift=s * np.array([1.0, -0.7, 0.3]))
            sset = evaluate_directions(moved, U)
            mask, slack = sset.feasible_for_order(order), sset.slacks
            assert np.max(np.abs(slack - slack0)) <= 1e-9 * scene.diameter
            assert np.array_equal(mask, mask0), s
            # the same directions through the pair-cone prefilter
            sampled = sample_scene(moved, len(U)).feasible_for_order(order)
            assert np.array_equal(sampled, mask0), s
        rep = cone_convexity_check(moved, order)
        assert rep["pass"] and rep["violations"] == []

    def test_scale_repro(self):
        # the feasibility mask of 2 * 10^4 rows around the scene's axis flipped
        # 5147 rows at scale 10^-9 while the tolerance was an absolute 1e-9
        scene, axis = random_scene_with_transversal(5, 3, (0.5, 2.0), seed=4)
        order, _ = center_order(scene, axis)
        U = axis + 0.3 * np.random.default_rng(0).normal(size=(20000, 3))
        mask0 = evaluate_directions(scene, U).feasible_for_order(order)
        assert 0 < np.sum(mask0) < len(U)
        for s in (1e-9, 1e-6, 1e6, 1e9, 2.0 ** -30, 2.0 ** 30):
            scaled = moved_scene(scene, scale=s)
            mask = evaluate_directions(scaled, U).feasible_for_order(order)
            assert np.array_equal(mask, mask0), (s, int(np.sum(mask != mask0)))
            assert scaled.band == pytest.approx(s * scene.band, rel=1e-15)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_collinear_centers_at_any_scale(name):
    # the test reads unit edges, so no absolute floor tags a small triangle
    # collinear: at 2^-200 it tagged every preset
    scene = preset_scene(name)
    want = Triple(scene).collinear_centers
    assert want == (name == "collinear")
    for k in (-300, -200, 0, 200, 300):
        assert Triple(moved_scene(scene, scale=2.0 ** k)).collinear_centers == want


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_triple_directions_do_not_read_the_scale(name):
    # directions do not scale: the 2^k copies of a preset give its boundary
    # exits, their curves and its sextic ray roots bit for bit (at 2^200 the
    # sextic's coefficients overflowed, at 2^-200 its roots were lost)
    tri = Triple(preset_scene(name))
    exits, curves = cone._boundary_exits(tri, 60)
    roots, rays = cone.sextic_ray_directions(tri, 8)
    assert len(exits) == (60 if rays else 0)  # pinned has no cone to cast rays from
    for k in (-200, 200):
        scaled = Triple(moved_scene(tri.scene, scale=2.0 ** k))
        exits_k, curves_k = cone._boundary_exits(scaled, 60)
        roots_k, rays_k = cone.sextic_ray_directions(scaled, 8)
        assert np.array_equal(exits_k, exits) and np.array_equal(curves_k, curves), k
        assert np.array_equal(roots_k, roots) and rays_k == rays, k


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_tangent_lines_do_not_read_the_scale(name):
    # the sextic ray roots, off-sextic rows among them, on the 2^k copies of
    # a preset: each copy's feet are the preset's scaled by 2^k, and its
    # classifications and slacks agree (at 2^200 sigma overflowed, and every
    # row read "not on the sextic"; at 2^-330 and 2^300 the squared norm of
    # the plane of centres' normal left the float range)
    tri = Triple(preset_scene(name))
    U = np.vstack([cone.sextic_ray_directions(tri, 8)[0], [[1.0, 0.0, 0.0], [0.3, -0.5, 0.8]]])
    want = classify_boundary_direction(tri, U)
    assert sum("error" not in cls for cls in want) >= (len(U) - 2 if name != "pinned" else 0)
    feet, errors = tangent_lines_for_direction(tri, U)
    for k in (-330, -200, -100, 100, 200, 300):
        scaled = Triple(moved_scene(tri.scene, scale=2.0 ** k))
        for u, cls, got in zip(U, want, classify_boundary_direction(scaled, U)):
            if cls.get("slack") is not None:
                cls = dict(cls, slack=math.ldexp(cls["slack"], k))
            assert got == cls, (k, u)
        feet_k, errors_k = tangent_lines_for_direction(scaled, U)
        assert errors_k == errors, k
        assert np.array_equal(feet_k, np.ldexp(feet, k), equal_nan=True), k


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 200),
    shift=st.floats(-1e6, 1e6, allow_nan=False),
    angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi, allow_nan=False)] * 3),
    perm=st.permutations(range(5)),
)
def test_verdicts_invariant_under_motion_and_relabelling(seed, shift, angles, perm):
    scene, axis = random_scene_with_transversal(5, 3, (0.8, 2.0), seed=seed)
    order, _ = center_order(scene, axis)
    rng = np.random.default_rng(seed)
    U = np.vstack([fibonacci_sphere(300), axis + 0.15 * rng.normal(size=(100, 3))])
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    sset0 = evaluate_directions(scene, U)
    mask0, slack0 = sset0.feasible_for_order(order), sset0.slacks

    a, b, c = angles
    Rz = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    Rx = np.array([[1, 0, 0], [0, math.cos(b), -math.sin(b)], [0, math.sin(b), math.cos(b)]])
    Ry = np.array([[math.cos(c), 0, math.sin(c)], [0, 1, 0], [-math.sin(c), 0, math.cos(c)]])
    Q = Rz @ Rx @ Ry
    moved = moved_scene(scene, perm, Q, shift=shift * np.array([1.0, -0.7, 0.3]))
    label = {old: new for new, old in enumerate(perm)}
    moved_order = tuple(label[i] for i in order)
    sset = evaluate_directions(moved, U @ Q.T)
    mask, slack = sset.feasible_for_order(moved_order), sset.slacks

    band = 1e-9 * scene.diameter
    assert np.max(np.abs(slack - slack0)) <= band
    clear = np.abs(slack0 - band) > band
    assert np.array_equal(mask[clear], mask0[clear])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 300),
    shape=st.sampled_from([(3, 3), (5, 3), (10, 3), (8, 4)]),
    exponent=st.integers(-30, 30),
    decimal=st.integers(-9, 9),
)
def test_sample_scene_is_scale_free(seed, shape, exponent, decimal):
    # scaling by a power of two is exact in floating point, so every slack
    # scales exactly and every mask and order stays; a power of ten rounds
    # the scene, which may move slacks by ulps but no verdict
    n, d = shape
    scene, _ = random_scene_with_transversal(n, d, (0.5, 2.0), seed=seed)
    base = sample_scene(scene, 2000, seed=seed)
    factor = 2.0 ** exponent
    sset = sample_scene(moved_scene(scene, scale=factor), 2000, seed=seed)
    feas = base.feasible
    assert np.array_equal(sset.feasible, feas)
    assert np.array_equal(sset.ties, base.ties)
    assert np.array_equal(sset.orders, base.orders)
    assert np.array_equal(sset.slacks[feas], factor * base.slacks[feas])
    sset = sample_scene(moved_scene(scene, scale=10.0 ** decimal), 2000, seed=seed)
    assert np.array_equal(sset.feasible, feas)
