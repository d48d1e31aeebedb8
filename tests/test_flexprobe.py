import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linestab.geom import SceneError
from linestab.sextic import Triple, float_safe_triple
from linestab.flexprobe import (
    CanonicalCoords,
    LiftedConfig,
    _Ratio,
    _scalar_dtype,
    certify_flex_free,
    gram_from_barycentrics,
    lifted_config_for_direction,
    lifted_hessian_decomposition,
    q_invariant,
    rebuilt_pair_gaps,
    star_h_canonical,
)
from conftest import (
    eval_hessian_sigma,
    flex_report_one_by_one,
    lifted_configs_one_by_one,
    lifted_triple,
    pair_gaps_one,
    random_triple,
    z_gaps,
)


def w_from_lifts(cfg):
    """Map the lift gaps of a configuration of one sample into hyperboloid
    coordinates: p_i p_j z_k = q_k^2 w_k."""
    [p] = cfg.weights
    z = z_gaps(cfg)
    [q2] = cfg.q_squared
    return np.array(
        [p[(k + 1) % 3] * p[(k + 2) % 3] * z[k] / q2[k] for k in range(3)]
    )


def random_config(seed):
    """One random float configuration, a batch of one."""
    r = np.random.default_rng(seed)
    return LiftedConfig(
        a=r.uniform(0.5, 2.0, size=1),
        b=r.uniform(-1.0, 1.0, size=1),
        c=r.uniform(0.3, 2.0, size=1),
        weights=r.uniform(0.2, 1.0, size=(1, 3)),
        lifts=r.uniform(-2.0, 2.0, size=(1, 3)),
    )


def random_batch(seed, m):
    """m random float configurations as one batch and as m batches of one."""
    r = np.random.default_rng(seed)
    a, b, c = r.uniform(0.5, 2.0, m), r.uniform(-1.0, 1.0, m), r.uniform(0.3, 2.0, m)
    w, x = r.uniform(0.2, 1.0, (m, 3)), r.uniform(-2.0, 2.0, (m, 3))
    batch = LiftedConfig(a=a, b=b, c=c, weights=w, lifts=x)
    singles = [LiftedConfig(a=a[k:k + 1], b=b[k:k + 1], c=c[k:k + 1], weights=w[k:k + 1],
                            lifts=x[k:k + 1]) for k in range(m)]
    return batch, singles


@pytest.mark.parametrize("m", [1, 2, 7, 300])
def test_float_batch_matches_singles_bitwise(m):
    # a sample axis changes no bit: each sample of a batch rounds as it
    # does alone, the powers included
    batch, singles = random_batch(m, m)
    split = lifted_hessian_decomposition(batch)
    parts = [lifted_hessian_decomposition(s) for s in singles]
    for name in ("H2", "H4", "prefactor"):
        assert np.array_equal(getattr(split, name),
                              np.concatenate([getattr(p, name) for p in parts])), name
    inv = q_invariant(batch)
    for name in ("Q", "Delta", "degenerate"):
        assert np.array_equal(getattr(inv, name),
                              np.concatenate([getattr(q_invariant(s), name) for s in singles]))
    assert np.array_equal(gram_from_barycentrics(batch),
                          np.concatenate([gram_from_barycentrics(s) for s in singles]))


def test_batch_shapes_checked():
    # a configuration is a batch: one sample without its sample axis is refused
    with pytest.raises(SceneError, match="per sample"):
        LiftedConfig(a=1.0, b=0.0, c=1.0, weights=np.ones(3), lifts=np.zeros(3))
    with pytest.raises(SceneError, match="per sample"):
        LiftedConfig(a=np.ones(2), b=np.zeros(2), c=np.ones(2), weights=np.ones((2, 2)),
                     lifts=np.zeros((2, 2)))
    with pytest.raises(SceneError, match="per sample"):
        LiftedConfig(a=np.ones(2), b=np.zeros(3), c=np.ones(2), weights=np.ones((2, 3)),
                     lifts=np.zeros((2, 3)))
    with pytest.raises(SceneError, match="nondegenerate"):
        LiftedConfig(a=np.array([1.0, -1.0]), b=np.zeros(2), c=np.ones(2),
                     weights=np.ones((2, 3)), lifts=np.zeros((2, 3)))


class TestLiftedConfig:
    def test_weights_normalized(self):
        cfg = LiftedConfig(a=[1], b=[0], c=[1], weights=[[2, 3, 5]], lifts=[[0, 0, 0]])
        assert np.isclose(cfg.weights[0].sum(), 1.0)
        np.testing.assert_allclose(cfg.weights, [[0.2, 0.3, 0.5]])

    def test_invalid_inputs(self):
        with pytest.raises(SceneError):
            LiftedConfig(a=[-1], b=[0], c=[1], weights=[[1, 1, 1]], lifts=[[0, 0, 0]])
        with pytest.raises(SceneError):
            LiftedConfig(a=[1], b=[0], c=[0], weights=[[1, 1, 1]], lifts=[[0, 0, 0]])
        with pytest.raises(SceneError):
            LiftedConfig(a=[1], b=[0], c=[1], weights=[[1, -1, 1]], lifts=[[0, 0, 0]])

    def test_q_edges_form_a_triangle(self):
        # the weighted vectors close a polygon, so their lengths always obey
        # the strict triangle inequality for interior points
        for seed in range(10):
            q = np.sort(np.sqrt(random_config(seed).q_squared[0]))
            assert q[0] + q[1] > q[2]

    def test_from_plane_data_canonical_frame(self):
        verts = np.array([[2.0, 1.0], [0.5, 3.0], [-1.0, 0.0]])
        pt = verts.mean(axis=0)
        cfg, reasons = LiftedConfig.from_plane_data(verts[None], pt[None], [[0.1, 0.2, 0.3]])
        assert reasons == [None] and cfg.a[0] > 0 and cfg.c[0] > 0
        # reconstructed interior point has the same vertex distances
        d_orig = np.linalg.norm(verts - pt, axis=1)
        np.testing.assert_allclose(np.sort(cfg.radii[0]), np.sort(d_orig), atol=1e-12)

    def test_from_plane_data_rejects_exterior_point(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cfg, [reason] = LiftedConfig.from_plane_data(verts[None], np.array([[2.0, 2.0]]),
                                                     [[0, 0, 0]])
        assert "interior" in reason and len(cfg.a) == 0


class TestGram:
    def test_equilateral_centroid_symmetry(self):
        # unit-side equilateral triangle, centroid: all off-diagonals equal
        # r^2 cos(120 deg) = -1/6
        cfg = LiftedConfig(
            a=[1.0], b=[0.5], c=[math.sqrt(3) / 2], weights=[[1, 1, 1]], lifts=[[0, 0, 0]]
        )
        [G] = gram_from_barycentrics(cfg)
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            assert np.isclose(G[i, j], -1.0 / 6.0, atol=1e-12)

    def test_matches_coordinate_oracle(self):
        for seed in range(8):
            cfg = random_config(seed)
            [v] = cfg.v_vectors
            np.testing.assert_allclose(gram_from_barycentrics(cfg)[0], v @ v.T, atol=1e-12)

    def test_annihilates_weights(self):
        for seed in range(8):
            cfg = random_config(seed)
            [G] = gram_from_barycentrics(cfg)
            np.testing.assert_allclose(G @ cfg.weights[0], 0.0, atol=1e-10)

    def test_rank_at_most_two(self):
        cfg = random_config(3)
        ev = np.linalg.eigvalsh(gram_from_barycentrics(cfg)[0])
        assert ev[0] >= -1e-10  # positive semidefinite
        assert np.sum(ev > 1e-10 * ev[-1]) <= 2


class TestQInvariant:
    def test_symmetric_value(self):
        cc = CanonicalCoords(np.array([1.0, 1.0, 1.0]))
        assert np.isclose(cc.Q, 3.0)

    def test_delta_equals_a2c2(self):
        for seed in range(8):
            cfg = random_config(seed)
            qi = q_invariant(cfg)
            [degenerate], [Delta] = qi.degenerate, qi.Delta
            assert not degenerate
            assert abs(Delta - cfg.a[0] ** 2 * cfg.c[0] ** 2) <= 1e-10 * Delta

    def test_degenerate_q_flagged(self):
        # bypassing the closed-polygon invariant: a q violating the triangle
        # inequality makes the Heron-type product nonpositive
        cc = CanonicalCoords(np.array([1.0, 1.0, 2.5]))
        assert cc.Q <= 0


class TestHessianSplit:
    def test_equal_lifts_vanish(self):
        cfg = LiftedConfig(a=[1.3], b=[0.2], c=[0.8], weights=[[1, 2, 3]], lifts=[[0.7, 0.7, 0.7]])
        split = lifted_hessian_decomposition(cfg)
        assert split.H2[0] == 0.0 and split.H4[0] == 0.0 and split.H_total[0] == 0.0

    def test_sign_split(self):
        for seed in range(12):
            split = lifted_hessian_decomposition(random_config(seed))
            assert split.H2[0] <= 0.0
            assert split.H4[0] >= 0.0

    def test_master_identity_against_sextic(self):
        for seed in range(10):
            cfg = random_config(seed)
            [H_total] = lifted_hessian_decomposition(cfg).H_total
            H = eval_hessian_sigma(lifted_triple(cfg), np.array([0.0, 0.0, 1.0]))
            assert abs(H - H_total) <= 1e-8 * max(abs(H), abs(H_total))


class TestStarH:
    def test_symmetric_constants(self):
        cc = CanonicalCoords(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(cc.linear_coeffs, 0.75)
        np.testing.assert_allclose(cc.beta, 0.375)
        assert np.isclose(cc.hyperboloid_constant, 27.0 / 64.0)
        s = cc.beta
        assert np.isclose(s[0] * s[1] + s[0] * s[2] + s[1] * s[2], 27.0 / 64.0)

    def test_center_value(self):
        cc = CanonicalCoords(np.array([0.7, 1.1, 0.9]))
        assert np.isclose(star_h_canonical(cc, cc.beta), -cc.hyperboloid_constant, rtol=1e-12)

    def test_sign_matches_hessian_split(self):
        for seed in range(10):
            cfg = random_config(seed)
            split = lifted_hessian_decomposition(cfg)
            out = star_h_canonical(CanonicalCoords(cfg.weights[0] * cfg.radii[0]), w_from_lifts(cfg))
            assert np.sign(out) == np.sign(split.margin[0])

    def test_translated_form_consistent(self):
        cc = CanonicalCoords(np.array([0.9, 1.3, 1.0]))
        w = np.array([1.7, 0.4, 2.2])
        t = w - cc.beta
        asymptotic = t[0] * t[1] + t[0] * t[2] + t[1] * t[2]
        assert np.isclose(star_h_canonical(cc, w), asymptotic - cc.hyperboloid_constant, rtol=1e-10)


class TestOctantCertificate:
    """*H at the octant vertex: its factored form, its sign and the center plane."""

    def test_symmetric_case(self):
        cc = CanonicalCoords(np.array([1.0, 1.0, 1.0]))
        V = cc.octant_vertex()
        np.testing.assert_allclose(V, 1.0)
        assert np.isclose(star_h_canonical(cc, V), 0.75)
        assert np.isclose(cc.vertex_value, 0.75)
        assert np.sum(V) > cc.plane_threshold

    def test_factorization_identity_random(self, rng):
        for _ in range(20):
            while True:
                q = rng.uniform(0.2, 2.0, size=3)
                qs = np.sort(q)
                if qs[0] + qs[1] > qs[2] * 1.001:
                    break
            cc = CanonicalCoords(q)
            V = cc.octant_vertex()
            direct = star_h_canonical(cc, V)
            assert abs(direct - cc.vertex_value) <= 1e-12 * max(abs(direct), abs(cc.vertex_value))
            assert direct > 0
            assert np.sum(V) > cc.plane_threshold

    def test_tight_triangle_is_boundary_case(self):
        cc = CanonicalCoords(np.array([1.0, 1.0, 2.0]))
        assert abs(star_h_canonical(cc, cc.octant_vertex())) <= 1e-12
        assert abs(cc.vertex_value) <= 1e-12

    def test_octant_interior_on_positive_side(self, rng):
        # points in the open disjointness octant stay on the positive side of
        # the hyperboloid and of the center plane, probed from near-vertex to
        # far-field with log-uniform offsets
        for seed in range(6):
            r2 = np.random.default_rng(seed)
            while True:
                q = r2.uniform(0.2, 2.0, size=3)
                qs = np.sort(q)
                if qs[0] + qs[1] > qs[2] * 1.01:
                    break
            cc = CanonicalCoords(q)
            V = cc.octant_vertex()
            for _ in range(50):
                w = V + 10.0 ** r2.uniform(-6, 2, size=3)
                assert star_h_canonical(cc, w) > 0.0
                assert np.sum(w) > cc.plane_threshold


class TestDisjointnessChain:
    def test_disjoint_lifts_exceed_thresholds(self):
        # raise the lifts of a random planar configuration until the rebuilt
        # balls are pairwise disjoint, then the z-gap inequalities must hold
        for seed in range(6):
            cfg0 = random_config(seed)
            lifts = cfg0.lifts.copy()
            for scale in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
                cfg = LiftedConfig(
                    a=cfg0.a, b=cfg0.b, c=cfg0.c, weights=cfg0.weights,
                    lifts=lifts * scale + np.array([0.0, 1.0, 2.0]) * scale,
                )
                if np.all(rebuilt_pair_gaps(cfg) > 1e-9):
                    break
            assert np.all(rebuilt_pair_gaps(cfg) > 0)
            # z_k > (q_k^2 - (q_i - q_j)^2) / (p_i p_j), (i, j) opposite to k
            [p], [q] = cfg.weights, cfg.weights * cfg.radii
            pi, pj = np.roll(p, -1), np.roll(p, -2)
            qi, qj = np.roll(q, -1), np.roll(q, -2)
            assert np.all(z_gaps(cfg) > (q ** 2 - (qi - qj) ** 2) / (pi * pj))
            # and the w-form of the conditions
            w = w_from_lifts(cfg)
            V = CanonicalCoords(q).octant_vertex()
            assert np.all(w > V)


class TestCertifyFlexFree:
    def test_random_disjoint_triples_certify(self):
        for seed in (0, 5):
            tri = random_triple(seed)
            rep = certify_flex_free(tri, boundary_samples=60)
            assert rep.probed > 0
            assert rep.min_margin > 0
            assert rep.passed

    def test_overlapping_configuration_fails(self):
        from linestab.cli import preset_scene

        tri = Triple(preset_scene("flexdemo-overlapping"))
        rep = certify_flex_free(tri, boundary_samples=60)
        bad = [
            s
            for s in rep.samples
            if s["disjointness_ok"] is False or (s["margin"] is not None and s["margin"] <= 0)
        ]
        assert bad, "expected a disjointness violation or nonpositive margin"
        assert not rep.passed

    def test_skipped_samples_tagged(self):
        tri = random_triple(3)
        rep = certify_flex_free(tri, boundary_samples=60)
        for s in rep.samples:
            assert (s["skipped"] is None) == (s["margin"] is not None)

    def test_report_serializes(self):
        tri = random_triple(0)
        rep = certify_flex_free(tri, boundary_samples=20)
        doc = rep.to_json_dict()
        assert doc["probed"] == rep.probed
        assert isinstance(doc["samples"], list)


class TestLiftedConfigForDirection:
    def test_boundary_direction_roundtrip(self):
        # at a tritangent boundary direction the rebuilt radii equal the
        # original ball radii (the projected point touches all three disks);
        # the compact demo triple has sextic arcs on its cone boundary
        from linestab.cli import preset_scene
        from linestab.cone import boundary_directions_for_triple

        tri = Triple(preset_scene("flexdemo-disjoint"))
        dirs = boundary_directions_for_triple(tri, 40)
        cfg, _ = lifted_config_for_direction(tri, dirs)
        derived = np.sort(cfg.radii, axis=1)
        original = np.sort(tri.scene.radii)
        hits = int(np.sum(np.all(np.isclose(derived, original, rtol=0, atol=1e-6), axis=1)))
        assert hits >= 4  # the sextic arcs of the boundary produce exact matches

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_skip_reasons_survive_scaling_the_rows(self):
        # a row's skip reason is a property of its direction, so scaling
        # the row by 1 + 2^-52 must keep it; today roundoff decides 1, 10
        # and 2 of the 200 boundary rows of these presets
        from linestab.cli import preset_scene
        from linestab.cone import boundary_directions_for_triple

        for name in ("flexdemo-disjoint", "two-permutations", "transition-disjoint"):
            tri = float_safe_triple(Triple(preset_scene(name)))[0]
            dirs = boundary_directions_for_triple(tri, 200)
            reasons = lifted_config_for_direction(tri, dirs)[1]
            assert lifted_config_for_direction(tri, dirs * (1.0 + 2.0 ** -52))[1] == reasons, name


def _same(batch, rows) -> bool:
    """Bitwise equality of a batch array with the stacked one-sample values."""
    return np.array_equal(batch, np.reshape(rows, np.shape(batch)), equal_nan=True)


def _assert_batch_matches_one_by_one(tri, U):
    """lifted_config_for_direction and the forms the probe reads, on a batch
    of rows, against one-sample calls: every bit, every skip reason."""
    cfg, reasons = lifted_config_for_direction(tri, U)
    singles = lifted_configs_one_by_one(tri, U)
    assert reasons == [str(s) if isinstance(s, SceneError) else None for s in singles]
    assert [r is None for r in reasons] == [not isinstance(s, SceneError) for s in singles]
    good = [s for s in singles if not isinstance(s, SceneError)]
    assert len(cfg.a) == len(good)
    for name in ("a", "b", "c", "weights", "lifts"):
        assert _same(getattr(cfg, name), [getattr(s, name) for s in good]), name
    split = lifted_hessian_decomposition(cfg)
    parts = [lifted_hessian_decomposition(s) for s in good]
    assert _same(split.margin, [p.margin for p in parts])
    assert _same(split.normalized_margin, [p.normalized_margin for p in parts])
    assert _same(rebuilt_pair_gaps(cfg), [pair_gaps_one(s) for s in good])
    return reasons


class TestBatchMatchesOneRow:
    """One batched flex probe against the one-sample path, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 200])
    def test_boundary_rows(self, n):
        from linestab.cone import boundary_directions_for_triple

        for tri in (random_triple(3), random_triple(300, (0.7, 1.5))):
            dirs = boundary_directions_for_triple(tri, 200)[:n]
            assert len(dirs) == n
            _assert_batch_matches_one_by_one(tri, dirs)

    def test_rows_at_and_near_the_axis(self):
        from linestab.cli import preset_scene

        tri = Triple(preset_scene("flexdemo-disjoint"))
        rows = []
        for sign in (1.0, -1.0):
            for off in (0.0, 1e-15, 5e-15, 9e-15, 1.1e-14, 2e-14, 1e-13):
                c = sign * (1.0 - off)
                s = math.sqrt(max(1.0 - c * c, 0.0))
                rows += [[0.0, 0.0, c] if off == 0 else [s, 0.0, c], [s * 0.6, -s * 0.8, c]]
        rng = np.random.default_rng(7)
        rows += list(rng.normal(size=(40, 3)))
        _assert_batch_matches_one_by_one(tri, np.array(rows))

    def test_every_skip_reason(self):
        from linestab.cli import preset_scene

        seen = set()
        collinear = Triple(preset_scene("collinear"))
        # along the centres' line every projected centre is one point; along
        # e3 they stay on a line; off it the minimax point sits on an edge
        U = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.3, 0.0, 1.0]])
        seen.update(_assert_batch_matches_one_by_one(collinear, U))
        tri = random_triple(3)
        from linestab.cone import boundary_directions_for_triple

        seen.update(_assert_batch_matches_one_by_one(tri, boundary_directions_for_triple(tri, 60)))
        assert seen >= {None, "degenerate triangle edge", "collinear triangle vertices",
                        "point is not interior to the triangle"}

    def test_plane_data_batch_and_one_sample(self):
        # each skip reason in the order a sample meets them, and one sample,
        # a batch of one, getting the reason its row gets in a batch
        P = np.array([
            [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]],    # degenerate edge
            [[0.0, 0.0], [2.0, 0.0], [5.0, 0.0]],    # collinear
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],    # exterior point
            [[2.0, 1.0], [0.5, 3.0], [-1.0, 0.0]],   # usable
            [[0.0, 0.0], [1.0, 0.0], [0.0, -1.0]],   # usable after reflection
        ])
        pts = np.array([[0.5, 0.5], [1.0, 0.0], [2.0, 2.0], P[3].mean(axis=0), [0.2, -0.2]])
        x = np.arange(15.0).reshape(5, 3)
        cfg, reasons = LiftedConfig.from_plane_data(P, pts, x)
        assert reasons == ["degenerate triangle edge", "collinear triangle vertices",
                           "point is not interior to the triangle", None, None]
        for k in range(5):
            if reasons[k] is None:
                continue
            single, [reason] = LiftedConfig.from_plane_data(P[k:k + 1], pts[k:k + 1], x[k:k + 1])
            assert reason == reasons[k] and len(single.a) == 0
        one = [LiftedConfig.from_plane_data(P[k:k + 1], pts[k:k + 1], x[k:k + 1])[0]
               for k in (3, 4)]
        for name in ("a", "b", "c", "weights", "lifts"):
            assert _same(getattr(cfg, name), [getattr(s, name) for s in one]), name

    @pytest.mark.parametrize("name", [
        "collinear", "pinned", "two-permutations", "transition-disjoint", "transition-tangent",
        "transition-overlapping", "flexdemo-disjoint", "flexdemo-tangent", "flexdemo-overlapping",
    ])
    def test_certify_matches_one_by_one(self, name):
        import json

        from linestab.cli import preset_scene

        tri = Triple(preset_scene(name))
        rep = certify_flex_free(tri, boundary_samples=60)
        assert json.dumps(rep.to_json_dict()) == json.dumps(flex_report_one_by_one(tri, 60))


@pytest.mark.parametrize("m", [1, 2, 7])
def test_normalized_margin_elementwise(m):
    # a sample whose lifts are equal has H2 = H4 = 0 and reads 0
    r = np.random.default_rng(100 + m)
    a, b, c = r.uniform(0.5, 2.0, m), r.uniform(-1.0, 1.0, m), r.uniform(0.3, 2.0, m)
    w, x = r.uniform(0.2, 1.0, (m, 3)), r.uniform(-2.0, 2.0, (m, 3))
    x[m // 2] = 0.7
    got = lifted_hessian_decomposition(LiftedConfig(a=a, b=b, c=c, weights=w, lifts=x)).normalized_margin
    assert got.shape == (m,)
    expected = []
    for k in range(m):
        split = lifted_hessian_decomposition(LiftedConfig(
            a=a[k:k + 1], b=b[k:k + 1], c=c[k:k + 1], weights=w[k:k + 1], lifts=x[k:k + 1]))
        [H2], [H4] = split.H2, split.H4
        scale = abs(H2) + abs(H4)
        expected.append(0.0 if scale == 0.0 else (H4 + H2) / scale)
        assert split.normalized_margin.tolist() == [expected[-1]]
    assert _same(got, expected)
    assert got[m // 2] == 0.0 and not np.signbit(got[m // 2])


# -- the exact suite's unreduced scalar ---------------------------------------

_SMALL = st.integers(-40, 40)
_EXACT_OPERAND = st.one_of(
    _SMALL, st.builds(Fraction, _SMALL, st.integers(1, 30).flatmap(lambda d: st.sampled_from([d, -d]))))
_STEP = st.tuples(st.sampled_from(["+", "-", "*", "/", "**"]), _EXACT_OPERAND, st.booleans())
_APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _ratio(x) -> _Ratio:
    x = Fraction(x)
    return _Ratio(x.numerator, x.denominator)


def _step(value, op, operand, reflected):
    """value op operand, or operand op value for + - *; ** takes a small
    int exponent k >= 0."""
    if op == "**":
        return value ** (int(operand) % 5)
    if reflected and op != "/":
        return _APPLY[op](operand, value)
    return _APPLY[op](value, operand)


@settings(max_examples=300, deadline=None)
@given(_EXACT_OPERAND, st.lists(_STEP, max_size=8), _EXACT_OPERAND)
def test_ratio_follows_fraction(start, steps, probe):
    # every step of a random + - * / ** sequence, mixing ints and signed
    # Fractions (on either side of + - *), has Fraction's value, order and
    # zero division
    ratio, frac = _ratio(start), Fraction(start)
    for op, operand, reflected in steps:
        try:
            frac = _step(frac, op, operand, reflected)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _step(ratio, op, operand, reflected)
            return
        ratio = _step(ratio, op, operand, reflected)
        assert isinstance(ratio, _Ratio) and ratio.d > 0
        assert ratio.fraction() == frac
        assert (ratio == frac) and (frac == ratio) and ratio == _ratio(frac)
        assert (ratio == probe) == (frac == probe)
        assert (ratio > probe) == (frac > probe) and (probe < ratio) == (probe < frac)
        assert (ratio <= _ratio(probe)) == (frac <= probe) and (ratio > 0) == (frac > 0)
        assert -ratio == -frac and bool(ratio) == bool(frac)


@pytest.mark.parametrize("other", [0.5, np.float64(0.5)], ids=["float", "float64"])
def test_ratio_refuses_floats(other):
    x = _Ratio(3, 4)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt):
        for args in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(*args)
    with pytest.raises(TypeError):
        x ** other
    with pytest.raises(TypeError):
        np.array([x, x], dtype=object) * other


def test_ratio_refuses_negative_powers():
    # not among its operations: no form takes one
    with pytest.raises(TypeError):
        _Ratio(3, 4) ** -1


def test_ratio_division_by_zero():
    for zero in (0, Fraction(0), _Ratio(0, 7)):
        with pytest.raises(ZeroDivisionError):
            _Ratio(3, 4) / zero


def test_scalar_dtype_decides_float_arrays_by_dtype():
    # a numeric array is never scanned; object arrays and scalars are
    class Unscannable(np.ndarray):
        @property
        def flat(self):
            raise AssertionError("a float array was scanned entry by entry")

    floats = np.arange(6.0).reshape(2, 3).view(Unscannable)
    assert _scalar_dtype(1.0, floats, np.arange(3)) is float
    assert _scalar_dtype(floats, np.array([1.0, _Ratio(1, 2)], dtype=object)) is object
    assert _scalar_dtype(floats, Fraction(1, 3)) is object
    assert _scalar_dtype(np.array([1.0, 2], dtype=object)) is float
