import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linestab import sextic as sextic_mod
from linestab.cli import PRESET_NAMES, preset_scene
from linestab.geom import (
    Scene, SceneError, SolverError, orthonormal_basis_of_complement,
)
from linestab.sextic import (
    CHART_AXES,
    CURVE_NAMES,
    TRACE_TOL,
    DirectionPoly,
    PoleJet,
    Triple,
    cayley_menger_forms,
    chart_point_to_direction,
    eval_sigma,
    _trace_zero_set,
    sigma_from_geometry,
    sigma_pole_jet,
    tangent_lines_for_direction,
    trace_curves,
)
from conftest import (
    bordered_cayley_menger, cayley_matrix_5x5, collinear_scene, conic_matrix, eval_hessian_sigma,
    lifted_triple, line_distance, moved_scene, pair_matrix, poly_value, random_triple,
)


def collinear_triple():
    return Triple(collinear_scene())


def scaled_triple(tri, k):
    """The exact copy of a triple scaled by 2^k."""
    return Triple(moved_scene(tri.scene, scale=2.0 ** k))


class TestDirectionPoly:
    def test_linear_and_norm(self):
        p = DirectionPoly.linear([1.0, 2.0, -3.0])
        assert poly_value(p, 1.0, 1.0, 1.0) == 0.0
        q = DirectionPoly.norm_sq()
        assert poly_value(q, 1.0, 2.0, 2.0) == 9.0
        assert q.degree == 2 and {sum(e) for e in q.coeffs} == {2}

    def test_diff(self):
        q = DirectionPoly.norm_sq()
        d = q.diff(0)
        assert poly_value(d, 3.0, 5.0, 7.0) == 6.0

    def test_product_degree(self):
        l = DirectionPoly.linear([1.0, 0.0, 0.0])
        assert (l * l * l).degree == 3


class TestSigma:
    def test_collinear_axis_is_tangent_direction(self):
        # lines with direction x at distance 1 from the axis touch all three
        # unit spheres, so the axis direction lies on the sextic
        tri = collinear_triple()
        val = eval_sigma(tri, np.array([[1.0, 0.0, 0.0]]))[0]
        assert abs(val) <= 1e-9 * tri.sigma_scale
        line_point = np.array([0.0, 1.0, 0.0])
        for center, radius in zip(tri.centers, tri.scene.radii):
            w = center - line_point
            d = math.sqrt(float(w @ w) - float(w @ np.array([1.0, 0, 0])) ** 2)
            assert np.isclose(d, radius, atol=1e-12)

    def test_degree_six_homogeneity(self, rng):
        tri = random_triple(2)
        for _ in range(5):
            u = rng.normal(size=3)
            lam = rng.uniform(0.5, 2.0)
            a = eval_sigma(tri, [lam * u])[0]
            b = lam ** 6 * eval_sigma(tri, [u])[0]
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))

    def test_relabeling_invariance(self, rng):
        tri = random_triple(3)
        u = rng.normal(size=3)
        ref = eval_sigma(tri, [u])[0]
        for perm in itertools.permutations(range(3)):
            tri_p = Triple(moved_scene(tri.scene, perm))
            val = eval_sigma(tri_p, [u])[0]
            assert abs(val - ref) <= 1e-9 * abs(ref)

    def test_translation_invariance(self, rng):
        tri = random_triple(4)
        shift = rng.normal(size=3) * 10
        moved = Triple(moved_scene(tri.scene, shift=shift))
        u = rng.normal(size=3)
        assert np.isclose(eval_sigma(tri, [u])[0], eval_sigma(moved, [u])[0], rtol=1e-12)

    def test_rotation_equivariance(self, rng):
        tri = random_triple(5)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = Triple(moved_scene(tri.scene, rotation=Q))
        for _ in range(4):
            u = rng.normal(size=3)
            a = eval_sigma(tri, [u])[0]
            b = eval_sigma(rotated, [Q @ u])[0]
            assert abrel(a, b) <= 1e-9

    def test_determinant_vs_expansion(self, rng):
        tri = random_triple(6)
        for _ in range(8):
            u = rng.normal(size=3)
            a = eval_sigma(tri, [u])[0]
            b = poly_value(tri.sigma, *u)
            assert abrel(a, b) <= 1e-10

    @pytest.mark.parametrize("case", ["flexdemo-disjoint", "two-permutations", "edge-normal"])
    def test_roots_on_rays_are_its_sign_changes(self, case, rng):
        # each sign change of sigma on a fine grid of a ray brackets a returned
        # root, and sigma vanishes at each root; "edge-normal" rays span the
        # plane normal to an edge, where sigma's e^{6i theta} harmonic is zero,
        # and the circles of the overlapping balls 0 and 1 meet
        if case == "edge-normal":
            tri = Triple(Scene([[0, 0, 0], [1, 0, 0], [0.3, 0.4, 3]], [1.0, 1.0, 1.0],
                               allow_overlap=True))
            anchor, t = orthonormal_basis_of_complement(tri.centers[1] - tri.centers[0])
            tangents = np.array([t, -t])
        else:
            tri = Triple(preset_scene(case))
            anchor = rng.normal(size=3)
            anchor /= np.linalg.norm(anchor)
            tangents = rng.normal(size=(12, 3))
            tangents -= np.outer(tangents @ anchor, anchor)
            tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        roots = sextic_mod.sigma_roots_on_rays(tri, tri.squared_radii, anchor, tangents)
        grid = np.linspace(0.0, math.pi, 4001)

        def sigma(t, theta):
            U = np.cos(theta)[:, None] * anchor + np.sin(theta)[:, None] * t
            return sextic_mod._sigma_at_rows(tri, U, tri.squared_radii)

        brackets = 0
        for t, row in zip(tangents, roots):
            found = row[~np.isnan(row)]
            values = sigma(t, grid)
            assert np.all(np.abs(sigma(t, found)) <= 1e-9 * np.max(np.abs(values)))
            for k in np.nonzero(np.sign(values[1:]) != np.sign(values[:-1]))[0]:
                assert np.any((found >= grid[k]) & (found <= grid[k + 1])), grid[k]
                brackets += 1
        assert brackets > 0

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_roots_on_rays_do_not_depend_on_the_batch(self, preset):
        # every product is taken per row, so N rays give the bits of N
        # one-ray calls
        tri = Triple(preset_scene(preset))
        r = np.random.default_rng(5)
        anchor = r.normal(size=3)
        anchor /= np.linalg.norm(anchor)
        tangents = r.normal(size=(300, 3))
        tangents -= np.outer(tangents @ anchor, anchor)
        tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        s = (tri.scene.radii + tri.scene.band) ** 2
        batch = sextic_mod.sigma_roots_on_rays(tri, s, anchor, tangents)
        one = np.concatenate([sextic_mod.sigma_roots_on_rays(tri, s, anchor, t[None])
                              for t in tangents])
        assert np.array_equal(batch, one, equal_nan=True)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_per_ray_anchors_match_the_per_cone_calls(self, preset):
        # the rays of several anchors in one call, one anchor row per ray,
        # give the bits of one call per anchor
        tri = Triple(preset_scene(preset))
        r = np.random.default_rng(7)
        anchors = r.normal(size=(4, 3))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        cone = np.repeat(np.arange(4), [5, 1, 30, 14])
        tangents = r.normal(size=(len(cone), 3))
        tangents -= np.einsum("md,md->m", tangents, anchors[cone])[:, None] * anchors[cone]
        tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        s = (tri.scene.radii + tri.scene.band) ** 2
        batch = sextic_mod.sigma_roots_on_rays(tri, s, anchors[cone], tangents)
        per_cone = np.concatenate([sextic_mod.sigma_roots_on_rays(tri, s, a, tangents[cone == k])
                                   for k, a in enumerate(anchors)])
        assert np.array_equal(batch, per_cone, equal_nan=True)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_float_matrix_matches_the_hand_written_5x5(self, preset, rng):
        # -det of the 3x3 form at float rows is the bordered 5x5 determinant
        tri = Triple(preset_scene(preset))
        U = rng.normal(size=(200, 3))
        for s in (tri.squared_radii, (tri.scene.radii + 0.01) ** 2):
            got = sextic_mod._sigma_at_rows(tri, U, s)
            want = np.linalg.det(cayley_matrix_5x5(tri, U, s))
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(source=st.one_of(st.sampled_from(PRESET_NAMES), st.integers(0, 10_000)),
           k=st.integers(-60, 60), seed=st.integers(0, 2**32 - 1))
    def test_sigma_scales_exactly(self, source, k, seed):
        # sigma is a sixth power of length, and every entry of the form is
        # scaled exactly on a 2^k copy: so is its cofactor determinant, bit
        # for bit (LAPACK's LU determinant was not)
        tri = Triple(preset_scene(source)) if isinstance(source, str) else random_triple(source)
        U = np.random.default_rng(seed).normal(size=(50, 3))
        copy = scaled_triple(tri, k)
        got = sextic_mod._sigma_at_rows(copy, U, copy.squared_radii)
        want = np.ldexp(sextic_mod._sigma_at_rows(tri, U, tri.squared_radii), 6 * k)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(source=st.one_of(st.sampled_from(PRESET_NAMES), st.integers(0, 10_000)),
           exponents=st.lists(st.integers(-400, 400), min_size=1, max_size=6),
           k=st.integers(-60, 60), seed=st.integers(0, 2**32 - 1))
    def test_eval_sigma_takes_rows_as_given(self, source, exponents, k, seed):
        # a unit row, a row of normal length and rows scaled by 2^e, huge and
        # tiny among them: N rows give N one-row calls bit for bit, overflow
        # and underflow included, and rows scaled by 2^k give values scaled
        # by exactly 2^(6k) wherever both lengths stay within 2^+-100, where
        # no product of the form's entries leaves the normal float range
        tri = Triple(preset_scene(source)) if isinstance(source, str) else random_triple(source)
        U = np.random.default_rng(seed).normal(size=(len(exponents) + 2, 3))
        U[0] /= np.linalg.norm(U[0])
        e = np.array([0, 0, *exponents])
        U = np.ldexp(U, e[:, None])
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            values = eval_sigma(tri, U)
            one_by_one = [eval_sigma(tri, U[i:i + 1])[0] for i in range(len(U))]
        assert np.array_equal(values, one_by_one, equal_nan=True)
        ok = (np.abs(e) <= 100) & (np.abs(e + k) <= 100)
        scaled = eval_sigma(tri, np.ldexp(U[ok], k))
        assert np.array_equal(scaled, np.ldexp(values[ok], 6 * k))

    def test_zero_direction_rejected(self):
        with pytest.raises(SceneError):
            eval_sigma(collinear_triple(), np.zeros((1, 3)))

    @pytest.mark.parametrize("u", [[math.nan, 0, 0], [math.inf, 0, 0], [1, -math.inf, 0]])
    def test_non_finite_direction_rejected(self, u):
        # like the zero vector: a SceneError, not a NaN value with warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SceneError, match="non-finite"):
                eval_sigma(collinear_triple(), np.array([u]))

    @pytest.mark.parametrize("fn", [eval_sigma, tangent_lines_for_direction])
    @pytest.mark.parametrize("bad, match", [([0.0, 0.0, 0.0], "zero vector"),
                                            ([1.0, math.nan, 0.0], r"non-finite vector \[1.0, nan")],
                             ids=["zero", "non-finite"])
    def test_one_bad_row_rejects_the_batch(self, fn, bad, match):
        # the same SceneError from the sextic's value and its tangent lines,
        # for a bad row among good ones
        with pytest.raises(SceneError, match=match):
            fn(collinear_triple(), np.array([[1.0, 0.0, 0.0], bad, [0.0, 1.0, 0.0]]))


def _pole_jets(centers, squared_radii):
    """The bordered matrix over 2-jets at the pole."""
    return bordered_cayley_menger(centers, squared_radii, PoleJet((1, 0, 0, 0, 0, 0)),
                                  PoleJet.norm_sq(), PoleJet.linear)


def _integer_triples(height, m, seed):
    """m integer triples with coordinates in [-height, height] and squared
    radii in [1, height], then the degenerate ones built from them: equal
    radii, collinear centres, centres at one height (lifts x0 = x1 = x2) and
    two coincident centres.  Python ints, so 2^63 - 1 does not overflow."""
    r = np.random.default_rng(seed)
    draw = lambda *shape, low=-height: r.integers(low, height, size=shape, endpoint=True).tolist()
    triples = list(zip(draw(m, 3, 3), draw(m, 3, low=1)))
    for c, s in triples[:2]:
        triples.append((c, [s[0]] * 3))
        triples.append(([c[0], c[1], [2 * b - a for a, b in zip(c[0], c[1])]], s))
        triples.append(([[x, y, c[0][2]] for x, y, _ in c], s))
        triples.append(([c[0], c[0], c[2]], s))
    return triples


class TestBorderElimination:
    """-det of the k x k Cayley-Menger form is the bordered (k + 2) x (k + 2)
    determinant, exactly, against the hand-written bordered matrix."""

    @pytest.mark.parametrize("height", [1, 10, 10**6, 2**63 - 1])
    def test_pole_jet_equals_the_bordered_determinant(self, height):
        # coefficient by coefficient, per triple and over one (m,) batch
        triples = _integer_triples(height, 9, height % 997)
        full = [sextic_mod.poly_det(_pole_jets(c, s)).c for c, s in triples]
        for (c, s), want in zip(triples, full):
            assert sigma_pole_jet(c, s).c == want
        centers = np.empty((3, 3, len(triples)), dtype=object)
        radii = np.empty((3, len(triples)), dtype=object)
        for t, (c, s) in enumerate(triples):
            centers[..., t], radii[:, t] = c, s
        batched = sigma_pole_jet(centers, radii).c
        assert [[int(v[t]) for v in batched] for t in range(len(triples))] == \
            [list(want) for want in full]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_det_is_minus_det_of_the_eliminated_matrix(self, k):
        # over 2-jets of k projected centres, for any k: the form is k x k,
        # symmetric, with B_ii = -2 s_i q
        r = np.random.default_rng(k)
        centers = r.integers(-50, 50, size=(k, 3), endpoint=True).tolist()
        s = r.integers(1, 50, size=k, endpoint=True).tolist()
        B = cayley_menger_forms(centers, s, PoleJet.norm_sq(), PoleJet.linear)
        assert len(B) == k and all(len(row) == k for row in B)
        for i in range(k):
            assert B[i][i].c == (PoleJet.norm_sq() * (-2 * s[i])).c
            assert all(B[i][j].c == B[j][i].c for j in range(k))
        M = _pole_jets(centers, s)
        assert (sextic_mod.poly_det(B) * -1).c == sextic_mod.poly_det(M).c

    @pytest.mark.parametrize("seed", range(4))
    def test_rational_expansion_is_minus_det_of_the_eliminated_matrix(self, seed):
        # over DirectionPoly with Fraction coefficients, all coefficients, for
        # k = 1 to 4 balls; at k = 3 it is the sextic's 28-coefficient expansion
        r = np.random.default_rng(seed)
        frac = lambda: Fraction(int(r.integers(-40, 41)), int(r.integers(1, 40)))
        q, one = DirectionPoly.norm_sq(1), DirectionPoly({(0, 0, 0): 1})
        for k in range(1, 5):
            c = [[frac() for _ in range(3)] for _ in range(k)]
            s = [abs(frac()) for _ in range(k)]
            if seed == 3 and k >= 3:  # collinear centres, equal radii
                c[2] = [2 * b - a for a, b in zip(c[0], c[1])]
                s = [s[0]] * k
            got = -sextic_mod.poly_det(cayley_menger_forms(c, s, q, DirectionPoly.linear))
            want = sextic_mod.poly_det(bordered_cayley_menger(c, s, one, q, DirectionPoly.linear))
            assert got.coeffs == want.coeffs
            assert all(sum(e) == 2 * k for e in got.coeffs)
            assert all(isinstance(v, (int, Fraction)) for v in got.coeffs.values())
            if k == 3:
                assert sigma_from_geometry(*c, *s).coeffs == got.coeffs
                assert len(got.coeffs) <= 28


class TestTriple:
    def test_is_a_view_of_its_scene(self):
        scene = collinear_scene()
        tri = Triple(scene)
        assert tri.scene is scene and not tri.scene.allow_overlap
        np.testing.assert_array_equal(tri.centers, tri.scene.centers)
        np.testing.assert_array_equal(tri.squared_radii, tri.scene.radii ** 2)

    def test_float_safe_triple_keeps_a_triple_at_its_scale(self):
        tri, _ = sextic_mod.float_safe_triple(collinear_triple())
        again, shift = sextic_mod.float_safe_triple(tri)
        assert again is tri and shift == 0

    def test_float_safe_triple_expands_the_sextic_once(self, monkeypatch):
        # a triple off the scale [1, 2) keeps its rescaled copy, so repeated
        # direct calls expand that copy's sextic once
        tri = Triple(preset_scene("two-permutations"))
        safe, shift = sextic_mod.float_safe_triple(tri)
        assert shift != 0
        phi = np.arange(16) * math.pi / 8
        anchor, tangents = np.array([0.0, 0.0, 1.0]), np.column_stack([np.cos(phi), np.sin(phi), 0 * phi])
        theta = sextic_mod.sigma_roots_on_rays(safe, safe.squared_radii, anchor, tangents)
        ray, root = np.argwhere(~np.isnan(theta))[0]  # a root along a ray: on the sextic
        u = math.cos(theta[ray, root]) * anchor + math.sin(theta[ray, root]) * tangents[ray]
        expansions = []
        expand = sextic_mod.sigma_from_geometry
        monkeypatch.setattr(sextic_mod, "sigma_from_geometry",
                            lambda *a: expansions.append(1) or expand(*a))
        tri = Triple(preset_scene("two-permutations"))
        feet = [tangent_lines_for_direction(tri, [u])[0][0] for _ in range(3)]
        assert len(expansions) == 1 and not np.isnan(feet[0][0, 0])
        assert all(np.array_equal(f, feet[0], equal_nan=True) for f in feet)
        assert sextic_mod.float_safe_triple(tri)[0] is sextic_mod.float_safe_triple(tri)[0]

    @pytest.mark.parametrize(
        "balls, match",
        [
            (((0, 0, 0), 1.0, (1.5, 0, 0), 1.0, (0, 5, 0), 1.0), "disjoint"),
            (((0, 0, 0), 1.0, (1e200, 0, 0), 1.0, (0, 1e200, 0), 1.0), "too large"),
            (((0, 0), 1.0, (4, 0), 1.0, (8, 0), 1.0), r"three balls in R\^3, not 3 in R\^2"),
            (((0, 0, 0), 1.0, (4, 0, 0), 1.0), r"three balls in R\^3, not 2 in R\^3"),
        ],
        ids=["overlap", "overflow", "planar", "two-balls"],
    )
    def test_direct_construction_gets_scene_checks(self, balls, match):
        # the Scene checks its balls, and the Triple that they are three in R^3
        with pytest.raises(SceneError, match=match):
            Triple(Scene(balls[0::2], balls[1::2]))


def abrel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def finite_difference_hessian_det(tri, u, h=1e-4):
    """Central-difference Hessian determinant with one Richardson step."""

    def hess(step):
        H = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                e_i = np.zeros(3); e_i[i] = step
                e_j = np.zeros(3); e_j[j] = step
                H[i, j] = (
                    eval_sigma(tri, [u + e_i + e_j])[0]
                    - eval_sigma(tri, [u + e_i - e_j])[0]
                    - eval_sigma(tri, [u - e_i + e_j])[0]
                    + eval_sigma(tri, [u - e_i - e_j])[0]
                ) / (4 * step * step)
        return H

    H = (4.0 * hess(h / 2) - hess(h)) / 3.0
    return float(np.linalg.det(H))


class TestHessian:
    def test_homogeneity_degree_twelve(self, rng):
        tri = random_triple(7)
        u = rng.normal(size=3)
        a = eval_hessian_sigma(tri, 2 * u)
        b = 4096.0 * eval_hessian_sigma(tri, u)
        assert abrel(a, b) <= 1e-10

    def test_finite_difference_agreement(self, rng):
        for seed in (8, 9):
            tri = random_triple(seed)
            for _ in range(3):
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                exact = eval_hessian_sigma(tri, u)
                fd = finite_difference_hessian_det(tri, u)
                assert abrel(exact, fd) <= 1e-5

    def test_collinear_axis_hessian_vanishes(self):
        # rotational symmetry degenerates the Hessian on the axis direction
        tri = collinear_triple()
        assert abs(eval_hessian_sigma(tri, np.array([1.0, 0, 0]))) <= 1e-6

    def test_matches_lifted_decomposition(self, rng):
        # the probe identity links the determinant to the H2 + H4 split
        from linestab.flexprobe import LiftedConfig, lifted_hessian_decomposition

        for seed in range(5):
            r2 = np.random.default_rng(seed)
            cfg = LiftedConfig(
                a=r2.uniform(0.5, 2.0, size=1),
                b=r2.uniform(-1.0, 1.0, size=1),
                c=r2.uniform(0.3, 2.0, size=1),
                weights=r2.uniform(0.2, 1.0, size=(1, 3)),
                lifts=r2.uniform(-2.0, 2.0, size=(1, 3)),
            )
            [H_total] = lifted_hessian_decomposition(cfg).H_total
            H = eval_hessian_sigma(lifted_triple(cfg), np.array([0.0, 0.0, 1.0]))
            assert abrel(H, H_total) <= 1e-8


class TestTangentRecovery:
    def test_collinear_axis_gives_circle_family(self):
        # the tangents along the axis form a circle family, which no finite
        # set of foot points represents
        feet, errors = tangent_lines_for_direction(collinear_triple(), [[1.0, 0.0, 0.0]])
        assert errors == [None] and np.isnan(feet).all()

    def test_off_curve_direction_rejected(self):
        tri = random_triple(11)
        # a random direction is almost surely off the sextic
        u = np.array([0.12, 0.93, -0.41])
        u /= np.linalg.norm(u)
        if not abs(eval_sigma(tri, [u])[0]) <= 1e-8 * tri.sigma_scale:
            [error] = tangent_lines_for_direction(tri, [u])[1]
            assert "not on the sextic" in error

    def test_recovered_lines_are_tritangent(self):
        # distance from each recovered line to each center equals the radius
        checked = 0
        for seed in (12, 13):
            tri = random_triple(seed)
            traces = trace_curves(tri, chart="u1", grid=120, extent=2.5)
            pts = [p for poly in traces.curves["sigma"] for p in poly[::5]]
            for x, y in pts[:12]:
                u = chart_point_to_direction("u1", x, y)
                u = u / np.linalg.norm(u)
                feet, errors = tangent_lines_for_direction(tri, [u])
                assert errors == [None]
                for foot in feet[0][~np.isnan(feet[0, :, 0])]:
                    for center, radius in zip(tri.centers, tri.scene.radii):
                        assert abs(line_distance(foot, u, center) - radius) <= 1e-8
                    checked += 1
        assert checked >= 8

    def test_feet_do_not_depend_on_the_direction_scale(self):
        # the first direction classify-boundary classifies on
        # two-permutations, at three lengths: the same feet, orthogonal to u
        from linestab.cone import sextic_ray_directions

        tri, _ = sextic_mod.float_safe_triple(Triple(preset_scene("two-permutations")))
        u = sextic_ray_directions(tri, 8)[0][0]
        want = tangent_lines_for_direction(tri, [u])[0][0]
        assert not np.isnan(want[0, 0])
        for scale in (2.0, 1e-3):
            feet = tangent_lines_for_direction(tri, [scale * u])[0][0]
            assert np.allclose(feet, want, rtol=1e-12, atol=1e-12 * np.nanmax(np.abs(want)),
                               equal_nan=True)
            feet = feet[~np.isnan(feet[:, 0])]
            assert np.all(np.abs(feet @ u) <= 1e-12 * np.linalg.norm(feet, axis=1))


def pair_triple(ci, cj):
    """Unit balls 0 and 1 at ci and cj, with a far third."""
    return Triple(Scene([ci, cj, [0.0, 0.0, 50.0]], [1.0, 1.0, 1.0], allow_overlap=True))


class TestPairCone:
    def test_center_direction_always_feasible(self, rng):
        for seed in range(4):
            tri = random_triple(seed)
            for i, j in ((0, 1), (0, 2), (1, 2)):
                conic = tri.pair_conic(i, j)
                np.testing.assert_allclose(conic_matrix(conic), pair_matrix(tri.scene, i, j),
                                           rtol=1e-12)
                e = tri.centers[j] - tri.centers[i]
                u = e / np.linalg.norm(e)
                expected = -((tri.scene.radii[i] + tri.scene.radii[j]) ** 2)
                assert np.isclose(poly_value(conic, *u), expected, rtol=1e-12)

    def test_perpendicular_never_feasible(self):
        conic = pair_triple([0, 0, 0], [4, 0, 0]).pair_conic(0, 1)
        assert poly_value(conic, 0.0, 1.0, 0.0) > 0
        assert np.isclose(poly_value(conic, 0.0, 1.0, 0.0), 16 - 4)

    def test_half_angle_thirty_degrees(self):
        # unit balls 4 apart: transversal directions make at most 30 degrees
        # with the center line; the oracle is the two-disk minimax kernel
        from linestab.cone import minimax_slack_batch

        tri = pair_triple([0, 0, 0], [4, 0, 0])
        conic = tri.pair_conic(0, 1)
        for ux in (0.9, 0.88, math.sqrt(3) / 2 + 1e-3):
            u = np.array([ux, math.sqrt(1 - ux ** 2), 0.0])
            val = poly_value(conic, *u)
            slack = minimax_slack_batch(tri.centers[:2], np.ones(2), u[None, :])[0]
            assert (val <= 0) == (slack <= 1e-12)
            assert (val <= 0) == (ux ** 2 >= 0.75 - 1e-9)

    def test_overlapping_pair_degenerate(self):
        tri = pair_triple([0, 0, 0], [1, 0, 0])
        assert tri.scene.overlapping_pairs() == [(0, 1)]
        assert sextic_mod._curve(tri, "pair01") is None
        # feasibility covers every direction
        for u in ([1, 0, 0], [0, 1, 0], [0.3, -0.2, 0.9]):
            assert poly_value(tri.pair_conic(0, 1), *np.asarray(u) / np.linalg.norm(u)) < 0

    def test_signature_recorded(self):
        tri = pair_triple([0, 0, 0], [4, 0, 0])
        M = conic_matrix(tri.pair_conic(0, 1))
        assert np.array_equal(M, pair_matrix(tri.scene, 0, 1))
        # two positive eigenvalues and one negative: a real cone of directions
        assert np.array_equal(np.sign(np.linalg.eigvalsh(M)), [-1, 1, 1])


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 40),
    lam=st.floats(0.25, 4.0, allow_nan=False),
    shift=st.floats(-20, 20, allow_nan=False),
)
def test_sigma_scaling_and_translation_property(seed, lam, shift):
    tri = random_triple(seed % 8)
    rng2 = np.random.default_rng(seed)
    u = rng2.normal(size=3)
    base = eval_sigma(tri, [u])[0]
    scaled = eval_sigma(tri, [lam * u])[0]
    assert abs(scaled - lam ** 6 * base) <= 1e-9 * max(abs(scaled), abs(lam ** 6 * base))
    moved = Triple(moved_scene(tri.scene, shift=shift * np.array([1.0, -0.5, 0.25])))
    assert abs(eval_sigma(moved, [u])[0] - base) <= 1e-9 * max(abs(base), 1e-300)


def _polyline_crossings(polys_a, polys_b):
    pts = []
    for pa in polys_a:
        for pb in polys_b:
            for i in range(len(pa) - 1):
                p1, p2 = pa[i], pa[i + 1]
                for j in range(len(pb) - 1):
                    p3, p4 = pb[j], pb[j + 1]
                    d1 = p2 - p1
                    d2 = p4 - p3
                    den = d1[0] * d2[1] - d1[1] * d2[0]
                    if abs(den) < 1e-14:
                        continue
                    t = ((p3[0] - p1[0]) * d2[1] - (p3[1] - p1[1]) * d2[0]) / den
                    s = ((p3[0] - p1[0]) * d1[1] - (p3[1] - p1[1]) * d1[0]) / den
                    if 0 <= t <= 1 and 0 <= s <= 1:
                        pts.append(p1 + t * d1)
    return pts


class TestTraceCurves:
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_traces_do_not_read_the_scale(self, preset):
        # the chart is direction space: the 2^k copies of a preset trace the
        # same curves bit for bit (at 2^-200 the Hessian lost every vertex,
        # at 2^200 the sextic overflowed)
        tri = Triple(preset_scene(preset))
        want = trace_curves(tri, grid=60)
        assert any(want.curves.values())
        for k in (-200, 200):
            got = trace_curves(scaled_triple(tri, k), grid=60)
            assert got.curves.keys() == want.curves.keys()
            for name, polys in want.curves.items():
                assert len(got.curves[name]) == len(polys), (k, name)
                assert all(np.array_equal(a, b) for a, b in zip(got.curves[name], polys)), (k, name)

    def test_collinear_conics_are_concentric_circles(self):
        tri = collinear_triple()
        traces = trace_curves(tri, chart="u1", grid=160, extent=1.5)
        radii_seen = []
        for name in ("pair01", "pair02", "pair12"):
            for poly in traces.curves[name]:
                r = np.linalg.norm(poly, axis=1)
                assert np.std(r) <= 1e-6 * max(np.mean(r), 1.0)
                radii_seen.append(np.mean(r))
        assert len(radii_seen) >= 3
        # the widest pair (0, 2) gives the narrowest direction cone
        assert len({round(r, 3) for r in radii_seen}) >= 2

    @pytest.mark.parametrize("chart", ["u1", "u2", "u3"])
    @pytest.mark.parametrize("curve", ["sigma", "hessian", "pair01", "pair02", "pair12"])
    def test_sigma_vertices_are_roots(self, curve, chart):
        # every vertex lies within refine_tol (1e-10) of its curve, measured
        # to first order as |f| / |grad f| through the curve's scalar oracle
        tri = random_triple(17)
        traces = trace_curves(tri, chart=chart, grid=120, extent=2.0)
        if curve == "sigma":
            oracle = lambda u: eval_sigma(tri, [u])[0]
        elif curve == "hessian":
            oracle = lambda u: eval_hessian_sigma(tri, u)
        else:
            M = pair_matrix(tri.scene, int(curve[4]), int(curve[5]))
            oracle = lambda u: u @ M @ u

        def f(x, y):
            return oracle(chart_point_to_direction(chart, x, y))

        h = 1e-5
        checked = 0
        for poly in traces.curves[curve]:
            for x, y in poly:
                grad = np.hypot(f(x + h, y) - f(x - h, y), f(x, y + h) - f(x, y - h)) / (2 * h)
                assert abs(f(x, y)) <= 1e-10 * grad
                checked += 1
        assert checked > 10

    def test_chart_map_takes_arrays(self):
        x = np.array([[0.5, -1.0], [2.0, 0.0]])
        y = np.array([[0.25, 3.0], [-1.5, 1.0]])
        for chart, axis in CHART_AXES.items():
            U = chart_point_to_direction(chart, x, y)
            assert U.shape == (2, 2, 3)
            for idx in np.ndindex(x.shape):
                u = chart_point_to_direction(chart, float(x[idx]), float(y[idx]))
                assert u.shape == (3,) and u[axis] == 1.0
                assert np.array_equal(U[idx], u)

    @pytest.mark.parametrize("c, s", [(0.1, 1.0), (0.1, -1.0), (-0.1, 1.0), (-0.1, -1.0)])
    def test_saddle_cell_segments_follow_branches(self, c, s):
        # on the one-cell grid {-1, 1}^2, every saddle case of f = c + s*xy
        # has two hyperbola branches in opposite quadrants; a segment that
        # leaves its quadrant crosses the saddle
        xs = np.array([-1.0, 1.0])
        polys = _trace_zero_set(lambda x, y: c + s * x * y, 2, xs, xs, 1e-12)
        assert len(polys) == 2
        for poly in polys:
            assert len(poly) == 2
            signs = np.sign(poly)
            assert np.all(signs == signs[0]), poly

    def test_crossings_closer_than_12_decimals_stay_apart(self):
        # the line x + y = 2e-13 crosses four edges of the grid {-1, 0, 1}^2;
        # two of its crossings, (2e-13, 0) and (0, 2e-13), agree to 12
        # decimals and are still two vertices of one polyline
        c = 2e-13
        xs = np.array([-1.0, 0.0, 1.0])
        polys = _trace_zero_set(lambda x, y: x + y - c, 1, xs, xs, 1e-15)
        assert len(polys) == 1
        poly = polys[0] if polys[0][0, 0] > 0 else polys[0][::-1]
        want = np.array([[1.0, c - 1.0], [c, 0.0], [0.0, c], [c - 1.0, 1.0]])
        assert poly.shape == (4, 2)
        assert np.allclose(poly, want, rtol=0, atol=1e-15), poly

    def test_closed_curve_ends_on_its_first_vertex(self):
        # the unit circle on a grid of spacing 0.8 crosses 8 edges, two on
        # each of the grid lines x = ±0.4 and y = ±0.4
        xs = np.linspace(-2.0, 2.0, 6)
        polys = _trace_zero_set(lambda x, y: x * x + y * y - 1.0, 2, xs, xs, 1e-12)
        assert len(polys) == 1
        poly = polys[0]
        assert poly.shape == (9, 2)
        assert np.array_equal(poly[0], poly[-1])
        assert len({tuple(p) for p in poly[:-1].tolist()}) == 8
        assert np.allclose(np.hypot(*poly.T), 1.0, rtol=0, atol=1e-11)

    def test_unknown_chart_rejected(self):
        with pytest.raises(SceneError):
            trace_curves(collinear_triple(), chart="u9")

    def test_hessian_crossings_enter_boundary_on_overlap(self):
        # compact transition family: all sextic-Hessian intersections stay
        # strictly interior while the balls are disjoint; once two balls
        # overlap, intersections appear on the cone boundary itself
        from linestab.cli import preset_scene
        from linestab.cone import minimax_slack_batch

        def crossing_slacks(kind):
            scene = preset_scene(f"flexdemo-{kind}")
            tri = Triple(scene)
            slacks = []
            for chart in ("u1", "u2"):
                traces = trace_curves(tri, chart=chart, grid=240, extent=2.5)
                pts = _polyline_crossings(traces.curves["sigma"], traces.curves["hessian"])
                if not pts:
                    continue
                dirs = chart_point_to_direction(chart, *np.array(pts).T)
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                slacks.extend(minimax_slack_batch(scene.centers, scene.radii, dirs))
            return np.array(slacks)

        disjoint = crossing_slacks("disjoint")
        assert len(disjoint) > 0
        assert np.max(disjoint) < -5e-3  # all crossings strictly interior

        overlap = crossing_slacks("overlapping")
        assert len(overlap) > 0
        assert np.min(np.abs(overlap)) <= 1e-3  # a crossing reached the boundary


# ---------------------------------------------------------------------------
# The tracer against the term-by-term evaluation it replaced: every power
# recomputed per term, the Hessian's nine entries evaluated separately, each
# crossing bisected on the function itself, and the polylines chained by
# their crossing points' coordinates rounded to 12 decimals on every lookup,
# not by crossing ids.
# ---------------------------------------------------------------------------


def _termwise_eval_grid(poly, U1, U2, U3):
    total = np.zeros(np.broadcast(U1, U2, U3).shape)
    for (i, j, k), c in poly.coeffs.items():
        total += float(c) * U1 ** i * U2 ** j * U3 ** k
    return total


def _relookup_chain_segments(segments):
    def key(p):
        return (round(p[0], 12), round(p[1], 12))

    adj = {}
    for a, b in segments:
        adj.setdefault(key(a), []).append((a, b))
        adj.setdefault(key(b), []).append((b, a))
    used = set()
    polylines = []
    for a, b in segments:
        if (key(a), key(b)) in used or (key(b), key(a)) in used:
            continue
        chain = [a, b]
        used.add((key(a), key(b)))
        for forward in (True, False):
            while True:
                tip = chain[-1] if forward else chain[0]
                ext = None
                for s, t in adj.get(key(tip), []):
                    if (key(s), key(t)) in used or (key(t), key(s)) in used:
                        continue
                    ext = (s, t)
                    break
                if ext is None:
                    break
                used.add((key(ext[0]), key(ext[1])))
                if forward:
                    chain.append(ext[1])
                else:
                    chain.insert(0, ext[1])
        polylines.append(np.array(chain))
    return polylines


def _termwise_functions(tri):
    """Each curve's function of (U1, U2, U3), or None for a degenerate conic."""
    sig, sig_scale = tri.sigma, tri.sigma_scale
    hess = tri.hessian_entries
    h_scale = max(max(p.max_abs_coeff() for row in hess for p in row) ** 3, 1e-300)

    def hessian(*U):
        H = [[_termwise_eval_grid(p, *U) for p in row] for row in hess]
        # cofactors along the first row, each 2 x 2 minor on the last two rows
        det = (H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
               - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
               + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0]))
        return det / h_scale

    funcs = {"sigma": lambda *U: _termwise_eval_grid(sig, *U) / sig_scale, "hessian": hessian}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        conic = tri.pair_conic(i, j)

        def conic_value(*U, conic=conic):
            return _termwise_eval_grid(conic, *U) / max(conic.max_abs_coeff(), 1e-300)

        funcs[f"pair{i}{j}"] = None if (i, j) in tri.scene.overlapping_pairs() else conic_value
    return funcs


def _termwise_bisect(f, neg, pos, refine_tol):
    """Bisect every segment from neg to pos on f itself, until its bracket
    is below refine_tol; an exact zero ends that segment's bisection."""
    a, b = neg.copy(), pos.copy()
    for _ in range(80):
        active = np.nonzero(np.linalg.norm(b - a, axis=1) > refine_tol)[0]
        if len(active) == 0:
            break
        mid = 0.5 * (a[active] + b[active])
        v = f(mid[:, 0], mid[:, 1])
        a[active[v <= 0]] = mid[v <= 0]
        b[active[v >= 0]] = mid[v >= 0]
    return 0.5 * (a + b)


def _termwise_trace(tri, chart, grid, extent, monkeypatch, refine_tol=1e-10):
    """The polylines of _trace_zero_set on the termwise functions, each
    crossing bisected termwise, with its segments chained by
    _relookup_chain_segments on their crossing points."""
    xs = np.linspace(-extent, extent, grid)

    def trace(g):
        def f(X, Y):
            return g(*np.moveaxis(chart_point_to_direction(chart, X, Y), -1, 0))

        seen = {}

        def crossings(f, degree, neg, pos, tol, label):
            pts = _termwise_bisect(f, neg, pos, tol)
            seen["pts"] = pts.tolist()
            return pts

        def chain(segments, count):
            pts = seen["pts"]
            seen["polys"] = _relookup_chain_segments(
                [(tuple(pts[a]), tuple(pts[b])) for a, b in segments])
            return []

        with monkeypatch.context() as m:
            m.setattr(sextic_mod, "_bisect_crossings", crossings)
            m.setattr(sextic_mod, "_chain_segments", chain)
            sextic_mod._trace_zero_set(f, None, xs, xs, refine_tol)  # no interpolant, no degree
        return seen["polys"]

    return {name: [] if g is None else trace(g) for name, g in _termwise_functions(tri).items()}


def _recorded_crossings(monkeypatch, run):
    """run()'s result, and the arguments and vertices of each
    _bisect_crossings call it made."""
    bisect, calls = sextic_mod._bisect_crossings, []

    def record(*args):
        pts = bisect(*args)
        calls.append((args, pts))
        return pts

    with monkeypatch.context() as m:
        m.setattr(sextic_mod, "_bisect_crossings", record)
        return run(), calls


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_trace_is_bit_identical_to_termwise_evaluation(preset, monkeypatch):
    tri = Triple(preset_scene(preset))
    oracle = _termwise_functions(tri)
    for chart, axis in CHART_AXES.items():
        # the curve functions themselves, on a grid where every float counts
        X, Y = np.meshgrid(*2 * [np.linspace(-2.5, 2.5, 40)], indexing="ij")
        U = list(np.moveaxis(chart_point_to_direction(chart, X, Y), -1, 0))
        P = sextic_mod.GridPowers(*U[:axis], 1.0, *U[axis + 1:])
        for name, g in oracle.items():
            if g is not None:
                got = sextic_mod._curve(tri, name)[0](P)
                assert np.array_equal(got, g(*U)), (chart, name)
        # the traces: bisected on each edge's interpolant, every vertex
        # stays within TRACE_TOL of the termwise bisection's, on the same
        # polylines, and brackets a sign change of the termwise function
        for grid, extent in ((100, 2.0), (160, 2.5)):
            want = _termwise_trace(tri, chart, grid, extent, monkeypatch)
            traces, calls = _recorded_crossings(
                monkeypatch, lambda: trace_curves(tri, chart=chart, grid=grid, extent=extent))
            got = traces.curves
            assert list(got) == list(CURVE_NAMES) == list(want)
            for name in CURVE_NAMES:
                assert [len(p) for p in got[name]] == [len(p) for p in want[name]], (chart, grid, name)
                for g, w in zip(got[name], want[name]):
                    assert np.max(np.hypot(*(g - w).T)) <= TRACE_TOL, (chart, grid, name)
            for (_, _, neg, pos, _, label), pts in calls:
                g = oracle[label.split()[0]]
                d = (pos - neg) / np.linalg.norm(pos - neg, axis=1)[:, None]
                lo, hi = (np.moveaxis(chart_point_to_direction(chart, *(pts + e * d).T), -1, 0)
                          for e in (-TRACE_TOL, TRACE_TOL))
                assert np.all(g(*lo) <= 0) and np.all(g(*hi) >= 0), (chart, grid, label)


@pytest.mark.parametrize("preset", ["two-permutations", "flexdemo-disjoint"])
def test_trace_vertex_does_not_depend_on_its_batch(preset, monkeypatch):
    # a crossing bisected alone lands on the same bits as among all the
    # crossings of its curve
    tri = Triple(preset_scene(preset))
    _, calls = _recorded_crossings(monkeypatch, lambda: trace_curves(tri, grid=100))
    assert sum(len(pts) for _, pts in calls) > 100
    for (f, degree, neg, pos, tol, label), pts in calls:
        for i in range(len(pts)):
            alone = sextic_mod._bisect_crossings(f, degree, neg[i:i + 1], pos[i:i + 1], tol, label)
            assert np.array_equal(alone[0], pts[i]), (label, i)


def test_trace_memory_stays_per_axis():
    # the powers are taken on the grid's two axes, so a 400 x 400 trace
    # holds a few full-grid arrays at a time (the Hessian's 3 x 3 stack is
    # 11.5 MB) and no meshgrid of every power: 32 MB with one, 14 MB without
    tri = Triple(preset_scene("flexdemo-disjoint"))
    tracemalloc.start()
    try:
        trace_curves(tri, grid=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_non_finite_grid_values_name_the_curve():
    # powers of 1e150 overflow, so the grid has no signs to march; every
    # preset's curves are finite in every chart at the figures' extent
    tri = Triple(preset_scene("flexdemo-disjoint"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match=r"^sigma in chart u1 at extent 1e\+150 has non-finite"):
            trace_curves(tri, chart="u1", grid=20, extent=1e150)
    for preset in PRESET_NAMES:
        for chart in CHART_AXES:
            trace_curves(Triple(preset_scene(preset)), chart=chart, grid=20, extent=2.5)


def test_non_finite_edge_values_name_the_curve():
    # finite at every grid point, NaN at the middle Chebyshev point of the
    # crossing edges from x = 0 to x = 1: no sign to bisect on
    xs = np.array([-1.0, 0.0, 1.0])

    def f(x, y):
        return np.where(np.abs(x - 0.5) < 0.1, np.nan, x - 0.25) + 0 * y

    with pytest.raises(SolverError, match=r"^g has non-finite values"):
        _trace_zero_set(f, 2, xs, xs, 1e-12, "g")
