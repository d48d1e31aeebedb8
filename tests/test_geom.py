import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from linestab.cli import PRESET_NAMES, main, preset_scene
from linestab.cone import minimax_slack_batch, minimax_weights_batch
from linestab.geom import (
    Scene,
    SceneError,
    SolverError,
    _unit_rows,
    orthonormal_basis_of_complement,
    random_disjoint_scene,
    random_scene_with_transversal,
)
from linestab.sextic import Triple
from conftest import (
    center_order, collinear_scene, line_entry_parameters, moved_scene, scene_classification,
    simplex_minimax,
)


def project_centers(scene, u):
    """Centers projected onto u^perp, in the coordinates of its basis."""
    return scene.centers @ orthonormal_basis_of_complement(u).T


E3 = np.array([[0.0, 0.0, 1.0]])


def planar_minimax(centers2, radii):
    """Kernel slack and minimax point of planar disks, embedded at z = 0 with u = e3."""
    centers2 = np.asarray(centers2, dtype=float)
    centers3 = np.column_stack([centers2, np.zeros(len(centers2))])
    slack = minimax_slack_batch(centers3, radii, E3)[0]
    point = minimax_weights_batch(centers3, radii, E3)[0] @ centers2
    return slack, point


def scene_slack(scene, u):
    return minimax_slack_batch(scene.centers, scene.radii, np.array([u], dtype=float))[0]


class TestValidation:
    def test_radius_must_be_positive(self):
        for radius in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(SceneError, match=f"must be positive and finite, got {radius}"):
                Scene([[0, 0, 0], [5, 0, 0]], [1.0, radius])

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_center_must_be_finite(self, entry):
        with pytest.raises(SceneError, match="center has non-finite entries"):
            Scene([[0, 0, 0], [5, entry, 0]], [1.0, 1.0])

    def test_overlap_rejected_without_flag(self):
        with pytest.raises(SceneError, match="disjoint"):
            Scene([[0, 0, 0], [1, 0, 0]], [1.0, 1.0])

    def test_overlap_allowed_with_flag(self):
        sc = Scene([[0, 0, 0], [1, 0, 0]], [1.0, 1.0], allow_overlap=True)
        assert sc.overlapping_pairs() == [(0, 1)]

    @pytest.mark.parametrize("centers, radii, name", [
        ([[1j, 0, 0], [5, 0, 0]], [1.0, 1.0], "centers"),
        (np.zeros((2, 3), dtype=complex) + [[0], [5]], [1.0, 1.0], "centers"),
        ([[0, 0, 0], [5, 0, 0]], [1.0, 1.0 + 0j], "radii"),
    ])
    def test_complex_entries_are_rejected(self, centers, radii, name):
        # numpy would drop the imaginary part with a warning
        with pytest.raises(SceneError, match=f"malformed {name}"):
            Scene(centers, radii)

    def test_dimension_mismatch(self):
        # rows of two lengths are no scene; in a document, a centre whose
        # length is not the stated dimension names both
        with pytest.raises(SceneError, match="malformed centers"):
            Scene([[0, 0, 0], [5, 0]], [1.0, 1.0])
        doc = {"dimension": 3, "balls": [{"center": [0, 0], "radius": 1.0}]}
        with pytest.raises(SceneError, match="ball of dimension 2 in scene of dimension 3"):
            Scene.from_json_dict(doc)

    @pytest.mark.parametrize("centers, match", [
        (np.zeros((0, 3)), "scene needs at least one ball"),
        ([], "scene needs at least one ball"),
        ([[0.0], [5.0]], "dimension must be at least 2"),
        ([0.0, 0.0, 0.0], "centers must be n rows of d entries"),
    ])
    def test_rows_must_hold_balls_in_the_plane_or_above(self, centers, match):
        with pytest.raises(SceneError, match=match):
            Scene(centers, [1.0] * len(centers))

    @pytest.mark.parametrize("radii", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 1.0])
    def test_one_radius_per_center(self, radii):
        with pytest.raises(SceneError, match="radii must be 2 numbers, one per center"):
            Scene([[0, 0, 0], [5, 0, 0]], radii)

    def test_overflowing_diameter_rejected(self):
        with pytest.raises(SceneError, match="squared diameter overflows"):
            Scene([[0, 0, 0], [1e200, 0, 0]], [1.0, 1.0])

    def test_dimension_is_read_off_the_rows(self):
        rows, radii = np.array([[0.0, 0, 0, 0], [5, 0, 0, 0]]), [1.0, 1.0]
        scene = Scene(rows, radii)
        assert scene.dimension == 4 and len(scene) == 2
        with pytest.raises(AttributeError):
            scene.dimension = 3
        # the rows are read-only copies: the caller's array does not move them
        rows[0, 0] = 100.0
        assert scene.centers[0, 0] == 0.0
        assert not scene.centers.flags.writeable and not scene.radii.flags.writeable
        assert scene.centers.flags.c_contiguous and scene.centers.dtype == np.float64

    def test_zero_direction_rejected(self):
        with pytest.raises(SceneError, match="zero vector"):
            orthonormal_basis_of_complement([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("v", [[1e308, 1e308, 1.0], [-1e308, 2e307, 0.0, 5.0]])
    def test_huge_direction_normalizes(self, v):
        # |v| overflows to inf; the kernel's row is still the unit vector
        # along v, and the basis of its complement is still orthonormal
        [u] = _unit_rows([v])
        w = np.array(v) / np.max(np.abs(v))
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15
        np.testing.assert_allclose(u, w / np.linalg.norm(w), rtol=1e-15)
        B = orthonormal_basis_of_complement(np.array(v))
        np.testing.assert_allclose(B @ B.T, np.eye(len(v) - 1), atol=1e-12)
        np.testing.assert_allclose(B @ u, 0.0, atol=1e-12)


def test_scene_objects_compare_and_hash_by_identity():
    # the generated __eq__ compared numpy centres with ==, which raised
    # "truth value of an array ... is ambiguous"; a set needed a hash
    def make():
        return [collinear_scene(), Triple(collinear_scene())]

    first, second = make(), make()
    for x, y in zip(first, second):
        assert x == x and x != y
        assert len({x, y, x}) == 2


class TestSceneJson:
    def test_round_trip_exact(self):
        scene = random_disjoint_scene(4, 3, (0.5, 2.0), seed=3)
        back = Scene.from_json_dict(json.loads(json.dumps(scene.to_json_dict())))
        assert back.dimension == scene.dimension
        np.testing.assert_array_equal(back.centers, scene.centers)
        np.testing.assert_array_equal(back.radii, scene.radii)

    def test_schema_fields(self):
        doc = collinear_scene().to_json_dict()
        assert doc["dimension"] == 3
        assert doc["order_is_significant"] is True
        assert len(doc["balls"]) == 3
        assert set(doc["balls"][0]) == {"center", "radius"}


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 5), n=st.integers(1, 5), overlap=st.booleans(), data=st.data())
def test_json_round_trip_is_bit_exact(d, n, overlap, data):
    # any finite rows (subnormals and -0.0 among them) with allow_overlap, or
    # a generated disjoint scene without: the document gives back every bit,
    # and writes the same text again
    if overlap:
        coords = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
        centers = [[data.draw(coords) for _ in range(d)] for _ in range(n)]
        radii = [data.draw(st.floats(5e-324, 1e100)) for _ in range(n)]
        scene = Scene(centers, radii, allow_overlap=True)
    else:
        scene = random_disjoint_scene(n, d, (0.5, 2.0), seed=data.draw(st.integers(0, 10**6)))
    text = json.dumps(scene.to_json_dict())
    back = Scene.from_json_dict(json.loads(text))
    assert back.centers.tobytes() == scene.centers.tobytes()
    assert back.radii.tobytes() == scene.radii.tobytes()
    assert (back.dimension, len(back), back.allow_overlap) == (d, n, overlap)
    assert json.dumps(back.to_json_dict()) == text


MALFORMED = ("ragged", "radii-length", "no-balls", "dimension", "non-finite-center",
             "bad-radius", "bool-or-string", "json-dimension")


def _malformed(kind, draw):
    """A valid scene's rows, with one defect of the given kind: (centers,
    radii) for Scene, or None where the defect has no row form, and the
    scene document with that defect."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    offsets = st.floats(-1.0, 1.0, allow_nan=False)
    centers = [[10.0 * i] + [draw(offsets) for _ in range(d - 1)] for i in range(n)]
    radii = [draw(st.floats(0.5, 2.0)) for _ in range(n)]
    Scene(centers, radii)  # the rows before the defect are a scene
    k, j, dim, rows = draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1)), d, True
    doc_radii = radii
    if kind == "ragged":
        centers.append([10.0 * n] * draw(st.sampled_from([1, d - 1, d + 1])))
        radii.append(1.0)
    elif kind == "radii-length":
        # a document gives each ball one radius: its defect is a list there
        doc_radii = radii[:k] + [[1.0, 1.0]] + radii[k + 1:]
        radii = radii + [1.0] if draw(st.booleans()) else radii[:-1]
    elif kind == "no-balls":
        centers, radii = [], []
    elif kind == "dimension":
        dim = draw(st.sampled_from([0, 1]))
        centers = [c[:dim] for c in centers]
    elif kind == "non-finite-center":
        centers[k][j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "bad-radius":
        radii[k] = draw(st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.inf, math.nan]))
    elif kind == "bool-or-string":
        bad = draw(st.sampled_from([True, False, "1.0", "a"]))
        rows = isinstance(bad, str)  # numpy reads a bool among floats as a number
        if draw(st.booleans()):
            centers[k][j] = bad
        else:
            radii[k] = bad
    else:  # a document whose centres are not of its stated dimension
        dim, rows = d + draw(st.sampled_from([-2, -1, 1])), False
    balls = [{"center": c, "radius": r} for c, r in zip(centers, doc_radii)]
    return (centers, radii) if rows else None, {"dimension": dim, "balls": balls}


@pytest.mark.parametrize("kind", MALFORMED)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_malformed_scenes_are_scene_errors_and_usage_errors(kind, data):
    # a SceneError, never numpy's ValueError, from the rows and from the
    # document; through the CLI, exit 2 with a message and no traceback
    rows, doc = _malformed(kind, data.draw)
    if rows is not None:
        with pytest.raises(SceneError):
            Scene(*rows)
    with pytest.raises(SceneError):
        Scene.from_json_dict(doc)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "scene.json")
        path.write_text(json.dumps(doc))
        r = CliRunner().invoke(main, ["check-convexity", "--scene", str(path)])
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert "invalid scene" in r.output and "Traceback" not in r.output


class TestProjection:
    def test_collinear_axis_projection(self):
        # projecting along the line of centers collapses all disks onto one
        c2 = project_centers(collinear_scene(), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(c2, 0.0, atol=1e-12)

    def test_z_axis_projection_is_xy(self):
        centers = project_centers(collinear_scene(), [0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            np.sort(np.linalg.norm(centers - centers[0], axis=1)), [0, 4, 8], atol=1e-12
        )

    def test_rotation_invariance(self, rng):
        scene = random_disjoint_scene(4, 3, (0.5, 1.5), seed=9)
        u = rng.normal(size=3)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = moved_scene(scene, rotation=Q)
        c1 = project_centers(scene, u)
        c2 = project_centers(rotated, Q @ u)
        for i in range(len(c1)):
            for j in range(len(c1)):
                assert np.isclose(
                    np.linalg.norm(c1[i] - c1[j]), np.linalg.norm(c2[i] - c2[j]), atol=1e-9
                )

    def test_projection_contracts_distances(self, rng):
        scene = random_disjoint_scene(5, 4, (0.5, 1.5), seed=11)
        for _ in range(20):
            u = rng.normal(size=4)
            c2 = project_centers(scene, u)
            for i in range(5):
                for j in range(i + 1, 5):
                    orig = np.linalg.norm(scene.centers[i] - scene.centers[j])
                    proj = np.linalg.norm(c2[i] - c2[j])
                    assert proj <= orig + 1e-12

    def test_perpendicular_edge_preserves_distance(self):
        scene = Scene([[0, 0, 0], [0, 5, 0]], [1.0, 1.0])
        c2 = project_centers(scene, [1.0, 0.0, 0.0])
        d = np.linalg.norm(c2[0] - c2[1])
        assert np.isclose(d, 5.0, atol=1e-12)

    def test_basis_is_orthonormal_and_deterministic(self, rng):
        for d in (2, 3, 4, 6):
            u = rng.normal(size=d)
            B1 = orthonormal_basis_of_complement(u)
            B2 = orthonormal_basis_of_complement(u)
            np.testing.assert_array_equal(B1, B2)
            np.testing.assert_allclose(B1 @ B1.T, np.eye(d - 1), atol=1e-12)
            np.testing.assert_allclose(B1 @ (u / np.linalg.norm(u)), 0.0, atol=1e-12)


def brute_force_grid_minimax(centers, radii, resolution=201):
    """Plain dense-grid evaluation of min_x max_i (|x-c_i| - r_i).

    No refinement: the value is exact up to one grid cell (the objective is
    1-Lipschitz), which makes the error bound explicit.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    lo = centers.min(axis=0) - radii.max()
    hi = centers.max(axis=0) + radii.max()
    axes = [np.linspace(lo[k], hi[k], resolution) for k in range(centers.shape[1])]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    vals = np.max(
        np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2) - radii[None, :],
        axis=1,
    )
    cell = float(np.linalg.norm([(hi[k] - lo[k]) / (resolution - 1) for k in range(2)]))
    return float(np.min(vals)), cell


class TestDisksCommonPoint:
    """The minimax kernel on planar disks, fed as z = 0 centers with u = e3."""

    def test_two_unit_disks_midpoint(self):
        slack, point = planar_minimax([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
        np.testing.assert_allclose(point, [0.5, 0.0], atol=1e-9)
        assert np.isclose(slack, -0.5, atol=1e-12)

    def test_equilateral_side3_infeasible(self):
        pts = [(0, 0), (3, 0), (1.5, 1.5 * math.sqrt(3))]
        slack, point = planar_minimax(pts, np.ones(3))
        # optimum at circumcenter; slack = circumradius - 1 = sqrt(3) - 1
        assert slack > 0
        assert np.isclose(slack, math.sqrt(3) - 1, atol=1e-9)
        np.testing.assert_allclose(point, [1.5, 1.5 / math.sqrt(3)], atol=1e-9)

    def test_feasibility_flips_at_sqrt3(self):
        # circumradius of an equilateral triangle with side s is s/sqrt(3);
        # three unit disks at its vertices share a point iff s <= sqrt(3)
        for s, feasible in ((math.sqrt(3) - 1e-3, True), (math.sqrt(3) + 1e-3, False)):
            pts = [(0, 0), (s, 0), (s / 2, s * math.sqrt(3) / 2)]
            slack, _ = planar_minimax(pts, np.ones(3))
            assert (slack <= 0) == feasible
            # analytic: optimum at the circumcenter, slack = s/sqrt(3) - 1
            assert abs(slack - (s / math.sqrt(3) - 1.0)) <= 1e-12

    def test_matches_brute_force_on_random_instances(self, rng):
        for trial in range(12):
            n = int(rng.integers(2, 7))
            centers = rng.uniform(-3, 3, size=(n, 2))
            radii = rng.uniform(0.2, 2.0, size=n)
            slack, _ = planar_minimax(centers, radii)
            grid_val, cell = brute_force_grid_minimax(centers, radii)
            assert slack <= grid_val + 1e-12  # grid points are upper bounds
            assert grid_val <= slack + cell   # 1-Lipschitz grid error bound
            # independent high-accuracy oracle
            assert abs(slack - simplex_minimax(centers, radii)) <= 1e-8

    def test_empty_input_rejected(self):
        with pytest.raises(SolverError):
            minimax_slack_batch(np.zeros((0, 3)), np.zeros(0), E3)

    def test_optimality_certificate(self, rng):
        # at the optimum, zero lies in the convex hull of the active cone
        # gradients (or the point coincides with a deepest center)
        for trial in range(15):
            n = int(rng.integers(2, 7))
            centers = rng.uniform(-3, 3, size=(n, 2))
            radii = rng.uniform(0.2, 2.0, size=n)
            slack, point = planar_minimax(centers, radii)
            g = np.linalg.norm(centers - point, axis=1) - radii
            assert abs(np.max(g) - slack) <= 1e-12  # the point attains the slack
            active = np.nonzero(g >= slack - 1e-9)[0]
            dists = np.linalg.norm(centers[active] - point, axis=1)
            if np.any(dists < 1e-9):
                continue  # optimum at a center: the single-disk case
            grads = (point - centers[active]) / dists[:, None]
            # least-squares convex combination of gradients closest to zero
            k = len(active)
            A = np.vstack([grads.T, np.ones(k)])
            b = np.concatenate([np.zeros(2), [1.0]])
            lam, *_ = np.linalg.lstsq(A, b, rcond=None)
            lam = np.clip(lam, 0, None)
            if lam.sum() > 0:
                lam /= lam.sum()
            resid = np.linalg.norm(grads.T @ lam)
            assert resid <= 1e-6, (trial, resid, k)


class TestTransversalOrder:
    def test_axis_order(self):
        assert center_order(collinear_scene(), [1, 0, 0]) == ((0, 1, 2), False)

    def test_reversed_axis(self):
        assert center_order(collinear_scene(), [-1, 0, 0])[0] == (2, 1, 0)

    def test_tie_reported(self):
        assert center_order(collinear_scene(), [0, 0, 1])[1]

    def test_entry_point_oracle(self):
        # a real transversal's entry order must match the center-key order
        for seed in range(5):
            scene, direction = random_scene_with_transversal(4, 3, (0.6, 1.4), seed=seed)
            entries = line_entry_parameters([0, 0, 0], direction, scene)
            assert all(e is not None for e in entries)
            oracle = tuple(int(i) for i in np.argsort(entries))
            assert center_order(scene, direction)[0] == oracle


class TestSceneClassification:
    def test_thinly_distributed(self):
        s = 5.0
        pts = [(0, 0, 0), (s, 0, 0), (s / 2, s * math.sqrt(3) / 2, 0)]
        flags = scene_classification(Scene(pts, np.ones(3)))
        assert flags.thinly_distributed
        assert flags.pairwise_inflatable

    def test_inflatable_but_not_thin(self):
        s = math.sqrt(4.5)
        pts = [(0, 0, 0), (s, 0, 0), (s / 2, s * math.sqrt(3) / 2, 0)]
        flags = scene_classification(Scene(pts, np.ones(3)))
        assert flags.pairwise_inflatable
        assert not flags.thinly_distributed

    def test_collinear_detection(self):
        assert scene_classification(collinear_scene()).collinear_centers
        sc = Scene([[0, 0, 0], [4, 0, 0], [2, 5, 0]], [1.0, 1.0, 1.0])
        assert not scene_classification(sc).collinear_centers


def _assert_relabelling_keeps_scene_data(scene, perm):
    """The scene's overlapping pairs are those of the pairwise loop, and
    relabelling the balls by perm (ball k of the new scene is ball perm[k])
    keeps band and diameter bit for bit and maps those pairs through perm."""
    c, r = scene.centers, scene.radii
    assert scene.overlapping_pairs() == [
        (a, b) for a, b in itertools.combinations(range(len(scene)), 2)
        if np.linalg.norm(c[a] - c[b]) <= r[a] + r[b]]
    moved = moved_scene(scene, perm)
    assert (moved.band, moved.diameter) == (scene.band, scene.diameter), perm
    mapped = {tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in moved.overlapping_pairs()}
    assert mapped == set(scene.overlapping_pairs()), perm


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_moved_scene_copies_are_exact(name):
    # the tests that pin bits on 2^k copies and relabellings read these rows
    scene = preset_scene(name)
    for k in (-330, -200, 200, 300):
        copy = moved_scene(scene, scale=2.0 ** k)
        assert np.array_equal(copy.centers, np.ldexp(scene.centers, k))
        assert np.array_equal(copy.radii, np.ldexp(scene.radii, k))
    relabelled = moved_scene(scene, (2, 0, 1))
    assert np.array_equal(relabelled.centers, scene.centers[[2, 0, 1]])
    assert np.array_equal(relabelled.radii, scene.radii[[2, 0, 1]])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_relabelled_presets_keep_band_diameter_and_overlaps(name):
    scene = preset_scene(name)
    for perm in itertools.permutations(range(len(scene))):
        _assert_relabelling_keeps_scene_data(scene, perm)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), d=st.integers(2, 5))
def test_relabelling_keeps_band_diameter_and_overlaps(seed, n, d):
    # centres a few radii apart, so that some pairs overlap
    rng = np.random.default_rng(seed)
    centers, radii = [], []
    for _ in range(n):
        centers.append(3.0 * rng.normal(size=d))
        radii.append(rng.uniform(0.2, 2.0))
    _assert_relabelling_keeps_scene_data(Scene(centers, radii, allow_overlap=True),
                                         rng.permutation(n))


class TestGenerators:
    def test_determinism(self):
        a = random_disjoint_scene(3, 3, (1.0, 1.0), seed=7)
        b = random_disjoint_scene(3, 3, (1.0, 1.0), seed=7)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.radii, b.radii)

    def test_generated_scenes_disjoint(self):
        for seed in range(8):
            scene = random_disjoint_scene(5, 3, (0.5, 2.0), seed=seed)
            assert not scene.overlapping_pairs()

    def test_transversal_constraint(self):
        scene, direction = random_scene_with_transversal(5, 4, (1.0, 3.0), seed=1)
        assert scene_slack(scene, direction) <= 0
        # the construction direction is feasible for its own order
        from linestab.cone import evaluate_directions

        order, _ = center_order(scene, direction)
        assert evaluate_directions(scene, direction[None, :]).feasible_for_order(order)[0]

    def test_collinear_center_direction_always_feasible(self):
        scene = collinear_scene()
        assert scene_slack(scene, [1.0, 0.0, 0.0]) <= 0
        assert center_order(scene, [1, 0, 0])[0] == (0, 1, 2)

    def test_bad_arguments(self):
        with pytest.raises(SceneError):
            random_disjoint_scene(0, 3, (1.0, 2.0), seed=0)
        with pytest.raises(SceneError):
            random_disjoint_scene(3, 1, (1.0, 2.0), seed=0)
        with pytest.raises(SceneError):
            random_disjoint_scene(3, 3, (2.0, 1.0), seed=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ux=st.floats(-1, 1, allow_nan=False),
    uy=st.floats(-1, 1, allow_nan=False),
    uz=st.floats(0.1, 1, allow_nan=False),
)
def test_projection_isometry_property(seed, ux, uy, uz):
    scene = random_disjoint_scene(3, 3, (0.5, 1.5), seed=seed % 50)
    u = np.array([ux, uy, uz])
    u /= np.linalg.norm(u)
    c2 = project_centers(scene, u)
    for i in range(3):
        for j in range(i + 1, 3):
            proj = np.linalg.norm(c2[i] - c2[j])
            orig = np.linalg.norm(scene.centers[i] - scene.centers[j])
            assert proj <= orig + 1e-9
            edge = scene.centers[j] - scene.centers[i]
            cos = abs(np.dot(edge, u)) / np.linalg.norm(edge)
            if cos < 1e-9:  # edge perpendicular to the direction
                assert np.isclose(proj, orig, atol=1e-9)
