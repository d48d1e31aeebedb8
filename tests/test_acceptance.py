"""Acceptance suite: one test per criterion, at the stated budgets.

Each test prints a single PASS line on success so the suite doubles as a
checklist; run with `pytest tests/test_acceptance.py -v -s`.
"""
import itertools
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from linestab.cli import main as cli_main
from linestab.cli import preset_scene
from linestab.cone import (
    cone_convexity_check,
    count_components,
    enumerate_geometric_permutations,
    minimax_slack_batch,
    realized_orders_batch,
    sample_scene,
)
from linestab.flexprobe import LiftedConfig, certify_flex_free, lifted_hessian_decomposition
from linestab.geom import (
    Scene,
    random_scene_with_transversal,
)
from linestab.sextic import (
    Triple,
    chart_point_to_direction,
    tangent_lines_for_direction,
    trace_curves,
)
from conftest import (
    center_order, eval_hessian_sigma, lifted_triple, line_distance, sample_with_directions,
)


def _ok(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_criterion_1_exact_identity_suite():
    """verify-identities --trials 100: 6/6 exact, within the runtime budget."""
    t0 = time.perf_counter()
    runner = CliRunner()
    r = runner.invoke(cli_main, ["verify-identities", "--trials", "100", "--seed", "42"])
    elapsed = time.perf_counter() - t0
    assert r.exit_code == 0, r.output
    doc = json.loads(r.output)
    assert doc["verdicts"]["pass"] is True
    identities = doc["verdicts"]["identities"]
    assert len(identities) == 6
    for ident in identities:
        assert ident["passes"] == 100, ident
        assert ident["pass"] is True
    assert elapsed < 300.0, f"identity suite took {elapsed:.1f}s"
    _ok(f"1 exact-identities (6/6 x 100 trials, {elapsed:.1f}s)")


def test_criterion_2_cross_oracle_hessian():
    """Sextic-determinant Hessian equals the prefactored H2 + H4 split."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        # one sample, a batch of one, drawn in the same order as ever
        cfg = LiftedConfig(
            a=rng.uniform(0.4, 2.5, size=1),
            b=rng.uniform(-1.5, 1.5, size=1),
            c=rng.uniform(0.3, 2.5, size=1),
            weights=rng.uniform(0.15, 1.0, size=(1, 3)),
            lifts=rng.uniform(-2.5, 2.5, size=(1, 3)),
        )
        [H_total] = lifted_hessian_decomposition(cfg).H_total
        H = eval_hessian_sigma(lifted_triple(cfg), np.array([0.0, 0.0, 1.0]))
        rel = abs(H - H_total) / max(abs(H), abs(H_total), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-8, (cfg, rel)
    _ok(f"2 cross-oracle-hessian (100 configs, worst rel {worst:.2e})")


def test_criterion_3_convexity_theorem():
    """No geodesic-midpoint violations on disjoint scenes, R^3 and R^4."""
    t0 = time.perf_counter()
    total_pairs = 0
    for seed in range(50):
        scene, axis = random_scene_with_transversal(3, 3, (0.6, 1.6), seed=seed)
        order, _ = center_order(scene, axis)
        rep = cone_convexity_check(scene, order, pairs=1000, seed=seed, lattice=2048)
        assert not rep["inconclusive"], f"R3 seed {seed} inconclusive"
        assert rep["violations"] == [], f"R3 seed {seed}: {rep['violation_count']} violations"
        total_pairs += rep["tested_pairs"]
    for seed in range(10):
        scene, axis = random_scene_with_transversal(5, 4, (1.0, 3.0), seed=100 + seed)
        order, _ = center_order(scene, axis)
        rep = cone_convexity_check(scene, order, pairs=1000, seed=seed, lattice=4096)
        assert not rep["inconclusive"], f"R4 seed {seed} inconclusive"
        assert rep["violations"] == [], f"R4 seed {seed}: {rep['violation_count']} violations"
        total_pairs += rep["tested_pairs"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"convexity suite took {elapsed:.1f}s"
    _ok(f"3 convexity (60 scenes, {total_pairs} midpoints, 0 violations, {elapsed:.1f}s)")


def test_criterion_4_disjointness_necessity():
    """The sliding-ball panels: violations appear exactly with the overlap.

    Meeting order along a transversal is decided by entry points here; on
    the disjoint panel that coincides with the center-projection order.
    """
    overlap = preset_scene("transition-overlapping")
    rep = cone_convexity_check(
        overlap,
        (0, 1, 2),
        pairs=10000,
        seed=1,
        lattice=4096,
        order_semantics="entry",
    )
    assert rep["violation_count"] >= 1, "overlapping panel shows no midpoint violation"

    disjoint = preset_scene("transition-disjoint")
    cat = enumerate_geometric_permutations(sample_scene(disjoint, 4096))
    assert cat["count"] >= 1
    for entry in cat["permutations"]:
        rep_d = cone_convexity_check(
            disjoint,
            entry["witness_order"],
            pairs=10000,
            seed=1,
            lattice=4096,
            order_semantics="entry",
        )
        assert rep_d["violations"] == [], "disjoint panel shows a midpoint violation"
    _ok(
        f"4 disjointness-necessity (overlap: {rep['violation_count']} violations / "
        f"{rep['tested_pairs']}, disjoint: 0)"
    )


def test_criterion_5_flex_free_boundary():
    """Positive probe margins on disjoint triples; monotone decay to zero
    along a sweep to tangency."""
    probed_total = 0
    for seed in range(20):
        scene, _ = random_scene_with_transversal(3, 3, (0.7, 1.5), seed=300 + seed)
        tri = Triple(scene)
        rep = certify_flex_free(tri, boundary_samples=200)
        for s in rep.samples:
            if s["margin"] is not None:
                assert s["margin"] > 0.0, f"seed {seed}: nonpositive margin"
                probed_total += 1
    assert probed_total > 100, "flex probes were vacuous"

    gaps = (0.2, 0.1, 0.05, 0.02, 0.008)
    margins = []
    for g in gaps:
        tri = Triple(Scene([[0, 0, 0], [2.0 + g, 0, 0], [1.1, 2.2, 0]], [1.0, 1.0, 1.0]))
        rep = certify_flex_free(tri, boundary_samples=200)
        assert rep.probed > 0 and rep.min_margin > 0
        margins.append(rep.min_margin)
    assert all(b < a for a, b in zip(margins, margins[1:])), margins
    assert margins[-1] < 0.1 * margins[0], margins
    _ok(
        f"5 flex-free-boundary ({probed_total} probes > 0; sweep "
        f"{margins[0]:.3f} -> {margins[-1]:.3f})"
    )


def test_criterion_6_permutations_equal_components():
    """Component count equals geometric-permutation count on random scenes."""
    t0 = time.perf_counter()
    cases = []
    for k in range(30):
        d = 3 if k % 2 == 0 else 4
        n = 3 + (k % 3)
        cases.append((n, d, 500 + k))
    for n, d, seed in cases:
        scene, _ = random_scene_with_transversal(n, d, (0.8, 2.0), seed=seed)
        sset = sample_scene(scene, 100_000, seed=0)
        cat = enumerate_geometric_permutations(sset)
        comp = count_components(sset)
        assert comp["count"] == cat["count"], (n, d, seed, comp["count"], cat["count"])
    elapsed = time.perf_counter() - t0
    _ok(f"6 permutations-equal-components (30 scenes at 1e5 samples, {elapsed:.1f}s)")


def test_criterion_7_helly_consistency():
    """Scene feasibility equals the conjunction of all triple feasibilities."""
    rng = np.random.default_rng(99)
    checked = 0
    feasible_seen = 0
    for seed in range(10):
        scene, axis = random_scene_with_transversal(6, 3, (0.6, 1.2), seed=700 + seed)
        U = []
        from linestab.cone import sample_directions

        lattice = sample_directions(3, 400, seed=seed)
        U.append(lattice)
        jitter = axis[None, :] + 0.2 * rng.normal(size=(100, 3))
        U.append(jitter / np.linalg.norm(jitter, axis=1, keepdims=True))
        U = np.vstack(U)
        scene_feas = minimax_slack_batch(scene.centers, scene.radii, U) <= 1e-9
        conj = np.ones(len(U), dtype=bool)
        for sub in itertools.combinations(range(6), 3):
            sl = minimax_slack_batch(
                scene.centers[list(sub)], scene.radii[list(sub)], U
            )
            conj &= sl <= 1e-9
        assert np.array_equal(scene_feas, conj), f"seed {seed}: Helly mismatch"
        checked += len(U)
        feasible_seen += int(np.sum(scene_feas))
    assert feasible_seen > 0
    _ok(f"7 helly-consistency ({checked} directions, {feasible_seen} feasible, 0 mismatches)")


def test_criterion_8_tangent_recovery():
    """Every recovered tritangent touches all three spheres to 1e-8."""
    triples = [Triple(preset_scene("flexdemo-disjoint"))]
    for seed in (12, 13, 17, 21):
        scene, _ = random_scene_with_transversal(3, 3, (0.8, 1.6), seed=seed)
        triples.append(Triple(scene))
    total_lines = 0
    for tri in triples:
        collected = 0
        for chart in ("u1", "u2", "u3"):
            traces = trace_curves(tri, chart=chart, grid=160, extent=2.5)
            for poly in traces.curves["sigma"]:
                for x, y in poly[::3]:
                    if collected >= 20:
                        break
                    u = chart_point_to_direction(chart, x, y)
                    u = u / np.linalg.norm(u)
                    feet, errors = tangent_lines_for_direction(tri, [u])
                    assert errors == [None], errors
                    for foot in feet[0][~np.isnan(feet[0, :, 0])]:
                        for center, radius in zip(tri.centers, tri.scene.radii):
                            err = abs(line_distance(foot, u, center) - radius)
                            assert err <= 1e-8, err
                        total_lines += 1
                        collected += 1
            if collected >= 20:
                break
        assert collected >= 20, "triple produced too few traced directions"
    _ok(f"8 tangent-recovery ({total_lines} tritangents within 1e-8)")


def test_criterion_9_pinning_point_cone():
    """The pinned configuration admits exactly one feasible direction."""
    scene = preset_scene("pinned")
    axis = np.array([1.0, 0.0, 0.0])
    sset = sample_with_directions(scene, 1_000_000, axis[None, :])
    feasible = sset.directions[sset.slacks <= 1e-9]
    assert len(feasible) == 1, f"{len(feasible)} feasible directions found"
    # the library's own predicate (slack <= band, no tie) finds the same one
    assert np.array_equal(sset.directions[sset.feasible], feasible)
    cos = abs(float(feasible[0] @ axis))
    assert cos >= np.cos(1e-3)
    order, _ = realized_orders_batch(scene, feasible)
    assert tuple(order[0]) == (0, 1, 2)
    _ok("9 pinning-point-cone (1 feasible direction among 1e6+1 samples)")
