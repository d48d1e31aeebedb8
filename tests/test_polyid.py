import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from linestab.flexprobe import (
    CanonicalCoords,
    HessianSplit,
    LiftedConfig,
    lifted_hessian_decomposition,
)
from linestab.polyid import (
    IdentitySpec,
    as_exact,
    check_identity,
    exact_hessian_at_pole,
    identity_catalog,
    schwartz_zippel_suite,
)
from linestab.sextic import DirectionPoly, PoleJet, bordered_matrix, poly_det, sigma_from_geometry
from conftest import lifted_triple


def spec_by_id(identifier):
    return {s.identifier: s for s in identity_catalog()}[identifier]


def exact_config(a, b, c, p, x) -> LiftedConfig:
    return LiftedConfig(a=as_exact(a), b=as_exact(b), c=as_exact(c),
                        weights=[as_exact(v) for v in p], lifts=[as_exact(v) for v in x])


def _lifted_geometry(a, b, c, p, x):
    """Centres (0, 0, x0), (a, 0, x1), (b, c, x2), then the squared radii, exact."""
    cfg = exact_config(a, b, c, p, x)
    return (*cfg.centers, *cfg.squared_radii)


def exact_lifted_sigma(a, b, c, p, x) -> DirectionPoly:
    """Oracle: the full 28-coefficient Fraction expansion of the lifted sextic."""
    return sigma_from_geometry(*_lifted_geometry(a, b, c, p, x))


def oracle_hessian_at_pole(sig: DirectionPoly) -> Fraction:
    """Oracle: differentiate the full expansion twice and evaluate at (0, 0, 1)."""
    zero, one = Fraction(0), Fraction(1)
    H = [[None] * 3 for _ in range(3)]
    for m in range(3):
        dm = sig.diff(m)
        for n in range(m, 3):
            H[m][n] = H[n][m] = dm.diff(n)(zero, zero, one)
    return _det3(H)


def _det3(H):
    return (
        H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
        - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
        + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0])
    )


def _pole_hessian(cfg, euler=5, swap=False, power=18):
    """The integer 2-jet path of exact_hessian_at_pole, with mutation knobs."""
    a, b, c, x = cfg.a, cfg.b, cfg.c, cfg.lifts
    s = cfg.squared_radii
    L = math.lcm(*(v.denominator for v in (a, b, c, *x, *s)))
    ia, ib, ic, x0, x1, x2 = (int(v * L) for v in (a, b, c, *x))
    m = bordered_matrix((0, 0, x0), (ia, 0, x1), (ib, ic, x2), *(int(v * L * L) for v in s))
    c00, c10, c01, c20, c11, c02 = poly_det([[PoleJet.of(e) for e in row] for row in m]).c
    if swap:
        c20, c02 = c02, c20
    e = euler
    H = ((2 * c20, c11, e * c10), (c11, 2 * c02, e * c01), (e * c10, e * c01, 30 * c00))
    return Fraction(_det3(H), L ** power)


class TestExactScalar:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_exact(0.5)

    def test_accepted_forms(self):
        assert as_exact(3) == Fraction(3)
        assert as_exact("2/7") == Fraction(2, 7)
        assert as_exact(Fraction(1, 3)) == Fraction(1, 3)


class TestCatalog:
    def test_six_identities(self):
        cat = identity_catalog()
        assert len(cat) == 6
        assert len({s.identifier for s in cat}) == 6

    def test_beta_sum_symmetric_point(self):
        v = check_identity(
            spec_by_id("beta-product-sum"),
            {"q": (Fraction(1), Fraction(1), Fraction(1))},
        )
        assert v.equal
        assert v.lhs == Fraction(27, 64)

    def test_vertex_factorization_symmetric_point(self):
        v = check_identity(
            spec_by_id("vertex-factorization"),
            {"q": (Fraction(1), Fraction(1), Fraction(1))},
        )
        assert v.equal
        assert v.lhs == Fraction(3, 4)

    def test_symmetric_plane_value(self):
        for q in (Fraction(1), Fraction(2, 3), Fraction(17, 5)):
            v = check_identity(spec_by_id("symmetric-plane-value"), {"q": q})
            assert v.equal
            assert v.rhs == Fraction(15, 8)

    def test_area_lemma_equilateral_centroid(self):
        asg = {
            "a": Fraction(1),
            "b": Fraction(1, 2),
            "c": Fraction(1),  # rational stand-in; identity holds for any c
            "p": (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        }
        v = check_identity(spec_by_id("area-q-lemma"), asg)
        assert v.equal
        assert v.lhs == Fraction(1)

    def test_master_identity_random_rationals(self, rng):
        spec = spec_by_id("master-hessian-decomposition")
        r = np.random.default_rng(7)
        for _ in range(5):
            asg = spec.sampler(r, 100)
            v = check_identity(spec, asg)
            assert v.equal, v

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_float_side_rejected(self, side):
        spec = spec_by_id("area-q-lemma")
        floated = replace(spec, **{side: lambda asg, f=getattr(spec, side): float(f(asg))})
        asg = spec.sampler(np.random.default_rng(0), 50)
        assert check_identity(spec, asg).equal
        with pytest.raises(TypeError, match="float"):
            check_identity(floated, asg)

    def test_float_in_tuple_side_rejected(self):
        spec = spec_by_id("gram-solution")
        floated = replace(spec, rhs=lambda asg: tuple(float(v) for v in spec.rhs(asg)))
        with pytest.raises(TypeError, match="float"):
            check_identity(floated, spec.sampler(np.random.default_rng(0), 50))

    def test_domain_violation_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            check_identity(
                spec_by_id("beta-product-sum"),
                {"q": (Fraction(1), Fraction(1), Fraction(5))},
            )


class TestMutationSensitivity:
    def test_each_identity_catches_a_mutated_rhs(self):
        r = np.random.default_rng(11)
        for spec in identity_catalog():
            mutated = replace(
                spec, rhs=lambda asg, s=spec: _perturb(s.rhs(asg))
            )
            caught = False
            for _ in range(8):
                asg = spec.sampler(r, 60)
                if not check_identity(mutated, asg).equal:
                    caught = True
                    break
            assert caught, spec.identifier

    def test_vertex_coefficient_three_to_two(self):
        spec = spec_by_id("vertex-factorization")

        def bad_rhs(cc):
            q = cc.q
            prod = Fraction(1)
            for k in range(3):
                i, j = (k + 1) % 3, (k + 2) % 3
                prod *= (q[i] + q[j] - q[k]) ** 2
            return 2 * prod / (4 * (q[0] * q[1] * q[2]) ** 2)  # 3 -> 2

        mutated = replace(spec, rhs=bad_rhs)
        v = check_identity(mutated, {"q": (Fraction(1), Fraction(1), Fraction(1))})
        assert not v.equal
        assert v.lhs == Fraction(3, 4) and v.rhs == Fraction(1, 2)

    @pytest.mark.parametrize(
        "mutant",
        [dict(euler=4), dict(swap=True), dict(power=17)],
        ids=["euler-factor-4", "swap-c20-c02", "divide-by-L17"],
    )
    def test_master_lhs_mutants_caught(self, mutant):
        spec = spec_by_id("master-hessian-decomposition")
        r = np.random.default_rng(11)
        asgs = [spec.sampler(r, 60) for _ in range(8)]
        # the unmutated replica is the library's lhs, so each mutant is one of it
        cfgs = [spec.prepare(asg) for asg in asgs]
        assert all(_pole_hessian(cfg) == spec.lhs(cfg) for cfg in cfgs)
        mutated = replace(spec, lhs=lambda cfg: _pole_hessian(cfg, **mutant))
        assert any(not check_identity(mutated, asg).equal for asg in asgs), mutant


def _scaled_member(cls, name):
    """Class member ``name`` of ``cls`` with its value scaled by 101/100."""
    orig = vars(cls)[name]
    get = orig.fget if isinstance(orig, property) else getattr(orig, "func", None)
    if get is not None:  # property or cached_property
        return property(lambda self: _perturb(get(self)))
    return lambda self: _perturb(orig(self))


FORM_MUTANTS = [
    (HessianSplit, "H_total", {"master-hessian-decomposition"}),
    (LiftedConfig, "q_squared", {"area-q-lemma", "gram-solution"}),
    (CanonicalCoords, "hyperboloid_constant", {"beta-product-sum"}),
    (CanonicalCoords, "octant_vertex", {"vertex-factorization", "symmetric-plane-value"}),
    (CanonicalCoords, "vertex_value", {"vertex-factorization"}),
    (CanonicalCoords, "plane_threshold", {"symmetric-plane-value"}),
]


@pytest.mark.parametrize(
    "cls, name, caught", FORM_MUTANTS, ids=[f"{c.__name__}.{n}" for c, n, _ in FORM_MUTANTS]
)
def test_suite_checks_flexprobe_forms(monkeypatch, cls, name, caught):
    # the suite evaluates flexprobe's own closed forms, so a mutated form
    # fails exactly the identities that read it
    monkeypatch.setattr(cls, name, _scaled_member(cls, name))
    rep = schwartz_zippel_suite(trials=8, height=60)
    assert {r.identifier for r in rep.identities if not r.passed} == caught


def _perturb(value):
    if isinstance(value, tuple):
        return tuple(_perturb(v) for v in value)
    return value * Fraction(101, 100) + Fraction(1, 997)


class TestSuite:
    def test_small_suite_passes(self):
        rep = schwartz_zippel_suite(trials=5, height=200, seed=42)
        assert rep.passed
        for r in rep.identities:
            assert r.passes == 5
            assert r.witness is None
            assert 0 < r.failure_bound < 1

    def test_single_trial_smoke(self):
        rep = schwartz_zippel_suite(trials=1, height=50, seed=0)
        assert rep.passed

    def test_deterministic_reports(self):
        a = schwartz_zippel_suite(trials=3, height=100, seed=9)
        b = schwartz_zippel_suite(trials=3, height=100, seed=9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            schwartz_zippel_suite(trials=0)


class TestCrossModuleConsistency:
    def test_exact_sigma_matches_float_evaluation(self):
        # the exact coefficient expansion at rational parameters agrees with
        # the floating Cayley-determinant evaluation of the lifted triple
        from linestab.flexprobe import LiftedConfig
        from linestab.sextic import eval_sigma

        r = np.random.default_rng(3)
        for _ in range(5):
            a = Fraction(int(r.integers(1, 30)), int(r.integers(1, 30)))
            b = Fraction(int(r.integers(-20, 20)), int(r.integers(1, 30)))
            c = Fraction(int(r.integers(1, 30)), int(r.integers(1, 30)))
            p = tuple(Fraction(int(r.integers(1, 20)), int(r.integers(1, 20))) for _ in range(3))
            x = tuple(Fraction(int(r.integers(-15, 15)), int(r.integers(1, 15))) for _ in range(3))
            sig = exact_lifted_sigma(a, b, c, p, x)
            u = (Fraction(1, 3), Fraction(-2, 5), Fraction(1))
            exact_val = sig(*u)
            cfg = LiftedConfig(
                a=float(a), b=float(b), c=float(c),
                weights=np.array([float(v) for v in p]),
                lifts=np.array([float(v) for v in x]),
            )
            approx = eval_sigma(lifted_triple(cfg), np.array([float(v) for v in u]))
            assert abs(approx - float(exact_val)) <= 1e-12 * max(abs(float(exact_val)), 1.0)

    @pytest.mark.parametrize("height", [10, 1000, 10**6])
    def test_pole_jet_hessian_matches_full_expansion(self, height):
        # the integer 2-jet path against the full Fraction expansion: the six
        # jet coefficients and the Hessian determinant at the pole, on random
        # lifts and on the degenerate lifts x0 = x1 = x2
        spec = spec_by_id("master-hessian-decomposition")
        r = np.random.default_rng(height)
        asgs = [spec.sampler(r, height) for _ in range(17)]
        asgs += [dict(asg, x=(asg["x"][0],) * 3) for asg in asgs[:3]]
        for asg in asgs:
            args = (asg["a"], asg["b"], asg["c"], asg["p"], asg["x"])
            sig = exact_lifted_sigma(*args)
            m = bordered_matrix(*_lifted_geometry(*args))
            jet = poly_det([[PoleJet.of(e) for e in row] for row in m])
            ij = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
            assert jet.c == tuple(sig.coeffs.get((i, j, 6 - i - j), 0) for i, j in ij)
            assert exact_hessian_at_pole(exact_config(*args)) == oracle_hessian_at_pole(sig)

    def test_exact_hessian_matches_prefactored_split(self):
        a, b, c = Fraction(3, 2), Fraction(1, 4), Fraction(5, 6)
        p = (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
        x = (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4))
        cfg = exact_config(a, b, c, p, x)
        H = exact_hessian_at_pole(cfg)
        split = lifted_hessian_decomposition(cfg)
        assert H == Fraction(102400) * a ** 6 * c ** 6 * (split.H2 + split.H4)
