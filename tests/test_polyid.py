import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linestab.flexprobe import (
    CanonicalCoords,
    HessianSplit,
    LiftedConfig,
    lifted_hessian_decomposition,
)
from linestab import polyid
from linestab.polyid import (
    IdentitySpec,
    _q_domain,
    _triangle_domain,
    as_exact,
    check_identities,
    exact_hessian_at_pole,
    identity_catalog,
    schwartz_zippel_suite,
)
from linestab.sextic import DirectionPoly, sigma_from_geometry, sigma_pole_jet
from conftest import ORACLE_SAMPLERS, lifted_triple, poly_value


def spec_by_id(identifier):
    return {s.identifier: s for s in identity_catalog()}[identifier]


def exact_config(a, b, c, p, x) -> LiftedConfig:
    """The exact configuration of one sample, a batch of one."""
    return LiftedConfig(a=[as_exact(a)], b=[as_exact(b)], c=[as_exact(c)],
                        weights=[[as_exact(v) for v in p]], lifts=[[as_exact(v) for v in x]])


def _lifted_geometry(a, b, c, p, x):
    """Centres (0, 0, x0), (a, 0, x1), (b, c, x2), then the squared radii, exact."""
    cfg = exact_config(a, b, c, p, x)
    return (*cfg.centers[0], *cfg.squared_radii[0])


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
            H[m][n] = H[n][m] = poly_value(dm.diff(n), zero, zero, one)
    return _det3(H)


def _det3(H):
    return (
        H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
        - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
        + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0])
    )


def _pole_hessian(cfg, euler=5, swap=False, power=18):
    """The integer 2-jet path of exact_hessian_at_pole, with mutation knobs,
    one sample of a batched configuration at a time."""
    out = []
    for a, b, c, x, s in zip(cfg.a, cfg.b, cfg.c, cfg.lifts, cfg.squared_radii):
        values = [v.fraction() for v in (a, b, c, *x, *s)]  # in lowest terms
        L = math.lcm(*(v.denominator for v in values))
        ia, ib, ic, x0, x1, x2 = (int(v * L) for v in values[:6])
        c00, c10, c01, c20, c11, c02 = sigma_pole_jet(
            ((0, 0, x0), (ia, 0, x1), (ib, ic, x2)), [int(v * L * L) for v in values[6:]]).c
        if swap:
            c20, c02 = c02, c20
        e = euler
        H = ((2 * c20, c11, e * c10), (c11, 2 * c02, e * c01), (e * c10, e * c01, 30 * c00))
        out.append(Fraction(_det3(H), L ** power))
    return np.array(out, dtype=object)


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
        v = check_identities(
            spec_by_id("beta-product-sum"),
            [{"q": (Fraction(1), Fraction(1), Fraction(1))}],
        )[0]
        assert v.equal
        assert v.lhs == Fraction(27, 64)

    def test_vertex_factorization_symmetric_point(self):
        v = check_identities(
            spec_by_id("vertex-factorization"),
            [{"q": (Fraction(1), Fraction(1), Fraction(1))}],
        )[0]
        assert v.equal
        assert v.lhs == Fraction(3, 4)

    def test_symmetric_plane_value(self):
        for q in (Fraction(1), Fraction(2, 3), Fraction(17, 5)):
            v = check_identities(spec_by_id("symmetric-plane-value"), [{"q": q}])[0]
            assert v.equal
            assert v.rhs == Fraction(15, 8)

    def test_area_lemma_equilateral_centroid(self):
        asg = {
            "a": Fraction(1),
            "b": Fraction(1, 2),
            "c": Fraction(1),  # rational stand-in; identity holds for any c
            "p": (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        }
        v = check_identities(spec_by_id("area-q-lemma"), [asg])[0]
        assert v.equal
        assert v.lhs == Fraction(1)

    def test_master_identity_random_rationals(self, rng):
        spec = spec_by_id("master-hessian-decomposition")
        r = np.random.default_rng(7)
        for _ in range(5):
            asg = spec.sampler(r, 100)
            v = check_identities(spec, [asg])[0]
            assert v.equal, v

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_float_side_rejected(self, side):
        spec = spec_by_id("area-q-lemma")
        floated = replace(spec, **{side: lambda cfg, f=getattr(spec, side): float(f(cfg)[0])})
        asg = spec.sampler(np.random.default_rng(0), 50)
        assert check_identities(spec, [asg])[0].equal
        with pytest.raises(TypeError, match="float"):
            check_identities(floated, [asg])[0]

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_float64_array_side_rejected(self, side):
        spec = spec_by_id("area-q-lemma")
        floated = replace(spec, **{side: lambda cfg, f=getattr(spec, side): f(cfg).astype(float)})
        with pytest.raises(TypeError, match="float"):
            check_identities(floated, [spec.sampler(np.random.default_rng(0), 50)])[0]

    def test_float_in_tuple_side_rejected(self):
        spec = spec_by_id("gram-solution")
        floated = replace(spec, rhs=lambda cfg: tuple(float(v[0]) for v in spec.rhs(cfg)))
        with pytest.raises(TypeError, match="float"):
            check_identities(floated, [spec.sampler(np.random.default_rng(0), 50)])[0]

    def test_float_array_in_batch_rejected(self):
        # one float64 entry among exact ones is enough
        spec = spec_by_id("beta-product-sum")
        r = np.random.default_rng(0)
        asgs = [spec.sampler(r, 50) for _ in range(4)]

        def lhs(cc):
            out = spec.lhs(cc).copy()
            out[2] = np.float64(out[2])
            return out

        with pytest.raises(TypeError, match="float"):
            check_identities(replace(spec, lhs=lhs), asgs)

    def test_domain_violation_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            check_identities(
                spec_by_id("beta-product-sum"),
                [{"q": (Fraction(1), Fraction(1), Fraction(5))}],
            )[0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3, 7)]),
                    min_size=6, max_size=6),
           st.lists(st.integers(1, 12), min_size=3, max_size=3))
    def test_domain_checks_agree_with_fractions(self, values, scale):
        # few distinct values, so signs, zeros, equal values and degenerate
        # triangles (q0 + q1 == q2) are all drawn; the integer checks must
        # decide as the Fraction comparisons do
        a, c, *p = values
        q = tuple(v * k for v, k in zip(values[:3], scale))
        assert _triangle_domain({"a": a, "c": c, "p": tuple(p)}) == (
            a > 0 and c > 0 and all(v > 0 for v in p))
        qs = sorted(q)
        assert _q_domain({"q": q}) == (all(v > 0 for v in q) and qs[0] + qs[1] > qs[2])


def _six_draws(h):
    return st.tuples(*[st.integers(1, h)] * 6)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(1, 12), st.integers(1, 2**63 - 1)).flatmap(_six_draws))
@example((1, 1, 1, 1, 2, 1))  # 1 + 1 = 2: degenerate
@example((2, 4, 3, 6, 2, 2))  # 1/2 + 1/2 = 1, unreduced: degenerate
@example((2**63 - 1, 1, 2**63 - 1, 1, 2**63 - 2, 1))
def test_raw_q_triangle_test_decides_as_q_domain(draws):
    # the q-triangle sampler tests its six raw draws as integers; that
    # decides as the domain check does on the reduced Fractions, and as the
    # Fraction comparison
    n0, d0, n1, d1, n2, d2 = draws
    q = (Fraction(n0, d0), Fraction(n1, d1), Fraction(n2, d2))
    qs = sorted(q)
    assert polyid._q_triangle(*draws) == _q_domain({"q": q}) == (qs[0] + qs[1] > qs[2])


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
                if not check_identities(mutated, [asg])[0].equal:
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
                prod *= (q[..., i] + q[..., j] - q[..., k]) ** 2
            return 2 * prod / (4 * (q[..., 0] * q[..., 1] * q[..., 2]) ** 2)  # 3 -> 2

        mutated = replace(spec, rhs=bad_rhs)
        v = check_identities(mutated, [{"q": (Fraction(1), Fraction(1), Fraction(1))}])[0]
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
        cfg = spec.prepare(asgs)
        assert np.all(_pole_hessian(cfg) == spec.lhs(cfg))
        mutated = replace(spec, lhs=lambda cfg: _pole_hessian(cfg, **mutant))
        assert any(not check_identities(mutated, [asg])[0].equal for asg in asgs), mutant


def _scaled_member(cls, name):
    """Class member ``name`` of ``cls`` with its value scaled by 101/100."""
    orig = vars(cls)[name]
    get = orig.fget if isinstance(orig, property) else getattr(orig, "func", None)
    if get is not None:  # property or cached_property
        return property(lambda self: _perturb(get(self)))
    return lambda self: _perturb(orig(self))


# a cached form of a batch that two identities share is computed once for
# both, so mutating it must still fail every identity whose sides read it
FORM_MUTANTS = [
    (HessianSplit, "H_total", {"master-hessian-decomposition"}),
    (LiftedConfig, "q_squared", {"area-q-lemma", "gram-solution"}),
    (LiftedConfig, "v_vectors",
     {"master-hessian-decomposition", "area-q-lemma", "gram-solution"}),
    (LiftedConfig, "squared_radii",
     {"master-hessian-decomposition", "area-q-lemma", "gram-solution"}),
    (CanonicalCoords, "Q",
     {"beta-product-sum", "vertex-factorization", "symmetric-plane-value"}),
    (CanonicalCoords, "linear_coeffs", {"beta-product-sum", "vertex-factorization"}),
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
    assert {r["identifier"] for r in rep["identities"] if not r["pass"]} == caught


def _perturb(value):
    if isinstance(value, tuple):
        return tuple(_perturb(v) for v in value)
    return value * Fraction(101, 100) + Fraction(1, 997)


class TestSuite:
    def test_small_suite_passes(self):
        rep = schwartz_zippel_suite(trials=5, height=200, seed=42)
        assert rep["pass"]
        for r in rep["identities"]:
            assert r["passes"] == 5
            assert r["witness"] is None
            assert 0 < r["failure_bound"] < 1

    @pytest.mark.parametrize("trials, height", [(25, 10**6), (5, 2**63 - 1)])
    def test_failure_bound_is_at_least_the_exact_power(self, trials, height):
        # there the float power (degree/height)^trials rounds below the
        # exact one for some degrees; the reported bound never does
        rep = schwartz_zippel_suite(trials=trials, height=height, seed=0)
        for r in rep["identities"]:
            assert Fraction(r["failure_bound"]) >= Fraction(r["degree_bound"], height) ** trials

    def test_single_trial_smoke(self):
        rep = schwartz_zippel_suite(trials=1, height=50, seed=0)
        assert rep["pass"]

    def test_deterministic_reports(self):
        a = schwartz_zippel_suite(trials=3, height=100, seed=9)
        b = schwartz_zippel_suite(trials=3, height=100, seed=9)
        assert a == b

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            schwartz_zippel_suite(trials=0)


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("height", [1, 1000, 10**6, 2**63 - 1])
def test_sampler_draws_pinned(seed, height, monkeypatch):
    # every assignment the suite checks, all 25 trials of every identity, is
    # the one-fraction-per-call oracle's, and the sampler's draws end where
    # the oracle's do; a report records assignments only in the witness of a
    # failing trial, so this test, not the golden reports, pins the stream
    checked = {}

    def record(spec, assignments, prepared=None):
        checked[spec.identifier] = assignments
        return check_identities(spec, assignments, prepared)

    monkeypatch.setattr(polyid, "check_identities", record)
    schwartz_zippel_suite(trials=25, height=height, seed=seed)
    assert list(checked) == [spec.identifier for spec in identity_catalog()]
    for spec in identity_catalog():
        library, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [ORACLE_SAMPLERS[spec.identifier](oracle, height) for _ in range(25)]
        assert checked[spec.identifier] == expected, spec.identifier
        for _ in range(25):
            spec.sampler(library, height)
        assert library.integers(0, 2**62) == oracle.integers(0, 2**62), spec.identifier


def _verdict_fields(v):
    return v.identifier, v.equal, v.lhs, v.rhs, v.assignment


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("height", [10, 10**3, 10**6])
@pytest.mark.parametrize("identifier", [s.identifier for s in identity_catalog()])
def test_batched_check_equals_per_trial(identifier, height, m):
    # one batch of m assignments gives, trial by trial, the verdicts of m
    # one-assignment checks: exact ==, elementwise for tuple sides
    spec = spec_by_id(identifier)
    r = np.random.default_rng(height + m)
    asgs = [spec.sampler(r, height) for _ in range(m)]
    batched = check_identities(spec, asgs)
    single = [check_identities(spec, [asg])[0] for asg in asgs]
    assert len(batched) == m
    for b, s in zip(batched, single):
        assert _verdict_fields(b) == _verdict_fields(s)
        assert b.equal is True
        for side in (b.lhs, b.rhs):
            assert all(isinstance(v, (int, Fraction)) for v in
                       (side if isinstance(side, tuple) else (side,)))


def _per_trial_suite(trials, height, seed):
    """Reference: the suite with one check per trial."""
    reports = []
    for spec in identity_catalog():
        rng = np.random.default_rng(seed)
        passes = 0
        witness = None
        for _ in range(trials):
            verdict = check_identities(spec, [spec.sampler(rng, height)])[0]
            if verdict.equal:
                passes += 1
            elif witness is None:
                witness = verdict
        bound = 1.0
        if height > spec.degree_bound:
            # the least double at or above the float power and the exact one
            exact = Fraction(spec.degree_bound, height) ** trials
            bound = (spec.degree_bound / height) ** trials
            while Fraction(bound) < exact:
                bound = math.nextafter(bound, 1.0)
        reports.append({
            "identifier": spec.identifier,
            "trials": trials,
            "passes": passes,
            "degree_bound": spec.degree_bound,
            "failure_bound": bound,
            "pass": passes == trials and witness is None,
            "witness": witness.to_json_dict() if witness else None,
        })
    return {"trials": trials, "height": height, "seed": seed,
            "pass": all(r["pass"] for r in reports), "identities": reports}


@pytest.mark.parametrize("seed", [0, 42, 1000])
def test_suite_equals_per_trial_loop(seed):
    batched = schwartz_zippel_suite(trials=25, height=1000, seed=seed)
    assert batched == _per_trial_suite(25, 1000, seed)


def test_suite_witness_is_first_failing_trial(monkeypatch):
    # a mutated side fails some trials: the batched suite reports the same
    # pass count and witness as the per-trial loop
    monkeypatch.setattr(LiftedConfig, "q_squared", _scaled_member(LiftedConfig, "q_squared"))
    batched = schwartz_zippel_suite(trials=6, height=60, seed=3)
    assert not batched["pass"]
    assert batched == _per_trial_suite(6, 60, 3)


def test_suite_witness_is_first_failing_trial_shared_batch(monkeypatch):
    # a mutated cached form of the batch beta-product-sum and
    # vertex-factorization share: both fail, with the per-trial loop's
    # witnesses, and so does every other report
    monkeypatch.setattr(CanonicalCoords, "linear_coeffs",
                        _scaled_member(CanonicalCoords, "linear_coeffs"))
    batched = schwartz_zippel_suite(trials=6, height=60, seed=3)
    assert {r["identifier"] for r in batched["identities"] if not r["pass"]} == {
        "beta-product-sum", "vertex-factorization"}
    assert batched == _per_trial_suite(6, 60, 3)


def test_suite_prepares_each_batch_once(monkeypatch):
    # one drawn and prepared batch per run of identities that read the same
    # draws: area-q-lemma and gram-solution, and beta-product-sum and
    # vertex-factorization, are checked against one assignment list and one
    # batch, whose cached forms serve both
    prepares = []
    for name in ("_config", "_coords", "_symmetric_coords"):
        def counted(asgs, prepare=getattr(polyid, name), name=name):
            prepares.append(name)
            return prepare(asgs)
        monkeypatch.setattr(polyid, name, counted)
    checked = {}

    def record(spec, assignments, prepared=None):
        checked[spec.identifier] = assignments, prepared
        return check_identities(spec, assignments, prepared)

    monkeypatch.setattr(polyid, "check_identities", record)
    assert schwartz_zippel_suite(trials=25, height=1000, seed=0)["pass"]
    assert prepares == ["_config", "_config", "_coords", "_symmetric_coords"]
    for first, second, forms in [
        ("area-q-lemma", "gram-solution", ("v_vectors", "squared_radii")),
        ("beta-product-sum", "vertex-factorization", ("Q", "linear_coeffs")),
    ]:
        (asgs, batch), (asgs2, batch2) = checked[first], checked[second]
        assert asgs is asgs2 and batch is batch2 and len(asgs) == 25
        assert all(form in vars(batch) for form in forms)
    assert checked["master-hessian-decomposition"][0] is not checked["area-q-lemma"][0]


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
            exact_val = poly_value(sig, *u)
            cfg = LiftedConfig(
                a=[float(a)], b=[float(b)], c=[float(c)],
                weights=np.array([[float(v) for v in p]]),
                lifts=np.array([[float(v) for v in x]]),
            )
            approx = eval_sigma(lifted_triple(cfg), np.array([[float(v) for v in u]]))[0]
            assert abs(approx - float(exact_val)) <= 1e-12 * max(abs(float(exact_val)), 1.0)

    @pytest.mark.parametrize("height", [10, 1000, 10**6])
    def test_pole_jet_hessian_matches_full_expansion(self, height):
        # the builder's 2-jets at the pole against the full Fraction
        # expansion: the six jet coefficients and the Hessian determinant at
        # the pole, on random lifts and on the degenerate lifts x0 = x1 = x2;
        # the jets of all samples come from one determinant over (m,) arrays
        # of Fractions, and each sample's Hessian from the batched config
        spec = spec_by_id("master-hessian-decomposition")
        r = np.random.default_rng(height)
        asgs = [spec.sampler(r, height) for _ in range(17)]
        asgs += [dict(asg, x=(asg["x"][0],) * 3) for asg in asgs[:3]]
        args = [(asg["a"], asg["b"], asg["c"], asg["p"], asg["x"]) for asg in asgs]
        sigmas = [exact_lifted_sigma(*arg) for arg in args]
        cfgs = [exact_config(*arg) for arg in args]
        jet = sigma_pole_jet(np.array([c.centers[0] for c in cfgs]).transpose(1, 2, 0),
                             np.array([c.squared_radii[0] for c in cfgs]).T)
        batched = exact_hessian_at_pole(spec.prepare(asgs))
        ij = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        for t, (arg, sig) in enumerate(zip(args, sigmas)):
            assert tuple(v[t] for v in jet.c) == tuple(
                sig.coeffs.get((i, j, 6 - i - j), 0) for i, j in ij)
            H = oracle_hessian_at_pole(sig)
            assert exact_hessian_at_pole(exact_config(*arg)).tolist() == [H]
            assert batched[t] == H

    def test_exact_hessian_matches_prefactored_split(self):
        a, b, c = Fraction(3, 2), Fraction(1, 4), Fraction(5, 6)
        p = (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))
        x = (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4))
        cfg = exact_config(a, b, c, p, x)
        [H] = exact_hessian_at_pole(cfg)
        split = lifted_hessian_decomposition(cfg)
        assert H == Fraction(102400) * a ** 6 * c ** 6 * (split.H2[0] + split.H4[0])
