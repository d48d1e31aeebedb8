"""Exact rational verification of the symbolic identities behind the probe.

Every closed-form identity used by the flex certification is replayed here
in arbitrary-precision rational arithmetic at random rational parameter
points and compared exactly.  The closed forms are flexprobe's own: the
suite builds ``LiftedConfig`` and ``CanonicalCoords`` from exact rationals
and evaluates the same code that runs on floats, the H2 + H4 split that
``probe-flex`` reads among it.  The forms take a leading sample axis, so all
trials of one identity are one batch of object arrays and each side is
evaluated once over it.  The batch holds flexprobe's unreduced ``_Ratio``
pairs, which take no gcd per operation; the configuration reduces its
normalised weights once, and each side's value is reduced to a Fraction
once, so verdicts and witnesses are written in lowest terms.  The master
identity's other side, the sextic's Hessian at the pole, is expanded
independently from the sextic's Cayley-Menger form over integer jets, from
the reduced centres and squared radii: one 3 x 3 jet determinant for the
batch.
The suite draws one batch per sampler: identities that read the same draws
(area-q-lemma and gram-solution, beta-product-sum and vertex-factorization)
are checked against one prepared batch, so its cached forms are computed
once for all of them.  Each run of unsigned draws of a sampler is one rng
call, in the stream order of one call per value.  Since all
identities are polynomial of bounded degree, repeated agreement at random
points certifies them with a quantifiable failure probability
(Schwartz-Zippel style) without implementing symbolic normal forms.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .flexprobe import (
    CanonicalCoords,
    LiftedConfig,
    _Ratio,
    gram_from_barycentrics,
    lifted_hessian_decomposition,
    q_invariant,
    star_h_canonical,
)
from .sextic import poly_det, sigma_pole_jet

Value = Union[Fraction, tuple]


def as_exact(x) -> Fraction:
    """Coerce to an exact rational; floats are rejected to keep exactness."""
    if isinstance(x, float):
        raise TypeError("refusing float in the exact module; pass int/str/Fraction")
    return Fraction(x)


def _reduced(v) -> Fraction:
    """An exact scalar (int, Fraction or unreduced ratio) in lowest terms."""
    return v.fraction() if isinstance(v, _Ratio) else Fraction(v)


def exact_hessian_at_pole(cfg: LiftedConfig):
    """Exact Hessian determinant of the lifted sextic at u = (0, 0, 1), per sample.

    With c_ij the coefficient of u1^i u2^j u3^(6-i-j), Euler's relation
    sum_k u_k d_k d_m sigma = 5 d_m sigma gives the Hessian at the pole as
    [[2c20, c11, 5c10], [c11, 2c02, 5c01], [5c10, 5c01, 30c00]], so only the
    2-jet there is expanded, in integers: with L the lcm of the denominators
    of one sample's centres and squared radii in lowest terms (reduced here,
    once, since unreduced ones would inflate L), these scale by L and L^2, the
    entries of the Cayley-Menger form by L^2, sigma by L^6 and det H by
    L^18.  Each sample keeps its own L; the jets of all samples come from
    one 3 x 3 determinant over (m,) integer arrays, -det of the form
    (``sigma_pole_jet``).  Returns an (m,) object array of Fractions.
    """
    centers = [[_reduced(v) for v in c] for c in cfg.centers.reshape(-1, 9)]
    s = [[_reduced(v) for v in r] for r in cfg.squared_radii]
    Ls = [math.lcm(*(v.denominator for v in (*c, *r))) for c, r in zip(centers, s)]
    int_c = np.array([[v.numerator * (L // v.denominator) for v in c]
                      for c, L in zip(centers, Ls)], dtype=object).reshape(-1, 3, 3)
    int_s = np.array([[v.numerator * (L // v.denominator) * L for v in r]
                      for r, L in zip(s, Ls)], dtype=object)
    c00, c10, c01, c20, c11, c02 = sigma_pole_jet(int_c.transpose(1, 2, 0), int_s.T).c
    H = ((2 * c20, c11, 5 * c10), (c11, 2 * c02, 5 * c01), (5 * c10, 5 * c01, 30 * c00))
    return np.array([Fraction(d, L ** 18) for d, L in zip(poly_det(H), Ls)], dtype=object)


# ---------------------------------------------------------------------------
# Identity catalog.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentitySpec:
    """One exactly-checkable identity: evaluators and sampling domain.

    ``prepare`` builds the exact object that both sides read (a
    ``LiftedConfig`` or ``CanonicalCoords`` of unreduced ratios) from a list of m
    assignments, one sample each.  Each side is evaluated once over that
    batch, to an (m,) object array, a tuple of them, or one value that holds
    for every sample.
    """

    identifier: str
    prepare: Callable[[list[dict]], object]
    lhs: Callable[[object], object]
    rhs: Callable[[object], object]
    sampler: Callable[[np.random.Generator, int], dict]
    domain_ok: Callable[[dict], bool]
    degree_bound: int


def _rand_fraction(rng: np.random.Generator, height: int, signed: bool = False) -> Fraction:
    num = int(rng.integers(1, height + 1))
    den = int(rng.integers(1, height + 1))
    if signed and rng.integers(0, 2):
        num = -num
    return Fraction(num, den)


def _rand_fractions(rng: np.random.Generator, height: int, k: int) -> list[Fraction]:
    """k unsigned fractions from one draw of their 2k numerators and
    denominators, in the stream order of k ``_rand_fraction`` calls (one
    ``size=2k`` call is the faster for k >= 2, not for k = 1)."""
    v = rng.integers(1, height + 1, size=2 * k).tolist()
    return [Fraction(n, d) for n, d in zip(v[::2], v[1::2])]


def _sample_triangle_weights(rng, height) -> dict:
    a, b = _rand_fractions(rng, height, 2)
    if rng.integers(0, 2):  # b's sign, drawn after its denominator
        b = -b
    c, *p = _rand_fractions(rng, height, 4)
    return {"a": a, "b": b, "c": c, "p": tuple(p)}


def _sample_full(rng, height) -> dict:
    out = _sample_triangle_weights(rng, height)
    out["x"] = tuple(_rand_fraction(rng, height, signed=True) for _ in range(3))
    return out


def _sample_q_triangle(rng, height) -> dict:
    # one draw of the six numerators and denominators per attempt, tested as
    # integers; only an accepted draw becomes Fractions (about one attempt
    # in four at height 1000)
    while True:
        n0, d0, n1, d1, n2, d2 = rng.integers(1, height + 1, size=6).tolist()
        if _q_triangle(n0, d0, n1, d1, n2, d2):
            return {"q": (Fraction(n0, d0), Fraction(n1, d1), Fraction(n2, d2))}


def _sample_single_q(rng, height) -> dict:
    return {"q": _rand_fraction(rng, height)}


# domain checks in integers: denominators are positive
def _triangle_domain(asg: dict) -> bool:
    return all(v.numerator > 0 for v in (asg["a"], asg["c"], *asg["p"]))


def _q_triangle(n0, d0, n1, d1, n2, d2) -> bool:
    """Whether q_k = n_k / d_k (d_k > 0, in lowest terms or not) are positive
    and obey the strict triangle inequality: the q_k times d0 d1 d2, sorted."""
    x, y, z = sorted((n0 * d1 * d2, n1 * d0 * d2, n2 * d0 * d1))
    return x > 0 and x + y > z


def _q_domain(asg: dict) -> bool:
    return _q_triangle(*(n for v in asg["q"] for n in (v.numerator, v.denominator)))


def _column(asgs: list[dict], key: str, default=None) -> np.ndarray:
    """The value of ``key`` in each assignment as an unreduced ratio: shape
    (m,), or (m, 3) for tuple values."""
    values = (asg.get(key, default) for asg in asgs)
    return np.array(
        [[_ratio(x) for x in v] if isinstance(v, tuple) else _ratio(v) for v in values],
        dtype=object,
    )


def _ratio(x) -> _Ratio:
    """An assignment value as an unreduced ratio; floats are refused."""
    x = x if isinstance(x, Fraction) else as_exact(x)
    return _Ratio(x.numerator, x.denominator)


def _config(asgs: list[dict]) -> LiftedConfig:
    """The assignments' lifted configurations, exact (lifts 0 when absent)."""
    return LiftedConfig(
        a=_column(asgs, "a"),
        b=_column(asgs, "b"),
        c=_column(asgs, "c"),
        weights=_column(asgs, "p"),
        lifts=_column(asgs, "x", (0, 0, 0)),
    )


def _coords(asgs: list[dict]) -> CanonicalCoords:
    return CanonicalCoords(_column(asgs, "q"))


def _symmetric_coords(asgs: list[dict]) -> CanonicalCoords:
    return CanonicalCoords(np.repeat(_column(asgs, "q")[:, None], 3, axis=1))


# the pair (i, j) opposite to each vertex k
_PAIRS = ((1, 2), (2, 0), (0, 1))


def _coordinate_gram(cfg: LiftedConfig) -> tuple:
    v = cfg.v_vectors
    return tuple(np.einsum("...d,...d->...", v[..., i, :], v[..., j, :]) for i, j in _PAIRS)


def _closed_form_gram(cfg: LiftedConfig) -> tuple:
    G = gram_from_barycentrics(cfg)
    return tuple(G[..., i, j] for i, j in _PAIRS)


def _beta_product_sum(cc: CanonicalCoords):
    b = cc.beta.T
    return b[0] * b[1] + b[0] * b[2] + b[1] * b[2]


def identity_catalog() -> list[IdentitySpec]:
    """The six identities verified exactly, in pipeline order.

    1. master-hessian-decomposition: the probe Hessian equals
       102400 a^6 c^6 (H2 + H4) at normalized weights;
    2. area-q-lemma: a^2 c^2 = Q / (4 prod p_k^2);
    3. gram-solution: <v_i, v_j> = (q_k^2 - q_i^2 - q_j^2) / (2 p_i p_j);
    4. beta-product-sum: sum beta_i beta_j = Q^3 / (4^3 prod q_k^4), the
       hyperboloid constant;
    5. vertex-factorization: *H(V) = 3 prod (q_i + q_j - q_k)^2 / (4 prod q_k^2)
       at the octant vertex V;
    6. symmetric-plane-value: the plane-side expression at q0 = q1 = q2
       equals 15/8.

    Every side but the master identity's left is a flexprobe form.
    """
    return [
        IdentitySpec(
            "master-hessian-decomposition",
            _config,
            exact_hessian_at_pole,
            lambda cfg: lifted_hessian_decomposition(cfg).H_total,
            _sample_full,
            _triangle_domain,
            12,
        ),
        IdentitySpec(
            "area-q-lemma",
            _config,
            lambda cfg: cfg.a ** 2 * cfg.c ** 2,
            lambda cfg: q_invariant(cfg).Delta,
            _sample_triangle_weights,
            _triangle_domain,
            8,
        ),
        IdentitySpec(
            "gram-solution",
            _config,
            _coordinate_gram,
            _closed_form_gram,
            _sample_triangle_weights,
            _triangle_domain,
            6,
        ),
        IdentitySpec(
            "beta-product-sum",
            _coords,
            _beta_product_sum,
            lambda cc: cc.hyperboloid_constant,
            _sample_q_triangle,
            _q_domain,
            12,
        ),
        IdentitySpec(
            "vertex-factorization",
            _coords,
            lambda cc: star_h_canonical(cc, cc.octant_vertex()),
            lambda cc: cc.vertex_value,
            _sample_q_triangle,
            _q_domain,
            8,
        ),
        IdentitySpec(
            "symmetric-plane-value",
            _symmetric_coords,
            lambda cc: np.sum(cc.octant_vertex(), axis=-1) - cc.plane_threshold,
            lambda cc: Fraction(15, 8),
            _sample_single_q,
            lambda asg: asg["q"].numerator > 0,
            4,
        ),
    ]


# ---------------------------------------------------------------------------
# Checking.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityVerdict:
    identifier: str
    equal: bool
    lhs: Value
    rhs: Value
    assignment: dict

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, tuple):
                return [str(x) for x in v]
            return str(v)

        return {
            "identifier": self.identifier,
            "equal": self.equal,
            "lhs": enc(self.lhs),
            "rhs": enc(self.rhs),
            "assignment": {
                k: (enc(v) if isinstance(v, (tuple, Fraction)) else str(v))
                for k, v in self.assignment.items()
            },
        }


def check_identities(spec: IdentitySpec, assignments: list[dict],
                     prepared=None) -> list[IdentityVerdict]:
    """Exact comparison of both evaluators at each assignment, each side
    evaluated once over all of them; domain violations are rejected.

    ``prepared`` is the batch ``spec.prepare`` built from these assignments,
    already domain-checked, when the caller shares it among identities; when
    it is None, the assignments are checked and prepared here.  A side
    holding a float means a form left exact arithmetic, which would make the
    comparison meaningless, so it raises TypeError.
    """
    if prepared is None:
        prepared = _prepare(spec, assignments)
    m = len(assignments)
    lhs = _per_sample(spec, spec.lhs(prepared), m)
    rhs = _per_sample(spec, spec.rhs(prepared), m)
    return [IdentityVerdict(spec.identifier, u == v, u, v, asg)
            for u, v, asg in zip(lhs, rhs, assignments)]


def _prepare(spec: IdentitySpec, assignments: list[dict]):
    """The batch both sides of ``spec`` read, from domain-checked assignments."""
    for asg in assignments:
        if not spec.domain_ok(asg):
            raise ValueError(f"assignment violates the domain of {spec.identifier}")
    return spec.prepare(assignments)


def _per_sample(spec: IdentitySpec, side, m: int) -> list:
    """A side's value at each of the m samples, a tuple for a tuple side."""
    columns = []
    for part in side if isinstance(side, tuple) else (side,):
        part = np.asarray(part)
        if part.dtype.kind == "f" or any(isinstance(v, float) for v in part.flat):
            raise TypeError(f"{spec.identifier} evaluated to a float, not an exact rational")
        columns.append([_reduced(v) for v in np.broadcast_to(part, (m,)).flat])
    return list(zip(*columns)) if isinstance(side, tuple) else columns[0]


def schwartz_zippel_suite(trials: int = 100, height: int = 1000, seed: int = 42) -> dict:
    """Run every catalog identity at random rational points, exactly.

    The trials are drawn first, from a generator seeded afresh per sampler,
    and checked as one batch.  Catalog entries next to each other that read
    the same draws (the same sampler, domain and ``prepare``) share one drawn,
    domain-checked and prepared batch, which is what seeding each identity
    afresh would give each of them.  Any single inequality is
    a hard failure and carries the first failing trial as witness.
    ``failure_bound`` is the standard degree-over-sample-space estimate
    (deg/height)^trials for a nonzero polynomial surviving all trials under
    the random-evaluation model: the float power, raised to the next double
    while it is below the exact rational one, so never below it.  Where the
    power underflows to 0.0 (from 169 trials for degree 12 at height 1000)
    that is the smallest positive double, no claim of certainty.
    Returns the report's verdicts: the ``trials``, ``height`` and ``seed``,
    ``pass``, and per identity its ``identifier``, ``trials``, ``passes``,
    ``degree_bound``, ``failure_bound``, ``pass`` and ``witness`` (in
    strings, or None).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    identities = []
    runs = itertools.groupby(identity_catalog(),
                             key=lambda s: (s.sampler, s.domain_ok, s.prepare))
    for _, run in runs:
        identities += _check_run(list(run), trials, height, seed)
    return {"trials": trials, "height": height, "seed": seed,
            "pass": all(r["pass"] for r in identities), "identities": identities}


def _check_run(specs: list[IdentitySpec], trials: int, height: int, seed: int) -> list[dict]:
    """The reports of identities that read the same draws, from one batch;
    the batch is freed on return, so one is alive at a time."""
    first = specs[0]
    rng = np.random.default_rng(seed)
    assignments = [first.sampler(rng, height) for _ in range(trials)]
    prepared = _prepare(first, assignments)
    reports = []
    for spec in specs:
        verdicts = check_identities(spec, assignments, prepared)
        witness = next((v for v in verdicts if not v.equal), None)
        bound = 1.0
        if height > spec.degree_bound:
            exact = Fraction(spec.degree_bound, height) ** trials
            bound = (spec.degree_bound / height) ** trials
            while Fraction(bound) < exact:  # the float power may round below it
                bound = math.nextafter(bound, 1.0)
        reports.append({
            "identifier": spec.identifier,
            "trials": trials,
            "passes": sum(v.equal for v in verdicts),
            "degree_bound": spec.degree_bound,
            "failure_bound": bound,
            "pass": witness is None,
            "witness": witness.to_json_dict() if witness else None,
        })
    return reports
