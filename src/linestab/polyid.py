"""Exact rational verification of the symbolic identities behind the probe.

Every closed-form identity used by the flex certification is replayed here
in arbitrary-precision rational arithmetic: both sides are evaluated from
first principles at random rational parameter points and compared exactly.
Since all identities are polynomial of bounded degree, repeated agreement at
random points certifies them with a quantifiable failure probability
(Schwartz-Zippel style) without implementing symbolic normal forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .sextic import PoleJet, bordered_matrix, poly_det

Value = Union[Fraction, tuple]

MASTER_PREFACTOR = Fraction(2 ** 12 * 5 ** 2)  # 102400


def as_exact(x) -> Fraction:
    """Coerce to an exact rational; floats are rejected to keep exactness."""
    if isinstance(x, float):
        raise TypeError("refusing float in the exact module; pass int/str/Fraction")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Exact evaluators for the lifted configuration.
# ---------------------------------------------------------------------------


def normalized_weights(p: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    p = tuple(as_exact(v) for v in p)
    if any(v <= 0 for v in p):
        raise ValueError("weights must be positive")
    total = sum(p)
    return tuple(v / total for v in p)  # type: ignore[return-value]


def exact_squared_radii(a, b, c, p) -> tuple[Fraction, Fraction, Fraction]:
    """Squared distances from the weighted interior point to the vertices."""
    a, b, c = as_exact(a), as_exact(b), as_exact(c)
    p0, p1, p2 = normalized_weights(p)
    px = p1 * a + p2 * b
    py = p2 * c
    verts = ((Fraction(0), Fraction(0)), (a, Fraction(0)), (b, c))
    return tuple((px - vx) ** 2 + (py - vy) ** 2 for vx, vy in verts)  # type: ignore[return-value]


def exact_hessian_at_pole(a, b, c, p, x) -> Fraction:
    """Exact Hessian determinant of the lifted sextic at u = (0, 0, 1).

    With c_ij the coefficient of u1^i u2^j u3^(6-i-j), Euler's relation
    sum_k u_k d_k d_m sigma = 5 d_m sigma gives the Hessian at the pole as
    [[2c20, c11, 5c10], [c11, 2c02, 5c01], [5c10, 5c01, 30c00]], so only the
    2-jet there is expanded, in integers: with L the lcm of the denominators
    of the centres and squared radii, these scale by L and L^2, the quadratic
    entries of the bordered matrix by L^2, sigma by L^6 and det H by L^18.
    """
    a, b, c = as_exact(a), as_exact(b), as_exact(c)
    x = tuple(as_exact(v) for v in x)
    s = exact_squared_radii(a, b, c, p)
    L = math.lcm(*(v.denominator for v in (a, b, c, *x, *s)))
    ia, ib, ic, x0, x1, x2 = (int(v * L) for v in (a, b, c, *x))
    m = bordered_matrix((0, 0, x0), (ia, 0, x1), (ib, ic, x2), *(int(v * L * L) for v in s))
    c00, c10, c01, c20, c11, c02 = poly_det([[PoleJet.of(e) for e in row] for row in m]).c
    H = ((2 * c20, c11, 5 * c10), (c11, 2 * c02, 5 * c01), (5 * c10, 5 * c01, 30 * c00))
    det = (
        H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
        - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
        + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0])
    )
    return Fraction(det, L ** 18)


def exact_h2_h4(a, b, c, p, x) -> tuple[Fraction, Fraction]:
    """Exact quadratic/quartic split of the probe Hessian, weights normalized."""
    a, b, c = as_exact(a), as_exact(b), as_exact(c)
    pn = normalized_weights(p)
    x = tuple(as_exact(v) for v in x)
    s = exact_squared_radii(a, b, c, p)
    h2 = Fraction(0)
    h4 = Fraction(0)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        h2 += pn[i] * pn[j] * (x[i] - x[j]) ** 2
        h4 += pn[k] ** 3 * s[k] * (x[i] - x[k]) ** 2 * (x[j] - x[k]) ** 2
    H2 = -(a ** 2) * c ** 2 * pn[0] * pn[1] * pn[2] * h2
    return H2, h4


def exact_q_value(q: Sequence[Fraction]) -> Fraction:
    q2 = [v * v for v in q]
    return 2 * (q2[0] * q2[1] + q2[0] * q2[2] + q2[1] * q2[2]) - (
        q2[0] ** 2 + q2[1] ** 2 + q2[2] ** 2
    )


def exact_linear_coeffs(q: Sequence[Fraction]) -> list[Fraction]:
    Q = exact_q_value(q)
    return [Q / (4 * q[(k + 1) % 3] ** 2 * q[(k + 2) % 3] ** 2) for k in range(3)]


def exact_octant_vertex(q: Sequence[Fraction]) -> list[Fraction]:
    return [
        1 - ((q[(k + 1) % 3] - q[(k + 2) % 3]) / q[k]) ** 2 for k in range(3)
    ]


def exact_star_h(q: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction:
    a = exact_linear_coeffs(q)
    sym = w[0] * w[1] + w[0] * w[2] + w[1] * w[2]
    return sym - (a[0] * w[0] + a[1] * w[1] + a[2] * w[2])


# ---------------------------------------------------------------------------
# Identity catalog.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentitySpec:
    """One exactly-checkable identity: evaluators and sampling domain."""

    identifier: str
    description: str
    variables: tuple[str, ...]
    lhs: Callable[[dict], Value]
    rhs: Callable[[dict], Value]
    sampler: Callable[[np.random.Generator, int], dict]
    domain_ok: Callable[[dict], bool]
    degree_bound: int


def _rand_fraction(rng: np.random.Generator, height: int, signed: bool = False) -> Fraction:
    num = int(rng.integers(1, height + 1))
    den = int(rng.integers(1, height + 1))
    if signed and rng.integers(0, 2):
        num = -num
    return Fraction(num, den)


def _sample_triangle_weights(rng, height) -> dict:
    return {
        "a": _rand_fraction(rng, height),
        "b": _rand_fraction(rng, height, signed=True),
        "c": _rand_fraction(rng, height),
        "p": tuple(_rand_fraction(rng, height) for _ in range(3)),
    }


def _sample_full(rng, height) -> dict:
    out = _sample_triangle_weights(rng, height)
    out["x"] = tuple(_rand_fraction(rng, height, signed=True) for _ in range(3))
    return out


def _sample_q_triangle(rng, height) -> dict:
    while True:
        q = tuple(_rand_fraction(rng, height) for _ in range(3))
        qs = sorted(q)
        if qs[0] + qs[1] > qs[2]:
            return {"q": q}


def _sample_single_q(rng, height) -> dict:
    return {"q": _rand_fraction(rng, height)}


def _triangle_domain(asg: dict) -> bool:
    return asg["a"] > 0 and asg["c"] > 0 and all(v > 0 for v in asg["p"])


def _q_domain(asg: dict) -> bool:
    q = asg["q"]
    if not all(v > 0 for v in q):
        return False
    qs = sorted(q)
    return qs[0] + qs[1] > qs[2]


def identity_catalog() -> list[IdentitySpec]:
    """The six identities verified exactly, in pipeline order.

    1. master split of the probe Hessian into prefactor times H2 + H4;
    2. the squared-area identity a^2 c^2 = Q / (4 prod p_k^2);
    3. closed-form Gram solution for <v_i, v_j>;
    4. sum of beta products equals the hyperboloid constant;
    5. factorization of *H at the octant vertex;
    6. the symmetric plane-side evaluation, a constant 15/8.
    """

    def master_lhs(asg):
        return exact_hessian_at_pole(asg["a"], asg["b"], asg["c"], asg["p"], asg["x"])

    def master_rhs(asg):
        a, c = as_exact(asg["a"]), as_exact(asg["c"])
        H2, H4 = exact_h2_h4(asg["a"], asg["b"], asg["c"], asg["p"], asg["x"])
        return MASTER_PREFACTOR * a ** 6 * c ** 6 * (H2 + H4)

    def area_lhs(asg):
        return as_exact(asg["a"]) ** 2 * as_exact(asg["c"]) ** 2

    def _q_edges_sq(asg):
        pn = normalized_weights(asg["p"])
        s = exact_squared_radii(asg["a"], asg["b"], asg["c"], asg["p"])
        return [pn[k] ** 2 * s[k] for k in range(3)], pn

    def area_rhs(asg):
        q2, pn = _q_edges_sq(asg)
        Q = 2 * (q2[0] * q2[1] + q2[0] * q2[2] + q2[1] * q2[2]) - (
            q2[0] ** 2 + q2[1] ** 2 + q2[2] ** 2
        )
        return Q / (4 * (pn[0] * pn[1] * pn[2]) ** 2)

    def gram_lhs(asg):
        a, b, c = as_exact(asg["a"]), as_exact(asg["b"]), as_exact(asg["c"])
        pn = normalized_weights(asg["p"])
        px = pn[1] * a + pn[2] * b
        py = pn[2] * c
        verts = ((Fraction(0), Fraction(0)), (a, Fraction(0)), (b, c))
        v = [(px - vx, py - vy) for vx, vy in verts]
        out = []
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            out.append(v[i][0] * v[j][0] + v[i][1] * v[j][1])
        return tuple(out)

    def gram_rhs(asg):
        q2, pn = _q_edges_sq(asg)
        out = []
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            out.append((q2[k] - q2[i] - q2[j]) / (2 * pn[i] * pn[j]))
        return tuple(out)

    def beta_lhs(asg):
        q = [as_exact(v) for v in asg["q"]]
        a = exact_linear_coeffs(q)
        beta = [(a[(k + 1) % 3] + a[(k + 2) % 3] - a[k]) / 2 for k in range(3)]
        return beta[0] * beta[1] + beta[0] * beta[2] + beta[1] * beta[2]

    def beta_rhs(asg):
        q = [as_exact(v) for v in asg["q"]]
        Q = exact_q_value(q)
        return Q ** 3 / (64 * (q[0] * q[1] * q[2]) ** 4)

    def vertex_lhs(asg):
        q = [as_exact(v) for v in asg["q"]]
        return exact_star_h(q, exact_octant_vertex(q))

    def vertex_rhs(asg):
        q = [as_exact(v) for v in asg["q"]]
        prod = Fraction(1)
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            prod *= (q[i] + q[j] - q[k]) ** 2
        return 3 * prod / (4 * (q[0] * q[1] * q[2]) ** 2)

    def plane_lhs(asg):
        qv = as_exact(asg["q"])
        q = [qv, qv, qv]
        V = exact_octant_vertex(q)
        Q = exact_q_value(q)
        qq = q[0] ** 2 + q[1] ** 2 + q[2] ** 2
        return sum(V) - Q * qq / (8 * (q[0] * q[1] * q[2]) ** 2)

    def plane_rhs(asg):
        return Fraction(15, 8)

    return [
        IdentitySpec(
            "master-hessian-decomposition",
            "probe Hessian equals 102400 a^6 c^6 (H2 + H4) at normalized weights",
            ("a", "b", "c", "p", "x"),
            master_lhs,
            master_rhs,
            _sample_full,
            _triangle_domain,
            12,
        ),
        IdentitySpec(
            "area-q-lemma",
            "a^2 c^2 = Q / (4 prod p_k^2)",
            ("a", "b", "c", "p"),
            area_lhs,
            area_rhs,
            _sample_triangle_weights,
            _triangle_domain,
            8,
        ),
        IdentitySpec(
            "gram-solution",
            "<v_i, v_j> = (q_k^2 - q_i^2 - q_j^2) / (2 p_i p_j)",
            ("a", "b", "c", "p"),
            gram_lhs,
            gram_rhs,
            _sample_triangle_weights,
            _triangle_domain,
            6,
        ),
        IdentitySpec(
            "beta-product-sum",
            "sum beta_i beta_j = Q^3 / (4^3 prod q_k^4)",
            ("q",),
            beta_lhs,
            beta_rhs,
            _sample_q_triangle,
            _q_domain,
            12,
        ),
        IdentitySpec(
            "vertex-factorization",
            "*H(V) = 3 prod (q_i + q_j - q_k)^2 / (4 prod q_k^2)",
            ("q",),
            vertex_lhs,
            vertex_rhs,
            _sample_q_triangle,
            _q_domain,
            8,
        ),
        IdentitySpec(
            "symmetric-plane-value",
            "plane-side expression at q0 = q1 = q2 equals 15/8",
            ("q",),
            plane_lhs,
            plane_rhs,
            _sample_single_q,
            lambda asg: asg["q"] > 0,
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


def check_identity(spec: IdentitySpec, assignment: dict) -> IdentityVerdict:
    """Exact comparison of both evaluators; domain violations are rejected."""
    if not spec.domain_ok(assignment):
        raise ValueError(f"assignment violates the domain of {spec.identifier}")
    lhs = spec.lhs(assignment)
    rhs = spec.rhs(assignment)
    return IdentityVerdict(spec.identifier, lhs == rhs, lhs, rhs, assignment)


@dataclass
class IdentityReport:
    identifier: str
    trials: int
    passes: int
    degree_bound: int
    failure_bound: float
    witness: Optional[IdentityVerdict]

    @property
    def passed(self) -> bool:
        return self.passes == self.trials and self.witness is None


@dataclass
class SuiteReport:
    trials: int
    height: int
    seed: int
    identities: list[IdentityReport]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.identities)

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "height": self.height,
            "seed": self.seed,
            "pass": self.passed,
            "identities": [
                {
                    "identifier": r.identifier,
                    "trials": r.trials,
                    "passes": r.passes,
                    "degree_bound": r.degree_bound,
                    "failure_bound": r.failure_bound,
                    "pass": r.passed,
                    "witness": r.witness.to_json_dict() if r.witness else None,
                }
                for r in self.identities
            ],
        }


def schwartz_zippel_suite(trials: int = 100, height: int = 1000, seed: int = 42) -> SuiteReport:
    """Run every catalog identity at random rational points, exactly.

    Any single inequality is a hard failure and carries the witness
    assignment.  ``failure_bound`` is the standard degree-over-sample-space
    estimate (deg/height)^trials for a nonzero polynomial surviving all
    trials under the random-evaluation model.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    reports = []
    for spec in identity_catalog():
        rng = np.random.default_rng(seed)
        passes = 0
        witness = None
        for _ in range(trials):
            asg = spec.sampler(rng, height)
            verdict = check_identity(spec, asg)
            if verdict.equal:
                passes += 1
            elif witness is None:
                witness = verdict
        bound = (spec.degree_bound / height) ** trials if height > spec.degree_bound else 1.0
        reports.append(
            IdentityReport(spec.identifier, trials, passes, spec.degree_bound, bound, witness)
        )
    return SuiteReport(trials, height, seed, reports)
