"""Euclidean primitives for ball scenes in R^d.

Ordered scenes, an orthonormal basis of a direction's complement, and the
scene generators used throughout the library.  A scene is its rows: the
centres (n, d) and the radii (n,) of its balls, as every kernel reads them;
a direction is a plain row of d floats, as every kernel takes it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DISJOINTNESS_MARGIN = 1e-6
MAX_REJECTS = 10000  # placement attempts of random_disjoint_scene
# the one length tolerance, relative to a scene's diameter (Scene.band):
# feasibility, tie, boundary and entry-order decisions all read the band
REL_TOL = 1e-9
# a direction row whose squared length is within this of 1 counts as unit: a
# few ulps, far inside the disk-minimax kernel's roundoff margin
UNIT_SQ_TOL = 2.0 ** -48


class SceneError(ValueError):
    """Raised when scene data violates the documented invariants."""


class SolverError(RuntimeError):
    """Raised when a numerical routine cannot produce a trustworthy answer."""


def _as_vector(x, name="vector"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise SceneError(f"{name} must be a 1-d sequence, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise SceneError(f"{name} has non-finite entries")
    return v


def _float_array(x, name: str) -> np.ndarray:
    """x as a C-ordered float array; SceneError on ragged, boolean, complex
    or string entries."""
    try:
        raw = np.asarray(x)
        if raw.dtype.kind in "bcSUV":
            raise TypeError(f"entries must be numbers, not {raw.dtype}")
        return np.array(raw, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneError(f"malformed {name}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class Scene:
    """Ordered family of balls: row i of ``centers`` (n, d) and entry i of
    ``radii`` (n,) are ball i, and the row order is the prescribed meeting
    order.  Both are copied into read-only float arrays, and ``dimension``
    is d.

    Construction checks that there is at least one ball in R^d, d >= 2,
    that every centre is finite and every radius positive and finite, and
    that the balls are pairwise strictly disjoint unless ``allow_overlap``
    is set, which exists only for tangent/overlapping demonstration scenes.
    It takes every pair's centre distance once, and from them the
    ``diameter`` of the union of the balls, the overlapping pairs and
    ``band``: REL_TOL times the diameter, the one tolerance every length
    decision reads, so that verdicts do not change when the scene is
    scaled.  A pair's reach sums as |c_i - c_j| + (r_i + r_j), the same under
    either label, so relabelling the balls moves neither.  Scenes are
    compared and hashed by identity.
    """

    centers: np.ndarray
    radii: np.ndarray
    allow_overlap: bool = False
    diameter: float = field(init=False, repr=False)
    band: float = field(init=False, repr=False)
    _overlapping: tuple = field(init=False, repr=False)

    def __post_init__(self):
        centers, radii = _float_array(self.centers, "centers"), _float_array(self.radii, "radii")
        if centers.shape[:1] == (0,):
            raise SceneError("scene needs at least one ball")
        if centers.ndim != 2:
            raise SceneError(f"centers must be n rows of d entries, got shape {centers.shape}")
        if centers.shape[1] < 2:
            raise SceneError("dimension must be at least 2")
        if radii.shape != centers.shape[:1]:
            raise SceneError(f"radii must be {len(centers)} numbers, one per center, "
                             f"got shape {radii.shape}")
        if not np.all(np.isfinite(centers)):
            raise SceneError("center has non-finite entries")
        bad = ~((radii > 0) & np.isfinite(radii))
        if np.any(bad):
            raise SceneError(f"radius must be positive and finite, got {radii[bad][0]}")
        centers.flags.writeable = radii.flags.writeable = False
        i, j = np.triu_indices(len(radii), 1)
        with np.errstate(over="ignore"):
            dist, touch = np.linalg.norm(centers[i] - centers[j], axis=1), radii[i] + radii[j]
            diameter = float(np.max(dist + touch, initial=2.0 * np.max(radii)))
        if not math.isfinite(diameter * diameter):
            raise SceneError(f"scene is too large: its squared diameter overflows ({diameter:.3g})")
        overlap = dist <= touch
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "band", REL_TOL * diameter)
        object.__setattr__(self, "_overlapping", tuple(zip(i[overlap].tolist(), j[overlap].tolist())))
        if self._overlapping and not self.allow_overlap:
            raise SceneError(f"balls are not pairwise disjoint: pairs {self.overlapping_pairs()}")

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    def overlapping_pairs(self) -> list[tuple[int, int]]:
        """The pairs i < j of balls that overlap or touch, in index order."""
        return list(self._overlapping)

    def __len__(self) -> int:
        return len(self.radii)

    def to_json_dict(self) -> dict:
        out = {
            "dimension": self.dimension,
            "order_is_significant": True,
            "balls": [{"center": c, "radius": r}
                      for c, r in zip(self.centers.tolist(), self.radii.tolist())],
        }
        if self.allow_overlap:
            out["allow_overlap"] = True
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scene":
        """The scene of a JSON document: ``dimension`` an integer,
        ``allow_overlap`` (optional) a boolean, and each ball's ``center``,
        of ``dimension`` entries, and ``radius`` numbers; a boolean is none of
        these numbers."""
        try:
            dim, overlap = data["dimension"], data.get("allow_overlap", False)
            if isinstance(dim, bool) or not isinstance(dim, int):
                raise TypeError(f"dimension must be an integer, got {dim!r}")
            if not isinstance(overlap, bool):
                raise TypeError(f"allow_overlap must be true or false, got {overlap!r}")
            centers, radii = [], []
            for b in data["balls"]:
                center, radius = list(b["center"]), b["radius"]
                if any(isinstance(x, bool) or not isinstance(x, (int, float))
                       for x in (*center, radius)):
                    raise TypeError(f"center entries and radius must be numbers, got {b!r}")
                centers.append([float(x) for x in center])
                radii.append(float(radius))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SceneError(f"malformed scene JSON: {exc}") from exc
        for center in centers:
            if len(center) != dim:
                raise SceneError(f"ball of dimension {len(center)} in scene of dimension {dim}")
        return cls(centers, radii, allow_overlap=overlap)


def _unit_rows(U) -> np.ndarray:
    """Direction rows at unit length; SolverError on a zero or non-finite row.

    A row whose squared length is within UNIT_SQ_TOL of 1 comes back as it
    is, so rows normalized once (or unit by construction) cost one reduction
    on every later call.  Each other row is divided by its largest entry
    first, so huge rows normalize.  Every row is decided on its own, so its
    answer does not depend on the rows beside it."""
    U = np.asarray(U, dtype=float)
    unit = np.abs(np.einsum("md,md->m", U, U) - 1.0) <= UNIT_SQ_TOL
    if np.all(unit):
        return U
    # both reductions run over the leading axis of a contiguous transposed
    # copy, several times faster than over the short trailing axis; the sum
    # adds the same terms in the same order for d < 8
    big = np.max(np.ascontiguousarray(np.abs(U).T), axis=0, initial=0.0)[:, None]
    if not np.all(np.isfinite(big) & (big > 0.0)):
        raise SolverError("direction rows must be finite and non-zero")
    V = U / big
    V /= np.sqrt(np.sum(np.ascontiguousarray((V * V).T), axis=0))[:, None]
    return np.where(unit[:, None], U, V)


def _frames(U) -> np.ndarray:
    """Orthonormal frames (m, 2, 3) of u^perp for the unit rows u of U (m, 3),
    each from its row alone: e1 = u x the axis of u's smallest component, at
    unit length, and e2 = u x e1 (Hughes and Moller, JGT 4(4), 1999)."""
    U = np.asarray(U, dtype=float)
    e1 = np.cross(U, np.eye(3)[np.argmin(np.abs(U), axis=1)])
    e1 /= np.sqrt(np.einsum("md,md->m", e1, e1))[:, None]
    return np.stack([e1, np.cross(U, e1)], axis=1)


def orthonormal_basis_of_complement(u: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of u^perp, rows are the basis vectors.

    The standard basis axis with the largest |u| component is dropped and the
    remaining axes are Gram-Schmidt orthogonalized against u in index order,
    which pins the basis uniquely for reproducibility.  A huge u is first
    divided by max |u_i| so that its norm does not overflow.
    """
    u = _as_vector(u, "direction")
    with np.errstate(over="ignore"):
        n = np.linalg.norm(u)
    if n == 0.0:
        raise SceneError("cannot normalize the zero vector")
    if math.isinf(n):
        u = u / np.max(np.abs(u))
        n = np.linalg.norm(u)
    u = u / n
    d = u.shape[0]
    drop = int(np.argmax(np.abs(u)))
    rows = []
    for axis in range(d):
        if axis == drop:
            continue
        v = np.zeros(d)
        v[axis] = 1.0
        v -= np.dot(v, u) * u
        for r in rows:
            v -= np.dot(v, r) * r
        nv = np.linalg.norm(v)
        if nv < 1e-14:
            raise SolverError("basis construction collapsed; direction malformed")
        rows.append(v / nv)
    return np.array(rows)


# ---------------------------------------------------------------------------
# Scene generation.
# ---------------------------------------------------------------------------


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        v = rng.normal(size=d)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def random_disjoint_scene(
    n: int,
    d: int,
    radius_range: tuple[float, float],
    seed: int,
) -> Scene:
    """Reproducible random scene of n pairwise disjoint balls in R^d."""
    r_min, r_max = radius_range
    if n < 1 or d < 2 or not (0 < r_min <= r_max):
        raise SceneError("bad generator arguments")
    rng = np.random.default_rng(seed)
    box = 2.5 * r_max * max(n, 2)
    for _ in range(MAX_REJECTS):
        radii = rng.uniform(r_min, r_max, size=n)
        centers = rng.uniform(-box / 2, box / 2, size=(n, d))
        i, j = np.triu_indices(n, 1)
        if np.all(np.linalg.norm(centers[i] - centers[j], axis=1)
                  > radii[i] + radii[j] + DISJOINTNESS_MARGIN):
            return Scene(centers, radii)
    raise SolverError(
        f"could not place {n} disjoint balls in {MAX_REJECTS} attempts "
        f"(box {box:.3g}, radii in {radius_range})"
    )


def random_scene_with_transversal(
    n: int,
    d: int,
    radius_range: tuple[float, float],
    seed: int,
) -> tuple[Scene, np.ndarray]:
    """Random disjoint scene guaranteed to admit a transversal, plus the unit
    direction (d,) of that transversal as a witness.

    Centers are placed close to a random line (offset below half the radius),
    so the line itself meets every ball; spacing along the line guarantees
    strict disjointness without rejection loops.
    """
    r_min, r_max = radius_range
    if n < 1 or d < 2 or not (0 < r_min <= r_max):
        raise SceneError("bad generator arguments")
    rng = np.random.default_rng(seed)
    axis = _random_unit(rng, d)
    basis = orthonormal_basis_of_complement(axis)
    radii = rng.uniform(r_min, r_max, size=n)
    centers = []
    t = 0.0
    prev_r = None
    for i in range(n):
        if prev_r is not None:
            t += prev_r + radii[i] + DISJOINTNESS_MARGIN + rng.uniform(0.1, 1.0) * r_max
        off = rng.uniform(-0.4, 0.4) * radii[i]
        perp = rng.normal(size=d - 1)
        pn = np.linalg.norm(perp)
        perp = perp / pn if pn > 1e-12 else np.zeros(d - 1)
        centers.append(t * axis + off * (perp @ basis))
        prev_r = radii[i]
    return Scene(centers, radii), axis
