"""Workload definitions: scene files made from a seed, ops and their references.

Every op is one ``linestab`` CLI invocation plus the verdict the paper's
theorems predict for it.  Scenes are generated here, not by the program, so
that a change to the program's generators cannot change the inputs; the
program only ever reads the JSON files written by :func:`build`.

Outcome classes assigned by :func:`check` to each op:

``ok``          exit code and verdict equal the reference;
``no_verdict``  one of the program's two known defects, and only on the ops
                that carry it (``known_defect``): check-convexity is
                inconclusive on the R^4 and R^5 scenes at its default
                lattice, and classify-boundary exits 2 when its default
                chart u3 holds no traced sextic point;
``wrong``       any other departure from the reference: a verdict that
                contradicts it, no verdict where the paper gives one, or a
                crash.

``ok`` ops are timed; the other two count as failed.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("cone-sweep", "triple-certify", "exact-identities")

# (n, d) of the random cone-sweep scenes; the cost of the exhaustive support
# enumeration grows like C(n, d) * n, so these span two orders of magnitude.
CONE_SWEEP_SHAPES = ((3, 3), (6, 3), (10, 3), (8, 4), (6, 5))
CONE_SWEEP_RADII = (1.0, 2.0)
TRIPLE_RADII = (0.7, 1.5)
RANDOM_TRIPLES = 4
# verify-identities runs 300 trials at the default height and 100 at height
# 10^6, in ops of 25 trials: a 3 s op is too long for the speed probe around
# it to follow the machine.
IDENTITY_SEEDS, HEIGHT_SEEDS = 12, 4
IDENTITY_TRIALS = 25
ACCEPTANCE_SAMPLES = 100_000
# Budgets below the CLI defaults, so that one pass fits the run time:
# direction samples of enumerate-permutations and count-components on the
# random cone-sweep scenes, the trace-curves grid, and the entry-order
# lattice and midpoint pairs.
SWEEP_SAMPLES = 6_000
TRACE_GRID = 100
ENTRY_SAMPLES, ENTRY_PAIRS = 1024, 200
DISJOINTNESS_MARGIN = 1e-6

# The paper's demonstration scenes, as the program's presets define them.
PRESETS = {
    "two-permutations": (
        [2.04, 1.47, 2.0], 1.11, [-0.75, 1.91, 1.2], 0.69, [0.0, -33.0, 0.0], 33.0,
    ),
    "flexdemo-disjoint": (
        [0.0, 0.0, 0.0], 1.0, [2.2, 0.0, 0.0], 1.0, [1.1, 2.2, 0.0], 1.0,
    ),
    "transition-disjoint": (
        [0.0, 0.0, 0.0], 1.864, [3.2, 0.0, 0.0], 0.952, [-3.484, 1.766, 0.0], 0.772,
    ),
    "transition-overlapping": (
        [0.0, 0.0, 0.0], 1.864, [1.544, 0.0, 0.0], 0.952, [-3.484, 1.766, 0.0], 0.772,
    ),
}


def _preset_doc(name: str) -> dict:
    v = PRESETS[name]
    doc = {
        "dimension": 3,
        "order_is_significant": True,
        "balls": [{"center": v[k], "radius": v[k + 1]} for k in (0, 2, 4)],
    }
    if name.endswith("overlapping"):
        doc["allow_overlap"] = True
    return doc


def _basis_of_complement(u: np.ndarray) -> np.ndarray:
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
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


def scene_with_transversal(n: int, d: int, radius_range, seed: int) -> dict:
    """Disjoint balls strung along a random line, which is a transversal.

    Same construction and random stream as the library's
    ``random_scene_with_transversal``, kept here so the inputs stay fixed
    while the program changes.  Ball order along the line is the index order.
    """
    r_min, r_max = radius_range
    rng = np.random.default_rng(seed)
    while True:
        axis = rng.normal(size=d)
        if np.linalg.norm(axis) > 1e-12:
            axis = axis / np.linalg.norm(axis)
            break
    basis = _basis_of_complement(axis)
    radii = rng.uniform(r_min, r_max, size=n)
    balls = []
    t = 0.0
    prev_r = None
    for i in range(n):
        if prev_r is not None:
            t += prev_r + radii[i] + DISJOINTNESS_MARGIN + rng.uniform(0.1, 1.0) * r_max
        off = rng.uniform(-0.4, 0.4) * radii[i]
        perp = rng.normal(size=d - 1)
        pn = np.linalg.norm(perp)
        perp = perp / pn if pn > 1e-12 else np.zeros(d - 1)
        center = t * axis + off * (perp @ basis)
        balls.append({"center": [float(x) for x in center], "radius": float(radii[i])})
        prev_r = radii[i]
    return {"dimension": d, "order_is_significant": True, "balls": balls}


def similar(doc: dict, order: str, rng: np.random.Generator) -> tuple[dict, str]:
    """Relabel, rescale and translate a scene; return it with the order relabelled.

    The geometry is unchanged, so every verdict is too; only the coordinates
    the program reads differ from seed to seed.  The program's work follows
    the coordinates a little (single probe-flex ops differ by up to 2x from
    seed to seed), which is part of the benchmark's run-to-run spread.
    """
    d = doc["dimension"]
    perm = rng.permutation(len(doc["balls"]))  # new label k is old ball perm[k]
    scale = float(rng.uniform(0.5, 2.0))
    shift = rng.uniform(-10.0, 10.0, size=d)
    balls = [doc["balls"][int(old)] for old in perm]
    out = dict(doc, balls=[
        {"center": [float(x) for x in scale * np.asarray(b["center"]) + shift],
         "radius": scale * b["radius"]}
        for b in balls
    ])
    new_label = {int(old): k for k, old in enumerate(perm)}
    return out, ",".join(str(new_label[int(i)]) for i in order.split(","))


def _write(work: Path, name: str, doc: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


def build(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the workload's scene files under ``work`` and return its ops.

    The scenes are fixed: random scenes at base seeds 300, 301, ... and the
    presets.  ``seed`` relabels, rescales and translates each of them
    (:func:`similar`) and seeds verify-identities, so every seed poses the
    same problems while no two seeds give the program the same numbers.

    Each op is ``{"id", "command", "args", "expect", ...}``; ``args`` is the
    argument list after the command name, ``expect`` names a reference rule
    of :func:`check`.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    ops: list[dict] = []

    def op(command, args, expect, **extra):
        if command == "classify-boundary":
            extra["known_defect"] = "exit-2"
        ops.append({"id": len(ops), "command": command, "args": [str(a) for a in args],
                    "expect": expect, **extra})

    def scene(name, doc, order):
        doc, order = similar(doc, order, rng)
        return _write(work, name, doc), order

    if workload == "cone-sweep":
        scenes = [
            scene(f"cone-n{n}-d{d}", scene_with_transversal(n, d, CONE_SWEEP_RADII, 300 + k),
                  ",".join(map(str, range(n))))
            for k, (n, d) in enumerate(CONE_SWEEP_SHAPES)
        ]
        # order 1,0,2 is a geometric permutation of this preset; 0,1,2 is not
        scenes.append(scene("two-permutations", _preset_doc("two-permutations"), "1,0,2"))
        for k, (path, order) in enumerate(scenes):
            preset = k == len(CONE_SWEEP_SHAPES)
            budget = [] if preset else ["--samples", SWEEP_SAMPLES]
            high_d = not preset and CONE_SWEEP_SHAPES[k][1] >= 4
            op("check-convexity", ["--scene", path, "--order", order], "convex",
               **({"known_defect": "inconclusive"} if high_d else {}))
            op("enumerate-permutations", ["--scene", path, *budget], "has-permutation",
               permutation=order, exact=2 if preset else None)
            op("count-components", ["--scene", path, *budget], "components-equal-permutations")
        op("count-components", ["--scene", scenes[-1][0], "--samples", ACCEPTANCE_SAMPLES],
           "components-equal-permutations", exact=2)
    elif workload == "triple-certify":
        triples = [
            scene(f"triple-{300 + k}", scene_with_transversal(3, 3, TRIPLE_RADII, 300 + k), "0,1,2")[0]
            for k in range(RANDOM_TRIPLES)
        ]
        triples.append(scene("flexdemo-disjoint", _preset_doc("flexdemo-disjoint"), "0,1,2")[0])
        for path in triples:
            op("probe-flex", ["--scene", path], "flex-free")
            op("trace-curves", ["--scene", path, "--grid", TRACE_GRID, "--out", path[:-5] + ".csv"],
               "sextic-vertices", scene=path)
            op("classify-boundary", ["--scene", path], "boundary-agrees")
        entry = ["--order-semantics", "entry", "--samples", ENTRY_SAMPLES, "--pairs", ENTRY_PAIRS]
        over, order = scene("transition-overlapping", _preset_doc("transition-overlapping"), "0,1,2")
        op("check-convexity", ["--scene", over, "--order", order, *entry], "nonconvex")
        disj, order = scene("transition-disjoint", _preset_doc("transition-disjoint"), "1,0,2")
        op("check-convexity", ["--scene", disj, "--order", order, *entry], "convex")
    else:
        trials = ["--trials", IDENTITY_TRIALS]
        for k in range(IDENTITY_SEEDS):
            op("verify-identities", [*trials, "--seed", 1000 * seed + k], "identities")
        for k in range(HEIGHT_SEEDS):
            op("verify-identities", [*trials, "--height", 1_000_000, "--seed", 1000 * seed + k],
               "identities")
    for o in ops:
        if o["command"] != "trace-curves":
            o["args"] += ["--out", str(work / f"op{o['id']}.json")]
    return ops


# ---------------------------------------------------------------------------
# Reference verdicts.
# ---------------------------------------------------------------------------


def _sigma(scene: dict, U: np.ndarray) -> np.ndarray:
    """Direction sextic at rows of U: the bordered 5x5 determinant."""
    c = np.array([b["center"] for b in scene["balls"]], dtype=float)
    s = np.array([b["radius"] for b in scene["balls"]], dtype=float) ** 2
    q = np.sum(U * U, axis=1)
    M = np.zeros((len(U), 5, 5))
    M[:, 0, 1:] = M[:, 1:, 0] = 1.0
    for k in range(3):
        M[:, 1, 2 + k] = M[:, 2 + k, 1] = q * s[k]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        e = c[j] - c[i]
        t = (e @ e) * q - (U @ e) ** 2
        M[:, 2 + i, 2 + j] = M[:, 2 + j, 2 + i] = t
    return np.linalg.det(M)


_CHART_AXIS = {"u1": 0, "u2": 1, "u3": 2}


def _chart_dirs(chart: str, xy: np.ndarray) -> np.ndarray:
    axis = _CHART_AXIS[chart]
    others = [a for a in range(3) if a != axis]
    U = np.ones((len(xy), 3))
    U[:, others[0]] = xy[:, 0]
    U[:, others[1]] = xy[:, 1]
    return U


def _sextic_vertices_ok(o: dict) -> tuple[str, str]:
    scene = json.loads(Path(o["scene"]).read_text())
    out = Path(o["args"][o["args"].index("--out") + 1])
    pts, chart = [], None
    with out.open() as fh:
        for row in csv.reader(fh):
            if row and row[0].startswith("sigma:"):
                chart = row[1]
                pts.append((float(row[2]), float(row[3])))
    if not pts:
        # no sextic component in this chart is legitimate output
        return "ok", "no sextic points in chart"
    xy = np.array(pts)
    grid = np.linspace(-2.0, 2.0, 41)
    ref = np.abs(_sigma(scene, _chart_dirs(chart, np.array([(x, y) for x in grid for y in grid]))))
    worst = float(np.max(np.abs(_sigma(scene, _chart_dirs(chart, xy)))))
    if worst <= 1e-6 * float(np.max(ref)):
        return "ok", f"{len(pts)} sextic vertices are roots"
    return "wrong", f"sextic vertex off the curve: |sigma| {worst:.3g}"


def check(o: dict, exit_code, report: dict | None) -> tuple[str, str]:
    """Classify one op's outcome against its reference verdict."""
    if exit_code is None:
        return "wrong", "crashed"
    rule = o["expect"]
    v = report.get("verdicts", {}) if report else {}
    if rule == "convex":
        if v.get("violation_count", 0) > 0:
            return "wrong", f"{v['violation_count']} midpoint violations on a disjoint scene"
        if v.get("inconclusive"):
            cls = "no_verdict" if o.get("known_defect") == "inconclusive" else "wrong"
            return cls, "inconclusive: fewer than two feasible samples"
        return ("ok", "convex") if exit_code == 0 else ("wrong", f"exit {exit_code}")
    if rule == "nonconvex":
        if exit_code == 1 and v.get("violation_count", 0) >= 1:
            return "ok", f"{v['violation_count']} violations"
        return "wrong", f"exit {exit_code}, no midpoint violation on the overlapping panel"
    if rule == "has-permutation":
        if exit_code != 0:
            return "wrong", f"exit {exit_code}"
        perms = {tuple(e["permutation"]) for e in v.get("permutations", [])}
        if o.get("exact") is not None and len(perms) > o["exact"]:
            return "wrong", f"{len(perms)} permutations, the scene has {o['exact']}"
        want = tuple(int(x) for x in o["permutation"].split(","))
        if min(want, tuple(reversed(want))) not in perms:
            # the scene is built around a transversal in this order
            return "wrong", f"transversal order {o['permutation']} not found"
        if o.get("exact") is not None and len(perms) != o["exact"]:
            return "wrong", f"{len(perms)} of {o['exact']} permutations found"
        return "ok", f"{len(perms)} permutations"
    if rule == "components-equal-permutations":
        comps = v.get("components", {}).get("count")
        if exit_code != 0 or not v.get("components_equal_permutations"):
            return "wrong", f"{comps} components vs {v.get('permutations')} permutations"
        if not comps:
            # every scene has a transversal, so its cone is not empty
            return "wrong", "no component: no feasible direction found"
        if o.get("exact") is not None and comps != o["exact"]:
            return "wrong", f"{comps} components, expected {o['exact']}"
        return "ok", f"{comps} components"
    if rule == "flex-free":
        if exit_code == 0 and v.get("pass"):
            return "ok", f"probed {v.get('probed')}"
        return "wrong", f"exit {exit_code}, min margin {v.get('min_margin')}"
    if rule == "sextic-vertices":
        if exit_code != 0:
            return "wrong", f"exit {exit_code}"
        return _sextic_vertices_ok(o)
    if rule == "boundary-agrees":
        if exit_code == 2 and o.get("known_defect") == "exit-2":
            return "no_verdict", "exit 2: no sextic points traced in the default chart"
        if exit_code == 0 and v.get("disagreements") == 0:
            return "ok", f"{len(v.get('classifications', []))} directions agree"
        return "wrong", f"{v.get('disagreements')} on_boundary/crosses_triangle disagreements"
    if rule == "identities":
        ids = v.get("identities", [])
        if exit_code == 0 and len(ids) == 6 and all(i["pass"] for i in ids):
            return "ok", "6/6 identities"
        return "wrong", f"{sum(i['pass'] for i in ids)}/{len(ids)} identities"
    raise ValueError(f"unknown reference rule {rule!r}")


def load_report(o: dict) -> dict | None:
    if o["command"] == "trace-curves":
        return None
    path = Path(o["args"][o["args"].index("--out") + 1])
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None

