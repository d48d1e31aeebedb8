"""Command-line surface: scene generation, experiments, certificates, figures.

Every command emits a schema-versioned JSON report (stdout or --out) whose
content is byte-identical across runs for the same command, seed and scene;
wall-clock timings are added only on request so the determinism contract
holds by default.  Exit code 0 means all checked properties hold, 1 reports
a property violation with witnesses, 2 a usage error, and 3 an inconclusive
run: too little evidence to decide either way.  The report's ``outcome``
names which of holds / violation / inconclusive it is, with a reason.  A
classify-boundary run with no traced sextic point holds (exit 0) and gives
its reason among the verdicts; entry order semantics outside R^3 is a usage
error.  A numerical solver that cannot finish (SolverError) makes the run
inconclusive, with the solver's message as the reason.

No option sets a tolerance and none is read from the environment: every
length decision reads the scene's band, REL_TOL times its diameter, and each
report that decides feasibility states the ``band`` it used among its
verdicts.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time

# honor the thread-count override before any BLAS-backed import happens
if os.environ.get("LINESTAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["LINESTAB_THREADS"])

import click
import numpy as np

from . import cone as cone_mod
from . import flexprobe, polyid, sextic
from .geom import (
    Ball,
    Direction,
    Scene,
    SceneError,
    SolverError,
    random_disjoint_scene,
    random_scene_with_transversal,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

CURVE_COLORS = {
    "sigma": "#cc0000",
    "hessian": "#000000",
    "pair01": "#1f4fd8",
    "pair02": "#1a8f1a",
    "pair12": "#808080",
}

# Frozen demonstration scenes, both of the "second ball slides toward the
# first" form.  The transition family is spread out; its overlapping member
# has a non-convex entry-order cone (order 0,1,2) while the disjoint member
# has none.  The flexdemo family is compact, so its cone boundary carries
# sextic arcs: the disjoint member keeps all sextic-Hessian intersections
# strictly interior, the overlapping member pulls them onto the boundary.
_TRANSITION_RADII = (1.864, 0.952, 0.772)
_TRANSITION_THIRD = (-3.484, 1.766, 0.0)
_TRANSITION_T = {"disjoint": 3.2, "tangent": 2.816, "overlapping": 1.544}

_FLEXDEMO_THIRD = (1.1, 2.2, 0.0)
_FLEXDEMO_T = {"disjoint": 2.2, "tangent": 2.0, "overlapping": 1.95}


def _transition_scene(kind: str) -> Scene:
    t = _TRANSITION_T[kind]
    r = _TRANSITION_RADII
    return Scene(
        3,
        (
            Ball([0.0, 0.0, 0.0], r[0]),
            Ball([t, 0.0, 0.0], r[1]),
            Ball(list(_TRANSITION_THIRD), r[2]),
        ),
        allow_overlap=(kind != "disjoint"),
    )


def _flexdemo_scene(kind: str) -> Scene:
    t = _FLEXDEMO_T[kind]
    return Scene(
        3,
        (
            Ball([0.0, 0.0, 0.0], 1.0),
            Ball([t, 0.0, 0.0], 1.0),
            Ball(list(_FLEXDEMO_THIRD), 1.0),
        ),
        allow_overlap=(kind != "disjoint"),
    )


def preset_scene(name: str) -> Scene:
    """Built-in demonstration scenes used by tests and figure reproduction."""
    if name == "collinear":
        return Scene(
            3,
            (Ball([0, 0, 0], 1.0), Ball([4, 0, 0], 1.0), Ball([8, 0, 0], 1.0)),
        )
    if name == "pinned":
        return Scene(
            3,
            (Ball([0, 1, 0], 1.0), Ball([3, -1, 0], 1.0), Ball([6, 1.5, 0], 1.5)),
        )
    if name == "two-permutations":
        return Scene(
            3,
            (
                Ball([2.04, 1.47, 2.0], 1.11),
                Ball([-0.75, 1.91, 1.2], 0.69),
                Ball([0.0, -33.0, 0.0], 33.0),
            ),
        )
    if name.startswith("transition-"):
        kind = name.split("-", 1)[1]
        if kind in _TRANSITION_T:
            return _transition_scene(kind)
    if name.startswith("flexdemo-"):
        kind = name.split("-", 1)[1]
        if kind in _FLEXDEMO_T:
            return _flexdemo_scene(kind)
    raise SceneError(f"unknown preset {name!r}")


PRESET_NAMES = (
    "collinear",
    "pinned",
    "two-permutations",
    "transition-disjoint",
    "transition-tangent",
    "transition-overlapping",
    "flexdemo-disjoint",
    "flexdemo-tangent",
    "flexdemo-overlapping",
)


def _load_scene(path: str) -> Scene:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise click.ClickException(f"scene file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"malformed scene JSON at {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    try:
        return Scene.from_json_dict(data)
    except SceneError as exc:
        raise _UsageError(f"invalid scene {path}: {exc}")


def _load_triple(path: str, command: str) -> sextic.Triple:
    """The scene at ``path`` as a Triple; exit 2 unless it is three balls in R^3."""
    scene = _load_scene(path)
    if len(scene) != 3 or scene.dimension != 3:
        raise _UsageError(f"{command} needs a scene of exactly three balls in R^3")
    return sextic.Triple.from_scene(scene)


class _UsageError(click.ClickException):
    exit_code = EXIT_USAGE


class _InconclusiveError(click.ClickException):
    exit_code = EXIT_INCONCLUSIVE


def _positive(ctx, param, value):
    """Click callback: a float option must be finite and > 0 (else exit 2)."""
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be finite and > 0, got {value}")
    return value


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(
    command: str, config: dict, verdicts: dict, passed: bool, out: str | None,
    t0: float | None, inconclusive: str | None = None,
) -> None:
    """Write the command's JSON report, then exit with its outcome's code.

    The outcome is "inconclusive" (exit 3) when ``inconclusive`` gives the
    reason the run has too little evidence to decide, else "holds" (exit 0)
    if the checks held and "violation" (exit 1) if not.  ``t0`` is the
    command's start time when --timings was given, else None.
    """
    if inconclusive is not None:
        status, code = "inconclusive", EXIT_INCONCLUSIVE
    elif passed:
        status, code = "holds", EXIT_OK
    else:
        status, code = "violation", EXIT_VIOLATION
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "verdicts": verdicts,
        "outcome": {"status": status, "reason": inconclusive},
    }
    if t0 is not None:
        report["timings"] = {"seconds": time.perf_counter() - t0}
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", out)
    sys.exit(code)


def _solver_failed(command: str, config: dict, out: str | None, t0: float | None,
                   exc: SolverError) -> None:
    """Report a run the numerical solvers could not finish as inconclusive (exit 3)."""
    _finish(command, config, {}, False, out, t0, inconclusive=f"solver error: {exc}")


def _parse_order(order: str | None, n: int) -> tuple[int, ...]:
    if order is None:
        return tuple(range(n))
    try:
        parts = tuple(int(x) for x in order.replace(",", " ").split())
    except ValueError:
        raise _UsageError(f"cannot parse order {order!r}")
    if sorted(parts) != list(range(n)):
        raise _UsageError(f"order {order!r} is not a permutation of 0..{n - 1}")
    return parts


@click.group()
def main():
    """Line transversals to disjoint balls: sextics, cones, certificates."""


@main.command("generate-scene")
@click.option("--preset", type=click.Choice(PRESET_NAMES), default=None)
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--dim", type=int, default=3, show_default=True)
@click.option("--rmin", type=float, default=1.0, show_default=True, callback=_positive)
@click.option("--rmax", type=float, default=2.0, show_default=True, callback=_positive)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--with-transversal", "transversal", is_flag=True, default=False)
@click.option("--out", type=str, default=None, help="scene JSON path (default stdout)")
def generate_scene(preset, n, dim, rmin, rmax, seed, transversal, out):
    """Write a scene JSON: a preset or a random disjoint family."""
    try:
        if preset:
            scene = preset_scene(preset)
            extra = {"preset": preset}
        elif transversal:
            scene, direction = random_scene_with_transversal(n, dim, (rmin, rmax), seed)
            extra = {"transversal_direction": [float(x) for x in direction.components]}
        else:
            scene = random_disjoint_scene(n, dim, (rmin, rmax), seed)
            extra = {}
    except (SceneError, SolverError) as exc:
        raise _UsageError(str(exc))
    doc = scene.to_json_dict()
    doc.update(extra)
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


@main.command("check-convexity")
@click.option("--scene", "scene_path", required=True, type=str)
@click.option("--order", type=str, default=None, help="meeting order, e.g. '0,1,2'")
@click.option("--samples", type=click.IntRange(min=1), default=4096, show_default=True)
@click.option("--pairs", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--order-semantics",
    type=click.Choice(["center", "entry"]),
    default="center",
    show_default=True,
)
@click.option("--out", type=str, default=None)
@click.option("--timings", is_flag=True, default=False)
def check_convexity(scene_path, order, samples, pairs, seed, order_semantics, out, timings):
    """Geodesic-midpoint convexity certification for one ordered cone."""
    t0 = time.perf_counter() if timings else None
    scene = _load_scene(scene_path)
    order_t = _parse_order(order, len(scene))
    query = cone_mod.OrderedQuery(scene, order_t)
    config = {
        "scene": scene_path,
        "order": list(order_t),
        "samples": samples,
        "pairs": pairs,
        "seed": seed,
        "order_semantics": order_semantics,
    }
    try:
        rep = cone_mod.cone_convexity_check(
            query, pairs=pairs, seed=seed, lattice=samples, order_semantics=order_semantics,
        )
    except SceneError as exc:
        raise _UsageError(str(exc))
    except SolverError as exc:
        _solver_failed("check-convexity", config, out, t0, exc)
    reason = (f"{rep.feasible_samples} feasible direction sample(s): too few for a midpoint pair"
              if rep.inconclusive else None)
    verdicts = dict(rep.to_json_dict(), band=scene.band)
    _finish("check-convexity", config, verdicts, rep.passed, out, t0, reason)


@main.command("enumerate-permutations")
@click.option("--scene", "scene_path", required=True, type=str)
@click.option("--samples", type=click.IntRange(min=1), default=20000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=str, default=None)
@click.option("--timings", is_flag=True, default=False)
def enumerate_permutations(scene_path, samples, seed, out, timings):
    """Catalog geometric permutations with witness directions."""
    t0 = time.perf_counter() if timings else None
    scene = _load_scene(scene_path)
    config = {"scene": scene_path, "samples": samples, "seed": seed}
    try:
        cat = cone_mod.enumerate_geometric_permutations(scene, samples=samples, seed=seed)
    except SolverError as exc:
        _solver_failed("enumerate-permutations", config, out, t0, exc)
    verdicts = dict(cat.to_json_dict(), band=scene.band)
    _finish("enumerate-permutations", config, verdicts, True, out, t0)


@main.command("count-components")
@click.option("--scene", "scene_path", required=True, type=str)
@click.option("--samples", type=click.IntRange(min=1), default=20000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=str, default=None)
@click.option("--timings", is_flag=True, default=False)
def count_components_cmd(scene_path, samples, seed, out, timings):
    """Count transversal components; must equal the permutation count."""
    t0 = time.perf_counter() if timings else None
    scene = _load_scene(scene_path)
    config = {"scene": scene_path, "samples": samples, "seed": seed}
    try:
        sset = cone_mod.sample_scene(scene, samples, seed=seed)
    except SolverError as exc:
        _solver_failed("count-components", config, out, t0, exc)
    comp = cone_mod.count_components(scene, samples=samples, seed=seed, sample_set=sset)
    cat = cone_mod.enumerate_geometric_permutations(
        scene, samples=samples, seed=seed, sample_set=sset
    )
    agree = comp.count == len(cat)
    verdicts = {
        "band": scene.band,
        "components": comp.to_json_dict(),
        "permutations": len(cat),
        "components_equal_permutations": agree,
    }
    _finish("count-components", config, verdicts, agree, out, t0)


@main.command("probe-flex")
@click.option("--scene", "scene_path", required=True, type=str)
@click.option("--boundary-samples", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=str, default=None)
@click.option("--timings", is_flag=True, default=False)
def probe_flex(scene_path, boundary_samples, seed, out, timings):
    """Flex-freeness certificate over sampled cone boundary directions."""
    t0 = time.perf_counter() if timings else None
    triple = _load_triple(scene_path, "probe-flex")
    config = {
        "scene": scene_path,
        "scene_data": triple.scene.to_json_dict(),
        "boundary_samples": boundary_samples,
        "seed": seed,
    }
    try:
        rep = flexprobe.certify_flex_free(triple, boundary_samples=boundary_samples, seed=seed)
    except SolverError as exc:
        _solver_failed("probe-flex", config, out, t0, exc)
    reason = None
    if rep.probed == 0:
        reason = f"no boundary sample was probed ({rep.skipped} skipped)"
        if len(rep.samples) < rep.requested:
            reason += f"; {len(rep.samples)} of {rep.requested} boundary points located"
    verdicts = dict(rep.to_json_dict(), band=triple.scene.band)
    _finish("probe-flex", config, verdicts, rep.passed, out, t0, reason)


@main.command("verify-identities")
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
# heights are drawn as numpy int64 numerators and denominators
@click.option("--height", type=click.IntRange(1, 2**63 - 1), default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True)
@click.option("--out", type=str, default=None)
@click.option("--timings", is_flag=True, default=False)
def verify_identities(trials, height, seed, out, timings):
    """Exact rational verification of the six pipeline identities."""
    t0 = time.perf_counter() if timings else None
    rep = polyid.schwartz_zippel_suite(trials=trials, height=height, seed=seed)
    config = {"trials": trials, "height": height, "seed": seed}
    _finish("verify-identities", config, rep.to_json_dict(), rep.passed, out, t0)


@main.command("classify-boundary")
@click.option("--scene", "scene_path", required=True, type=str)
@click.option("--direction", type=str, default=None, help="explicit 'x,y,z' on the sextic")
@click.option("--directions", "n_directions", type=click.IntRange(min=1), default=8,
              show_default=True, help="number of traced sextic directions to classify")
@click.option("--out", type=str, default=None)
@click.option("--timings", is_flag=True, default=False)
def classify_boundary(scene_path, direction, n_directions, out, timings):
    """Classify sextic directions: cone boundary iff crossing the triangle.

    Without --direction, directions come evenly from sigma traced in the
    charts u1, u2 and u3 at extent 1, which tile RP^2.
    """
    t0 = time.perf_counter() if timings else None
    triple = _load_triple(scene_path, "classify-boundary")
    verdicts: dict = {"band": triple.scene.band}
    if direction is not None:
        try:
            vec = np.array([float(x) for x in direction.replace(",", " ").split()])
        except ValueError:
            raise _UsageError(f"cannot parse direction {direction!r}")
        if vec.shape != (3,):
            raise _UsageError(f"direction {direction!r} does not have 3 components")
        dirs = [vec]
        verdicts["sextic_points"] = None
    else:
        traced = [
            sextic.chart_point_to_direction(chart, *np.array(poly).T)
            for chart in sextic.CHART_AXES
            for poly in sextic.trace_curves(
                triple, chart=chart, grid=65, extent=1.0, names=("sigma",)
            ).curves["sigma"]
        ]
        pts = np.concatenate(traced) if traced else np.zeros((0, 3))
        verdicts["sextic_points"] = len(pts)
        if not len(pts):
            verdicts["reason"] = "sigma has no sign change on the three charts"
        dirs = list(pts[::max(1, len(pts) // n_directions)][:n_directions])
    config = {"scene": scene_path, "directions": len(dirs)}
    results = []
    disagreements = 0
    for vec in dirs:
        try:
            cls = cone_mod.classify_boundary_direction(triple, Direction(vec))
        except SolverError as exc:
            _solver_failed("classify-boundary", config, out, t0, exc)
        except SceneError as exc:
            if direction is not None:
                # an explicitly supplied direction must satisfy the
                # precondition; traced directions may straddle the tolerance
                raise _UsageError(str(exc))
            results.append({"direction": [float(x) for x in vec], "error": str(exc)})
            continue
        entry = {
            "direction": [float(x) for x in vec / np.linalg.norm(vec)],
            "on_boundary": cls.on_boundary,
            "crosses_triangle": cls.crosses_triangle,
            "slack": cls.slack,
            "tag": cls.tag,
        }
        if cls.on_boundary is not None and cls.crosses_triangle is not None:
            entry["agree"] = cls.on_boundary == cls.crosses_triangle
            if not entry["agree"]:
                disagreements += 1
        results.append(entry)
    verdicts.update(classifications=results, disagreements=disagreements)
    _finish("classify-boundary", config, verdicts, disagreements == 0, out, t0)


@main.command("trace-curves")
@click.option("--scene", "scene_path", required=True, type=str)
@click.option("--chart", type=click.Choice(["u1", "u2", "u3"]), default="u3", show_default=True)
@click.option("--grid", type=click.IntRange(min=2), default=200, show_default=True)
@click.option("--extent", type=float, default=2.0, show_default=True, callback=_positive)
@click.option("--format", "fmt", type=click.Choice(["csv", "svg"]), default="csv", show_default=True)
@click.option("--hatch-samples", type=click.IntRange(min=1), default=3000, show_default=True,
              help="direction samples for the feasible-region hatching (svg)")
@click.option("--out", type=str, default=None)
def trace_curves_cmd(scene_path, chart, grid, extent, fmt, hatch_samples, out):
    """Trace sextic, Hessian and pair conics in an affine direction chart."""
    triple = _load_triple(scene_path, "trace-curves")
    traces = sextic.trace_curves(triple, chart=chart, grid=grid, extent=extent)
    if fmt == "csv":
        rows = traces.to_csv_rows()
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    else:
        try:
            feas = _chart_feasible_points(triple.scene, chart, extent, hatch_samples)
        except SolverError as exc:
            raise _InconclusiveError(f"solver error: {exc}")
        text = render_figure(traces, feasible_points=feas)
    _write(text, out)


def _chart_feasible_points(scene: Scene, chart: str, extent: float, count: int) -> np.ndarray:
    """Directions of the chart plane whose projected disks share a point, up
    to the scene's band."""
    side = max(8, int(math.sqrt(count)))
    xs = np.linspace(-extent, extent, side)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    dirs = sextic.chart_point_to_direction(chart, pts[:, 0], pts[:, 1])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    slacks = cone_mod.minimax_slack_batch(scene.centers, scene.radii, dirs)
    return pts[slacks <= scene.band]


def render_figure(
    traces: sextic.CurveTraces,
    feasible_points: np.ndarray | None = None,
    size: int = 600,
) -> str:
    """Render curve traces as a standalone SVG with the fixed color scheme.

    Colors: sextic red, Hessian black, pair conics blue/green/gray; the
    feasible direction region is hatched with short diagonal strokes.  An
    empty trace set still yields a valid SVG skeleton.
    """
    ext = traces.extent

    def to_px(x, y):
        return (
            (x + ext) / (2 * ext) * size,
            size - (y + ext) / (2 * ext) * size,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if feasible_points is not None and len(feasible_points):
        h = size / 160.0
        strokes = []
        for x, y in feasible_points:
            px, py = to_px(float(x), float(y))
            strokes.append(f"M{px - h:.1f} {py + h:.1f}L{px + h:.1f} {py - h:.1f}")
        parts.append(
            f'<path d="{" ".join(strokes)}" stroke="#c8a2c8" stroke-width="0.8" fill="none"/>'
        )
    for name, polylines in traces.curves.items():
        color = CURVE_COLORS.get(name, "#444444")
        for poly in polylines:
            if len(poly) < 2:
                continue
            coords = " ".join(
                f"{to_px(float(x), float(y))[0]:.2f},{to_px(float(x), float(y))[1]:.2f}"
                for x, y in poly
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.4"/>'
            )
    y0 = 18
    for name, color in CURVE_COLORS.items():
        if name in traces.curves:
            parts.append(
                f'<text x="10" y="{y0}" font-size="13" fill="{color}">{name}</text>'
            )
            y0 += 16
    parts.append(f'<text x="10" y="{size - 8}" font-size="11" fill="#333">chart {traces.chart}, '
                 f'extent {traces.extent}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


if __name__ == "__main__":
    main()
