"""Command-line surface: scene generation, experiments, certificates, figures.

Every command is registered through ``_command``, the one place where a
command's result or failure becomes output and an exit code.  A report
command emits a schema-versioned JSON report (stdout or --out) whose content
is byte-identical across runs for the same command, seed and scene;
wall-clock timings are added only under --timings, so the determinism
contract holds by default.  Exit code 0 means all checked properties hold,
1 reports a property violation with witnesses, 2 a usage error, and 3 an
inconclusive run: too little evidence to decide either way.  The report's
``outcome`` names which of holds / violation / inconclusive it is, with a
reason.  A classify-boundary run with no sextic root on its rays holds
(exit 0) and gives its reason among the verdicts: no feasible lattice
direction to cast rays from, or no real root on them.

A usage error exits 2 with a message on stderr and no report: among others a
--scene file that is missing, a directory, unreadable, not UTF-8, not JSON
or not a valid scene; a scene that is not three balls in R^3 for
probe-flex, classify-boundary and trace-curves, or not in R^3 for entry
order semantics; and an --out path that cannot be written.  A numerical
solver that cannot finish (SolverError) makes the run inconclusive, with
the solver's message as the reason; trace-curves and generate-scene, which
write no report, print that reason.

No option sets a tolerance and none is read from the environment: every
length decision reads the scene's band, REL_TOL times its diameter, and the
report of every command that reads a scene states that ``band`` among its
verdicts.
"""
from __future__ import annotations

import functools
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
    Scene,
    SceneError,
    SolverError,
    _unit_rows,
    random_disjoint_scene,
    random_scene_with_transversal,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

FIGURE_PX = 600  # side of the square SVG figure
CURVE_COLORS = {
    "sigma": "#cc0000",
    "hessian": "#000000",
    "pair01": "#1f4fd8",
    "pair02": "#1a8f1a",
    "pair12": "#808080",
}

# Frozen demonstration scenes: (center, radius) of each ball.  The transition
# and flexdemo families are both of the "second ball slides toward the first"
# form.  The transition family is spread out; its overlapping member has a
# non-convex entry-order cone (order 0,1,2) while the disjoint member has
# none.  The flexdemo family is compact, so its cone boundary carries sextic
# arcs: the disjoint member keeps all sextic-Hessian intersections strictly
# interior, the overlapping member pulls them onto the boundary.
_PRESETS = {
    "collinear": (([0, 0, 0], 1.0), ([4, 0, 0], 1.0), ([8, 0, 0], 1.0)),
    "pinned": (([0, 1, 0], 1.0), ([3, -1, 0], 1.0), ([6, 1.5, 0], 1.5)),
    "two-permutations": (([2.04, 1.47, 2.0], 1.11), ([-0.75, 1.91, 1.2], 0.69),
                         ([0, -33, 0], 33.0)),
    "transition-disjoint": (([0, 0, 0], 1.864), ([3.2, 0, 0], 0.952),
                            ([-3.484, 1.766, 0], 0.772)),
    "transition-tangent": (([0, 0, 0], 1.864), ([2.816, 0, 0], 0.952),
                           ([-3.484, 1.766, 0], 0.772)),
    "transition-overlapping": (([0, 0, 0], 1.864), ([1.544, 0, 0], 0.952),
                               ([-3.484, 1.766, 0], 0.772)),
    "flexdemo-disjoint": (([0, 0, 0], 1.0), ([2.2, 0, 0], 1.0), ([1.1, 2.2, 0], 1.0)),
    "flexdemo-tangent": (([0, 0, 0], 1.0), ([2.0, 0, 0], 1.0), ([1.1, 2.2, 0], 1.0)),
    "flexdemo-overlapping": (([0, 0, 0], 1.0), ([1.95, 0, 0], 1.0), ([1.1, 2.2, 0], 1.0)),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_scene(name: str) -> Scene:
    """Built-in demonstration scenes used by tests and figure reproduction."""
    if name not in _PRESETS:
        raise SceneError(f"unknown preset {name!r}")
    centers, radii = zip(*_PRESETS[name])
    return Scene(centers, radii, allow_overlap=name.endswith(("-tangent", "-overlapping")))


def _load_scene(path: str) -> Scene:
    """The scene in the file at ``path``.

    SceneError when the file cannot be read as UTF-8 JSON or does not hold a
    valid scene.  --scene's click.Path has already turned away a missing
    path and a directory.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SceneError(
            f"malformed scene JSON at {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except RecursionError:
        raise SceneError(f"malformed scene JSON at {path}: nested too deeply")
    except (OSError, UnicodeDecodeError) as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}")
    try:
        scene = Scene.from_json_dict(data)
    except SceneError as exc:
        raise SceneError(f"invalid scene {path}: {exc}")
    return scene


class _Exit(click.ClickException):
    """Ends a command with a one-line message and the given exit code."""

    def __init__(self, message: str, exit_code: int = EXIT_USAGE):
        super().__init__(message)
        self.exit_code = exit_code


def _positive(ctx, param, value):
    """Click callback: a float option must be finite and > 0 (else exit 2)."""
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be finite and > 0, got {value}")
    return value


def _numbers(convert, count: int | None = None):
    """Click callback for a list like '0,1,2': a tuple of ``count`` (when
    given) numbers, or exit 2."""

    def callback(ctx, param, value):
        if value is None:
            return None
        try:
            parts = tuple(convert(x) for x in value.replace(",", " ").split())
        except ValueError:
            raise click.BadParameter(f"cannot parse {value!r}")
        if count is not None and len(parts) != count:
            raise click.BadParameter(f"{value!r} does not have {count} components")
        return parts

    return callback


def _write(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Exit(f"cannot write {out}: {exc.strerror or exc}")


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


@click.group()
def main():
    """Line transversals to disjoint balls: sextics, cones, certificates."""


# shared by every command that takes them
_SCENE = click.Option(["--scene", "scene_path"], required=True,
                      type=click.Path(exists=True, dir_okay=False), help="scene JSON file")
_OUT = click.Option(["--out"], type=str, default=None, help="output path (default stdout)")
_TIMINGS = click.Option(["--timings"], is_flag=True, default=False,
                        help="add the run's wall-clock seconds to the report")


def _command(name: str, reads: str | None = None, report: bool = True):
    """Register the decorated body as command ``name``: the one path from a
    command's result or failure to its output and exit code.

    ``reads`` is "scene" for a command that takes --scene, or "triple" for
    one that needs three balls in R^3; the body gets the loaded scene (as
    sextic.Triple's view of it for "triple", which checks those balls)
    under that keyword.  A report body fills
    ``config`` and returns (verdicts, passed, inconclusive reason); the
    scene's band joins the verdicts and _finish writes the report to --out
    and exits.  A text body returns the text for --out.  A SceneError exits
    2 with its message.  A SolverError makes the run inconclusive (exit 3),
    with "solver error: <message>" as the reason: a report command reports
    it with the config built so far, a text command prints it.
    """

    def register(body):
        @functools.wraps(body)
        def run(out, timings=False, scene_path=None, **options):
            t0 = time.perf_counter()
            config: dict = {}
            try:
                if reads:
                    scene = _load_scene(scene_path)
                    config["scene"] = scene_path
                    options[reads] = sextic.Triple(scene) if reads == "triple" else scene
                if not report:
                    return _write(body(**options), out)
                verdicts, passed, reason = body(config=config, **options)
                if reads:
                    verdicts["band"] = scene.band
            except SceneError as exc:
                raise _Exit(str(exc))
            except SolverError as exc:
                if not report:
                    raise _Exit(f"solver error: {exc}", EXIT_INCONCLUSIVE)
                verdicts, passed, reason = {}, False, f"solver error: {exc}"
            _finish(name, config, verdicts, passed, out, t0 if timings else None, reason)

        command = main.command(name)(run)
        command.params = ([_SCENE] if reads else []) + command.params + (
            [_OUT, _TIMINGS] if report else [_OUT])
        return command

    return register


@_command("generate-scene", report=False)
@click.option("--preset", type=click.Choice(PRESET_NAMES), default=None)
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--dim", type=int, default=3, show_default=True)
@click.option("--rmin", type=float, default=1.0, show_default=True, callback=_positive)
@click.option("--rmax", type=float, default=2.0, show_default=True, callback=_positive)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--with-transversal", "transversal", is_flag=True, default=False)
def generate_scene(preset, n, dim, rmin, rmax, seed, transversal):
    """Write a scene JSON: a preset or a random disjoint family."""
    if preset:
        scene = preset_scene(preset)
        extra = {"preset": preset}
    elif transversal:
        scene, direction = random_scene_with_transversal(n, dim, (rmin, rmax), seed)
        extra = {"transversal_direction": [float(x) for x in direction]}
    else:
        scene = random_disjoint_scene(n, dim, (rmin, rmax), seed)
        extra = {}
    doc = scene.to_json_dict()
    doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@_command("check-convexity", reads="scene")
@click.option("--order", callback=_numbers(int), default=None, help="meeting order, e.g. '0,1,2'")
@click.option("--samples", type=click.IntRange(min=1), default=4096, show_default=True)
@click.option("--pairs", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--order-semantics",
    type=click.Choice(["center", "entry"]),
    default="center",
    show_default=True,
)
def check_convexity(config, scene, order, samples, pairs, seed, order_semantics):
    """Geodesic-midpoint convexity certification for one ordered cone."""
    order = tuple(range(len(scene))) if order is None else order
    config.update(order=list(order), samples=samples, pairs=pairs, seed=seed,
                  order_semantics=order_semantics)
    rep = cone_mod.cone_convexity_check(
        scene, order, pairs=pairs, seed=seed, lattice=samples, order_semantics=order_semantics,
    )
    reason = (f"{rep['feasible_samples']} feasible direction sample(s): too few for a midpoint pair"
              if rep["inconclusive"] else None)
    return rep, rep["pass"], reason


@_command("enumerate-permutations", reads="scene")
@click.option("--samples", type=click.IntRange(min=1), default=20000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="seeds the Gaussian direction sample in R^d, d >= 4; the R^2 angles "
                   "and the R^3 Fibonacci lattice ignore it")
def enumerate_permutations(config, scene, samples, seed):
    """Catalog geometric permutations with witness directions."""
    config.update(samples=samples, seed=seed)
    sset = cone_mod.sample_scene(scene, samples, seed)
    return cone_mod.enumerate_geometric_permutations(sset), True, None


@_command("count-components", reads="scene")
@click.option("--samples", type=click.IntRange(min=1), default=20000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="seeds the Gaussian direction sample in R^d, d >= 4; the R^2 angles "
                   "and the R^3 Fibonacci lattice ignore it")
def count_components_cmd(config, scene, samples, seed):
    """Count transversal components; must equal the permutation count."""
    config.update(samples=samples, seed=seed)
    sset = cone_mod.sample_scene(scene, samples, seed)
    comp = cone_mod.count_components(sset)
    cat = cone_mod.enumerate_geometric_permutations(sset)
    agree = comp["count"] == cat["count"]
    verdicts = {
        "components": comp,
        "permutations": cat["count"],
        "components_equal_permutations": agree,
    }
    return verdicts, agree, None


@_command("probe-flex", reads="triple")
@click.option("--boundary-samples", type=click.IntRange(min=1), default=200, show_default=True)
def probe_flex(config, triple, boundary_samples):
    """Flex-freeness certificate over sampled cone boundary directions."""
    config.update(scene_data=triple.scene.to_json_dict(), boundary_samples=boundary_samples)
    rep = flexprobe.certify_flex_free(triple, boundary_samples=boundary_samples)
    reason = None
    if rep.probed == 0:
        reason = f"no boundary sample was probed ({rep.skipped} skipped)"
        if len(rep.samples) < rep.requested:
            reason += f"; {len(rep.samples)} of {rep.requested} boundary points located"
    return rep.to_json_dict(), rep.passed, reason


@_command("verify-identities")
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
# heights are drawn as numpy int64 numerators and denominators
@click.option("--height", type=click.IntRange(1, 2**63 - 1), default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=42, show_default=True)
def verify_identities(config, trials, height, seed):
    """Exact rational verification of the six pipeline identities."""
    config.update(trials=trials, height=height, seed=seed)
    rep = polyid.schwartz_zippel_suite(trials=trials, height=height, seed=seed)
    return rep, rep["pass"], None


@_command("classify-boundary", reads="triple")
@click.option("--direction", callback=_numbers(float, 3), default=None,
              help="explicit 'x,y,z' on the sextic")
@click.option("--directions", "n_directions", type=click.IntRange(min=1), default=8,
              show_default=True, help="number of rays whose sextic roots are classified")
def classify_boundary(config, triple, direction, n_directions):
    """Classify sextic directions: cone boundary iff crossing the triangle.

    Without --direction, the directions are every real root of sigma along
    the --directions rays that probe-flex casts from the cones' deepest
    lattice directions (cone.sextic_ray_directions).
    """
    if direction is not None and not (all(map(math.isfinite, direction)) and any(direction)):
        raise click.BadParameter(f"must be finite and not zero, got {direction}",
                                 param_hint="'--direction'")
    config.update(direction=None if direction is None else list(direction),
                  directions=n_directions)
    if direction is not None:
        U = _unit_rows([direction])
        verdicts: dict = {"rays": None, "sextic_points": None}
    else:
        U, rays = cone_mod.sextic_ray_directions(triple, n_directions)
        verdicts = {"rays": rays, "sextic_points": len(U)}
        if not rays:
            verdicts["reason"] = "no feasible lattice direction: no cone to cast rays from"
        elif not len(U):
            verdicts["reason"] = f"sigma has no real root on the {rays} rays"
    results = []
    for u, cls in zip(U, cone_mod.classify_boundary_direction(triple, U)):
        if direction is not None and "error" in cls:
            raise SceneError(cls["error"])  # an explicit direction must be on the sextic
        entry = {"direction": u.tolist(), **cls}  # the unit row that was classified
        if cls.get("on_boundary") is not None and cls["crosses_triangle"] is not None:
            entry["agree"] = cls["on_boundary"] == cls["crosses_triangle"]
        results.append(entry)
    verdicts.update(
        classifications=results,
        boundary_directions=sum(e.get("on_boundary") is True for e in results),
        interior_directions=sum(e.get("on_boundary") is False for e in results),
        disagreements=sum(e.get("agree") is False for e in results),
    )
    return verdicts, verdicts["disagreements"] == 0, None


@_command("trace-curves", reads="triple", report=False)
@click.option("--chart", type=click.Choice(["u1", "u2", "u3"]), default="u3", show_default=True)
@click.option("--grid", type=click.IntRange(min=2), default=200, show_default=True)
@click.option("--extent", type=float, default=2.0, show_default=True, callback=_positive)
@click.option("--format", "fmt", type=click.Choice(["csv", "svg"]), default="csv", show_default=True)
@click.option("--hatch-samples", type=click.IntRange(min=1), default=3000, show_default=True,
              help="direction samples for the feasible-region hatching (svg)")
def trace_curves_cmd(triple, chart, grid, extent, fmt, hatch_samples):
    """Trace sextic, Hessian and pair conics in an affine direction chart."""
    traces = sextic.trace_curves(triple, chart=chart, grid=grid, extent=extent)
    if fmt == "csv":
        return traces.to_csv()
    feas = _chart_feasible_points(triple.scene, chart, extent, hatch_samples)
    return render_figure(traces, feasible_points=feas)


def _chart_feasible_points(scene: Scene, chart: str, extent: float, count: int) -> np.ndarray:
    """Directions of the chart plane whose projected disks share a point, up
    to the scene's band."""
    side = max(8, int(math.sqrt(count)))
    xs = np.linspace(-extent, extent, side)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    dirs = sextic.chart_point_to_direction(chart, pts[:, 0], pts[:, 1])
    return pts[cone_mod.evaluate_directions(scene, dirs).meets]


def render_figure(traces: sextic.CurveTraces, feasible_points: np.ndarray | None = None) -> str:
    """Render curve traces as a standalone SVG with the fixed color scheme.

    Colors: sextic red, Hessian black, pair conics blue/green/gray; the
    feasible direction region is hatched with short diagonal strokes.  An
    empty trace set still yields a valid SVG skeleton.
    """
    ext = traces.extent
    size = FIGURE_PX

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
        for poly in polylines:
            if len(poly) < 2:
                continue
            coords = " ".join("%.2f,%.2f" % to_px(float(x), float(y)) for x, y in poly)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{CURVE_COLORS[name]}" '
                         'stroke-width="1.4"/>')
    for k, (name, color) in enumerate(CURVE_COLORS.items()):
        parts.append(f'<text x="10" y="{18 + 16 * k}" font-size="13" fill="{color}">{name}</text>')
    parts.append(f'<text x="10" y="{size - 8}" font-size="11" fill="#333">chart {traces.chart}, '
                 f'extent {traces.extent}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


if __name__ == "__main__":
    main()
