"""Print the sha256 of every report a checkout writes, one line each.

    python3 tools/report_digests.py presets [--src DIR]
    python3 tools/report_digests.py identities [--src DIR]
    python3 tools/report_digests.py workdir .perfbench_work/triple-certify
    python3 tools/report_digests.py kernel [--src DIR]

``presets`` runs each command of the ``linestab`` CLI on the built-in preset
scenes at its default options (entry order semantics for check-convexity on
the transition presets), plus verify-identities once, and prints the digest
of each run's standard output with its exit code.  Each probe-flex line is
followed by that run's ``located``, ``probed`` and ``skipped`` counts, so a
moved count reads directly.  trace-curves also runs
in the charts u1 and u2 (the default is u3).  On flexdemo-disjoint,
classify-boundary also runs with an explicit ``--direction``: the first
direction of the default run, then a zero and a NaN direction (usage
errors); and trace-curves once more with ``--format svg``.  count-components
also runs on every relabelling of each preset's balls, from one file name, so
that a report that depends on how the balls are numbered shows as digests
that differ within the preset's block of relabellings; a line after each
block says whether the byte digests of its reports all agree, or how many
distinct ones it holds.  Last come four
``generate-scene --with-transversal`` runs, in R^3 to R^5.  ``--src`` is the
source directory of the checkout to run (default: this checkout's ``src``); every
run reads its scene through the same relative path, so the reports of two
checkouts compare byte for byte.

``identities`` prints the digest of every verify-identities report of
perfbench's exact-identities ops at seeds 1 and 2 (``perfbench/workloads.py``:
25 trials at ``--seed`` 1000 s + k, twelve at the default height and four at
height 10^6), run without their ``--out``; then of 25 trials at the heights 1
and 2^63 - 1 and of ``--trials 200`` at the defaults.  The failure bounds of
the last two underflow a double.  ``--src`` is as for ``presets``.

``workdir`` prints the digest of each op's report in a perfbench work
directory (``ops.json`` and the files the ops wrote), with the path the ops
wrote to replaced by ``WORK`` so that runs in two checkouts compare; a
missing report is digested as empty.

``kernel`` prints the digests of the disk-minimax kernel's slack and weight
bytes (``cone._minimax``) on fixed inputs: the five random scenes of the
cone-sweep shapes (``random_scene_with_transversal`` at seeds 300 to 304) and
the presets, each once on a lattice of KERNEL_LATTICE directions and once on
the KERNEL_NEAR lattice rows of smallest |slack|, which reach the violator
rounds.  Then, per scene, those of ``sample_scene`` on SAMPLE_ROWS rows: its
slacks, its orders on the rows that meet, its ties and its feasible mask;
for the five random scenes also the JSON of
``enumerate_geometric_permutations`` and ``count_components`` on that
sample, which reach more than three balls and R^4 and R^5.
Last, per preset, those of ``boundary_directions_for_triple(triple, 200)``
and ``sextic_ray_directions(triple, 8)`` on its 2^-200, 1 and 2^200 copies,
with the exception's type name in place of a digest where a call raises;
a line after each preset says whether its three copies' digests agree.
``--src`` is as for ``presets``; this mode calls the library itself, and
builds the scaled copies through the scene's JSON document
(``to_json_dict`` and ``from_json_dict``), so it runs on checkouts from
before and after ``Scene`` took its rows directly.

``presets``, ``identities`` and ``workdir`` print two digests per report:
of its bytes, and of its float-free form, the report with every float
replaced by its type name.  A trace CSV's float-free form keeps each row's
curve label only, so it records the row count of each curve.  A change that
moves float bits on purpose shows in the second digest that no count, flag
or exit code moved.

The digests of two commits are then one ``diff`` apart.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import click

ROOT = Path(__file__).resolve().parent.parent
PRESETS = (
    "collinear", "pinned", "two-permutations",
    "transition-disjoint", "transition-tangent", "transition-overlapping",
    "flexdemo-disjoint", "flexdemo-tangent", "flexdemo-overlapping",
)
SCENE_COMMANDS = (
    "check-convexity", "enumerate-permutations", "count-components",
    "probe-flex", "classify-boundary", "trace-curves",
)
# (n, d) of the random scenes of the kernel digests, at seeds 300, 301, ...
KERNEL_SHAPES = ((3, 3), (6, 3), (10, 3), (8, 4), (6, 5))
KERNEL_LATTICE = 4096
KERNEL_NEAR = 1000
SAMPLE_ROWS = 20_000
# the power-of-two copies of each preset whose triple directions ``kernel`` digests
SCALE_SHIFTS = (-200, 0, 200)
# perfbench seeds of the exact-identities ops that ``identities`` replays
IDENTITY_SEEDS = (1, 2)


# a float as the reports print one: a repr or formatted value, or not finite
_FLOAT = re.compile(rb"-?(?:\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\b(?:inf|Infinity|nan|NaN)\b)")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(data: bytes) -> str:
    """The digest of a report's bytes, then that of the report with every
    float replaced by its type name: a trace CSV keeps only each row's curve
    label, so the row count of each curve."""
    return f"{_digest(data)}  {_digest(_FLOAT.sub(b'float', data))}"


def _cli_runner(src: str, work: str):
    """A function that runs the CLI of the checkout at ``src`` in ``work`` on
    its arguments, prints the digest of its standard output and returns it."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))

    def run(*args: str, note: str = "") -> bytes:
        proc = subprocess.run([sys.executable, "-m", "linestab.cli", *args], cwd=work,
                              env=env, capture_output=True)
        click.echo(f"{_digests(proc.stdout)}  exit {proc.returncode}  {' '.join(args)}{note}")
        return proc.stdout

    return run


@click.group()
def main():
    """sha256 digests of linestab reports, for byte-identity checks."""


@main.command()
@click.option("--src", type=click.Path(exists=True, file_okay=False), default=str(ROOT / "src"),
              show_default=True, help="source directory holding the linestab package")
def presets(src):
    """Every command's report on the preset scenes."""
    with tempfile.TemporaryDirectory() as work:
        run = _cli_runner(src, work)
        for preset in PRESETS:
            scene = f"{preset}.json"
            Path(work, scene).write_bytes(run("generate-scene", "--preset", preset))
            for command in SCENE_COMMANDS:
                extra = (["--order-semantics", "entry"]
                         if command == "check-convexity" and preset.startswith("transition-")
                         else [])
                out = run(command, "--scene", scene, *extra)
                if command == "probe-flex":
                    verdicts = json.loads(out)["verdicts"]
                    click.echo("  ".join(f"{key} {verdicts[key]}"
                                         for key in ("located", "probed", "skipped")))
                if preset == "flexdemo-disjoint" and command == "classify-boundary":
                    first = json.loads(out)["verdicts"]["classifications"][0]["direction"]
                    for direction in (",".join(map(repr, first)), "0,0,0", "nan,0,0"):
                        run(command, "--scene", scene, "--direction", direction)
                if command == "trace-curves":
                    for chart in ("u1", "u2"):
                        run(command, "--scene", scene, "--chart", chart)
                    if preset == "flexdemo-disjoint":
                        run(command, "--scene", scene, "--format", "svg")
            doc = json.loads(Path(work, scene).read_text())
            digests = set()
            for perm in itertools.permutations(range(len(doc["balls"]))):
                relabelled = dict(doc, balls=[doc["balls"][p] for p in perm])
                Path(work, "relabelled.json").write_text(json.dumps(relabelled))
                digests.add(_digest(run("count-components", "--scene", "relabelled.json",
                                        note=f"  ({preset}, balls {','.join(map(str, perm))})")))
            click.echo(f"relabellings of {preset}: byte digests "
                       + ("agree" if len(digests) == 1 else f"differ ({len(digests)} distinct)"))
        run("verify-identities")
        for n, dim, seed in ((3, 3, 0), (5, 4, 1), (6, 5, 2), (10, 3, 7)):
            run("generate-scene", "--with-transversal", "--n", str(n), "--dim", str(dim),
                "--seed", str(seed))


@main.command()
@click.option("--src", type=click.Path(exists=True, file_okay=False), default=str(ROOT / "src"),
              show_default=True, help="source directory holding the linestab package")
def identities(src):
    """verify-identities' reports: the exact-identities ops and the edge heights."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as work:
        run = _cli_runner(src, work)
        for seed in IDENTITY_SEEDS:
            for op in workloads.build("exact-identities", seed, Path(work)):
                args = op["args"]
                at = args.index("--out")
                run(op["command"], *args[:at], *args[at + 2:])
        for height in (1, 2**63 - 1):
            run("verify-identities", "--trials", "25", "--height", str(height))
        run("verify-identities", "--trials", "200")


@main.command()
@click.argument("work", type=click.Path(exists=True, file_okay=False))
def workdir(work):
    """Each op's report in a perfbench work directory."""
    work = Path(work)
    for op in json.loads((work / "ops.json").read_text()):
        args = op["args"]
        written = Path(args[args.index("--out") + 1])  # where the op wrote it
        out = work / written.name
        data = out.read_bytes().replace(str(written.parent).encode(), b"WORK") if out.exists() else b""
        click.echo(f"{_digests(data)}  op{op['id']} {op['command']} {out.name}")


def _scaled_scene(Scene, scene, k):
    """The 2^k copy of ``scene``, built through its JSON document, which
    reads the same before and after ``Scene`` took its rows directly."""
    data = scene.to_json_dict()
    for ball in data["balls"]:
        ball["center"] = [math.ldexp(x, k) for x in ball["center"]]
        ball["radius"] = math.ldexp(ball["radius"], k)
    return Scene.from_json_dict(data)


@main.command()
@click.option("--src", type=click.Path(exists=True, file_okay=False), default=str(ROOT / "src"),
              show_default=True, help="source directory holding the linestab package")
def kernel(src):
    """The kernel's slacks and weights and sample_scene's data on fixed scenes."""
    sys.path.insert(0, str(Path(src).resolve()))
    import numpy as np
    from linestab import cone, geom, sextic
    from linestab.cli import preset_scene

    scenes = [(f"random-n{n}-d{d}", geom.random_scene_with_transversal(n, d, (1.0, 2.0), 300 + k)[0])
              for k, (n, d) in enumerate(KERNEL_SHAPES)]
    scenes += [(name, preset_scene(name)) for name in PRESETS]

    def echo(label, name, *arrays):
        data = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
        click.echo(f"{_digest(data)}  {label} {name}")

    for name, scene in scenes:
        U = cone.sample_directions(scene.dimension, KERNEL_LATTICE)
        slack, W = cone._minimax(scene.centers, scene.radii, U)
        echo("minimax lattice", name, slack, W)
        near = U[np.argsort(np.abs(slack), kind="stable")[:KERNEL_NEAR]]
        echo("minimax near", name, *cone._minimax(scene.centers, scene.radii, near))
    for name, scene in scenes:
        sset = cone.sample_scene(scene, SAMPLE_ROWS)
        echo("sample slacks", name, sset.slacks)
        echo("sample orders", name, sset.orders[sset.meets])
        echo("sample ties", name, sset.ties)
        echo("sample feasible", name, sset.feasible)
        if not name.startswith("random-"):
            continue  # the presets' catalogues are in ``presets``' reports
        for label, report in (("permutations", cone.enumerate_geometric_permutations),
                              ("components", cone.count_components)):
            click.echo(f"{_digest(json.dumps(report(sset)).encode())}  sample {label} {name}")
    calls = (("boundary directions", cone.boundary_directions_for_triple, 200),
             ("sextic ray directions", lambda t, n: cone.sextic_ray_directions(t, n)[0], 8))
    for name in PRESETS:
        scene, seen = preset_scene(name), set()
        for k in SCALE_SHIFTS:
            triple = sextic.Triple(_scaled_scene(geom.Scene, scene, k))
            for label, call, count in calls:
                try:
                    digest = _digest(np.ascontiguousarray(call(triple, count)).tobytes())
                except Exception as exc:  # a raising call is part of the record
                    digest = type(exc).__name__
                seen.add((label, digest))
                click.echo(f"{digest}  {label} {name} 2^{k}")
        click.echo(f"scaled copies of {name}: digests "
                   + ("agree" if len(seen) == 2 else "differ"))


if __name__ == "__main__":
    main()
