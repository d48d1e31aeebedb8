"""Print the sha256 of every report a checkout writes, one line each.

    python3 tools/report_digests.py presets [--src DIR]
    python3 tools/report_digests.py workdir .perfbench_work/triple-certify

``presets`` runs each command of the ``linestab`` CLI on the built-in preset
scenes at its default options (entry order semantics for check-convexity on
the transition presets), plus verify-identities once, and prints the digest
of each run's standard output with its exit code.  trace-curves also runs
in the charts u1 and u2 (the default is u3).  On flexdemo-disjoint,
classify-boundary also runs with an explicit ``--direction``: the first
direction of the default run, then a zero and a NaN direction (usage
errors); and trace-curves once more with ``--format svg``.  Last come four
``generate-scene --with-transversal`` runs, in R^3 to R^5.  ``--src`` is the
source directory of the checkout to run (default: this checkout's ``src``); every
run reads its scene through the same relative path, so the reports of two
checkouts compare byte for byte.

``workdir`` prints the digest of each op's report in a perfbench work
directory (``ops.json`` and the files the ops wrote), with the path the ops
wrote to replaced by ``WORK`` so that runs in two checkouts compare; a
missing report is digested as empty.

The digests of two commits are then one ``diff`` apart.
"""
from __future__ import annotations

import hashlib
import json
import os
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@click.group()
def main():
    """sha256 digests of linestab reports, for byte-identity checks."""


@main.command()
@click.option("--src", type=click.Path(exists=True, file_okay=False), default=str(ROOT / "src"),
              show_default=True, help="source directory holding the linestab package")
def presets(src):
    """Every command's report on the preset scenes."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    with tempfile.TemporaryDirectory() as work:

        def run(*args: str) -> bytes:
            proc = subprocess.run([sys.executable, "-m", "linestab.cli", *args], cwd=work,
                                  env=env, capture_output=True)
            click.echo(f"{_digest(proc.stdout)}  exit {proc.returncode}  {' '.join(args)}")
            return proc.stdout

        for preset in PRESETS:
            scene = f"{preset}.json"
            Path(work, scene).write_bytes(run("generate-scene", "--preset", preset))
            for command in SCENE_COMMANDS:
                extra = (["--order-semantics", "entry"]
                         if command == "check-convexity" and preset.startswith("transition-")
                         else [])
                out = run(command, "--scene", scene, *extra)
                if preset == "flexdemo-disjoint" and command == "classify-boundary":
                    first = json.loads(out)["verdicts"]["classifications"][0]["direction"]
                    for direction in (",".join(map(repr, first)), "0,0,0", "nan,0,0"):
                        run(command, "--scene", scene, "--direction", direction)
                if command == "trace-curves":
                    for chart in ("u1", "u2"):
                        run(command, "--scene", scene, "--chart", chart)
                    if preset == "flexdemo-disjoint":
                        run(command, "--scene", scene, "--format", "svg")
        run("verify-identities")
        for n, dim, seed in ((3, 3, 0), (5, 4, 1), (6, 5, 2), (10, 3, 7)):
            run("generate-scene", "--with-transversal", "--n", str(n), "--dim", str(dim),
                "--seed", str(seed))


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
        click.echo(f"{_digest(data)}  op{op['id']} {op['command']} {out.name}")


if __name__ == "__main__":
    main()
