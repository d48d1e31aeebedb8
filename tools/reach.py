"""List the functions and the lines of the linestab package that no CLI
command runs.

    python3 tools/reach.py [--src DIR]

Runs the commands of the ``linestab`` CLI in this process, with their scene
files in a temporary directory, under a ``sys.settrace`` hook that records
every function call into, and every line run in, the package's source:

- on each of the nine presets, every command at its defaults, trace-curves
  also in the charts u1 and u2 (the default is u3) and as SVG,
  check-convexity also with entry order semantics, and classify-boundary
  also with an explicit ``--direction``, the first row of its default run;
  and once with a direction off the sextic of flexdemo-disjoint, a usage
  error;
- check-convexity, enumerate-permutations and count-components on
  ``generate-scene --with-transversal`` scenes in R^2, R^3, R^4 and R^5,
  plus one plain ``generate-scene``;
- ``verify-identities --trials 5``, at the default height and at 10^6.

The package is imported under the same hook, so what its import runs (class
bodies, decorators) counts as entered.  Then it prints each function defined
in the package's source (methods, properties, nested functions and lambdas
included; not comprehensions, class bodies, or the nested functions of a
function it prints) that no run entered, one per line as ``file:line
qualname``, and a count line.  A function listed is reached only from the
tests or from library use outside the CLI, or from nowhere.  After them it
prints each executable line of the package's source (a line that holds
bytecode of the module or of a function in it) on which no run started, as
``file:line  source``, from the hook's ``line`` events (and a function's
``call`` event for its ``def`` line), and a count line last.
``--src`` is the source directory of the checkout to run (default: this
checkout's ``src``).
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import tempfile
from pathlib import Path

import click

ROOT = Path(__file__).resolve().parent.parent
# generated scenes for the sample-set commands: (n, dim, seed)
GENERATED = ((3, 2, 0), (4, 3, 1), (5, 4, 2), (6, 5, 3))
SAMPLE_COMMANDS = ("check-convexity", "enumerate-permutations", "count-components")
# code objects of comprehensions run as part of the function around them
_INLINE = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _code_objects(path: Path):
    """Every code object compiled from ``path``: the module's and those
    nested in it."""
    stack, out = [compile(path.read_text(), str(path), "exec")], []
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        out.append(code)
    return out


def _functions(path: Path):
    """(line, qualname) of every function body compiled from ``path``."""
    return [(code.co_firstlineno, code.co_qualname) for code in _code_objects(path)
            if code.co_flags & inspect.CO_OPTIMIZED and code.co_name not in _INLINE]


def _executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold bytecode."""
    return {line for code in _code_objects(path) for _, _, line in code.co_lines()
            if line is not None}


def _runs(invoke):
    """Every command run of the module docstring, through ``invoke(*args)``,
    which returns the run's standard output."""
    from linestab.cli import PRESET_NAMES

    for preset in PRESET_NAMES:
        scene = f"{preset}.json"
        Path(scene).write_text(invoke("generate-scene", "--preset", preset))
        for command in (*SAMPLE_COMMANDS, "probe-flex"):
            invoke(command, "--scene", scene)
        invoke("check-convexity", "--scene", scene, "--order-semantics", "entry")
        out = invoke("classify-boundary", "--scene", scene)
        rows = json.loads(out)["verdicts"]["classifications"]
        if rows:
            invoke("classify-boundary", "--scene", scene,
                   "--direction", ",".join(map(repr, rows[0]["direction"])))
        for chart in ("u1", "u2", "u3"):
            invoke("trace-curves", "--scene", scene, "--chart", chart)
        invoke("trace-curves", "--scene", scene, "--format", "svg")
    invoke("classify-boundary", "--scene", "flexdemo-disjoint.json", "--direction", "0.6,0,0.8",
           usage_error=True)
    for n, dim, seed in GENERATED:
        scene = f"generated-{dim}.json"
        Path(scene).write_text(invoke("generate-scene", "--with-transversal", "--n", str(n),
                                      "--dim", str(dim), "--seed", str(seed)))
        for command in SAMPLE_COMMANDS:
            invoke(command, "--scene", scene)
    invoke("generate-scene")
    for height in ([], ["--height", "1000000"]):
        invoke("verify-identities", "--trials", "5", *height)


@click.command()
@click.option("--src", type=click.Path(exists=True, file_okay=False), default=str(ROOT / "src"),
              show_default=True, help="source directory holding the linestab package")
def main(src):
    """Print the package's functions and lines that no CLI command runs."""
    package = Path(src).resolve() / "linestab"
    sys.path.insert(0, str(package.parent))
    from click.testing import CliRunner

    files = {str(p): p for p in sorted(package.glob("*.py"))}
    entered, ran = set(), set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))
            ran.add((code.co_filename, frame.f_lineno))
            return trace_lines

    def invoke(*args, usage_error=False):
        result = CliRunner().invoke(cli.main, list(args))
        if (result.exit_code == 2) != usage_error or result.exit_code not in (0, 1, 2, 3):
            raise click.ClickException(f"{' '.join(args)} exited {result.exit_code}:\n"
                                       f"{result.output}")
        return result.stdout

    here = os.getcwd()
    sys.settrace(trace)
    try:
        from linestab import cli

        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            _runs(invoke)
    finally:
        sys.settrace(None)
        os.chdir(here)
    functions, lines, n_functions, n_lines = [], [], 0, 0
    for filename, path in files.items():
        source = path.read_text().splitlines()
        executable = sorted(_executable_lines(path))
        n_lines += len(executable)
        lines += [(path.name, line, source[line - 1].strip())
                  for line in executable if (filename, line) not in ran]
        defined = sorted(_functions(path))
        n_functions += len(defined)
        for line, name in defined:
            if (filename, line, name) not in entered and not any(
                    name.startswith(f"{outer}.<locals>.") for _, _, outer in functions):
                functions.append((path.name, line, name))
    for name, line, qualname in functions:
        click.echo(f"{name}:{line} {qualname}")
    click.echo(f"{len(functions)} of {n_functions} functions not entered by any command")
    for name, line, text in lines:
        click.echo(f"{name}:{line}  {text}")
    click.echo(f"{len(lines)} of {n_lines} executable lines not run by any command")


if __name__ == "__main__":
    main()
