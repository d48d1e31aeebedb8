"""linestab benchmark: closed-loop CLI workloads with reference verdicts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cone-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table each
    python3 perfbench/selftest.py                         # harness self-test, tiny size

One client runs the workload's ops one after another with no think time.
Each pass runs in a fresh interpreter (perfbench/passrun.py) that imports
``linestab.cli`` from ``src/`` and invokes the click entry point in process;
passes run one at a time, and BLAS is capped at one thread through
``LINESTAB_THREADS=1``.  Every op's exit code and verdict is checked against
the reference of perfbench/workloads.py.

``--trace 0`` runs one pass for every ``PASS_SECONDS`` of ``--seconds`` (one
at least; the count never depends on how fast the machine is) and prints the
end-to-end metrics of BENCHMARK.json:

``setup_s``                 median start-up time, ``linestab --help`` in a
                            fresh interpreter, taken half before and half
                            after the passes, in probes (below) times
                            ``REFERENCE_PROBE_S``: the start-up time on a
                            machine where the probe takes 50 ms;
``wall_probes``             the pass's op time in probes (below);
``verdict_geomean_probes``  geometric mean time-to-verdict of the ops whose
                            verdict matched the reference, in probes;
``peak_rss_mb``             peak memory of the pass process.

A probe is one run of perfbench/probe.py, a fixed piece of work timed just
before and after every op and every start-up; an op's time in probes is its
seconds divided by the mean of those two probe times, so that most of the
machine's changes of speed cancel.  The times in seconds as measured
(``setup_wall_s``, ``wall_s``, ``verdict_geomean_s``), the probe time itself
and the per-command medians are per-layer metrics and are printed in the
table.  ``--trace 1``
runs one untraced and one traced pass and prints the per-layer metrics.  The
last line of standard output is the JSON result.  Spans, the run record and
the raw pass results go to ``.perfbench_work/``.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from probe import probe  # noqa: E402

COMMANDS = (
    "check-convexity", "enumerate-permutations", "count-components",
    "probe-flex", "trace-curves", "classify-boundary", "verify-identities",
)
SETUP_REPEATS = 4  # start-ups before the passes and again after them
PASS_SECONDS = 15.0
REFERENCE_PROBE_S = 0.05
RUN_TIMEOUT_S = 170.0


def command_metric(command: str) -> str:
    return command.replace("-", "_") + "_s"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("LINESTAB_TOL", None)
    env["LINESTAB_THREADS"] = "1"
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child process to completion within the run's deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run deadline reached")
    return subprocess.run(args, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def start_ups(env: dict, deadline: float, count: int) -> list[tuple[float, float]]:
    """Start-up times, each with the mean of the probe times around it.

    A start-up is a fresh interpreter that imports the CLI and answers --help.
    """
    cmd = [sys.executable, "-m", "linestab.cli", "--help"]
    times = []
    before = probe()
    for _ in range(count):
        t0 = time.perf_counter()
        proc = run_child(cmd, env, deadline)
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or "Usage:" not in proc.stdout:
            raise RuntimeError(f"linestab --help failed: {proc.stderr.strip()[-400:]}")
        after = probe()
        times.append((dt, 0.5 * (before + after)))
        before = after
    return times


def import_breakdown(env: dict, deadline: float) -> dict:
    """Import times from ``python -X importtime`` of the same start-up."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import linestab.cli"], env, deadline)
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)", line)
        if m:
            entries.append(((len(m.group(3)) - 1) // 2, m.group(4), int(m.group(2)) * 1e-6))
    out = {"cli.import_s": 0.0, "cli.import.scipy_s": 0.0, "cli.import.numpy_s": 0.0}
    for k, (depth, name, cum) in enumerate(entries):
        if depth == 0 and name == "linestab.cli":
            out["cli.import_s"] = cum
        top = name.split(".")[0]
        if top not in ("scipy", "numpy"):
            continue
        # entries are listed children first; the parent is the next one a level up
        parent = next((n for d, n, _ in entries[k + 1:] if d == depth - 1), "")
        if parent.split(".")[0] != top:
            out[f"cli.import.{top}_s"] += cum
    return out


def run_pass(work: Path, src: Path, tag: str, env: dict, deadline: float, traced: bool) -> dict:
    result = work / f"pass-{tag}.json"
    args = [sys.executable, str(HERE / "passrun.py"), str(src), str(work / "ops.json"), str(result)]
    if traced:
        args.append(str(work / "spans.jsonl"))
    proc = run_child(args, env, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed ({proc.returncode}): {proc.stderr.strip()[-800:]}")
    return json.loads(result.read_text())


def judge(ops: list[dict], res: dict) -> list[dict]:
    """Each op's outcome class and its time in probes, in op order."""
    rows = []
    probes = res["probes"]
    for k, (op, r) in enumerate(zip(ops, res["ops"])):
        cls, detail = W.check(op, r["exit"], W.load_report(op))
        rows.append({**r, "command": op["command"], "class": cls, "detail": detail,
                     "probes": 2.0 * r["seconds"] / (probes[k] + probes[k + 1])})
    return rows


def run_record(workload: str, seed: int) -> dict:
    def git(*args):
        if not (ROOT / ".git").exists():
            return None
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    status = git("status", "--porcelain")
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": 1,
    }


def command_times(rows_per_pass: list[list[dict]]) -> dict:
    """Median wall time of each command's successful ops, and their count."""
    out = {}
    for command in COMMANDS:
        times = [r["seconds"] for rows in rows_per_pass for r in rows
                 if r["command"] == command and r["class"] == "ok"]
        out[command] = (statistics.median(times) if times else 0.0, len(times))
    return out


def geomean(values: list[float]) -> float:
    # the geometric mean weighs a 10 ms op and a 2 s op alike and, unlike a
    # median over a dozen unlike ops, does not jump from one op to another
    return statistics.geometric_mean(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 src: Path = ROOT / "src") -> dict:
    """Run one workload and return its summary; ``src`` holds the linestab package."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    ops = W.build(workload, seed, work)
    (work / "ops.json").write_text(json.dumps(ops, indent=1))
    env = child_env(src)
    record = run_record(workload, seed)
    (work / "record.json").write_text(json.dumps(record, indent=1))

    # the first start-up fills the bytecode and file caches and is not counted
    setup = start_ups(env, deadline, SETUP_REPEATS + 1)[1:]
    imports = import_breakdown(env, deadline) if trace else {}
    passes = 1 if trace else max(1, round(seconds / PASS_SECONDS))
    plain = []
    for k in range(passes):
        res = run_pass(work, src, f"{k}", env, deadline, traced=False)
        plain.append((res, judge(ops, res)))
    setup += start_ups(env, deadline, SETUP_REPEATS)

    rows = [r for _, rs in plain for r in rs]
    wrong = [r for r in rows if r["class"] == "wrong"]
    failed = [r for r in rows if r["class"] != "ok"]
    times = command_times([rs for _, rs in plain])
    ok = [r for r in rows if r["class"] == "ok"]
    summary = {
        "record": record,
        "correct": not wrong,
        "attempted": len(rows),
        "failed": len(failed),
        "setup_s": REFERENCE_PROBE_S * statistics.median([dt / p for dt, p in setup]),
        "wall_probes": statistics.median([sum(r["probes"] for r in rs) for _, rs in plain]),
        "verdict_geomean_probes": geomean([r["probes"] for r in ok]),
        "peak_rss_mb": statistics.median([res["peak_rss_mb"] for res, _ in plain]),
        "wall_s": statistics.median([sum(r["seconds"] for r in rs) for _, rs in plain]),
        "setup_wall_s": statistics.median([dt for dt, _ in setup]),
        "verdict_geomean_s": geomean([r["seconds"] for r in ok]),
        "probe_ms": 1e3 * statistics.median([p for res, _ in plain for p in res["probes"]]),
        "fail_ratio": len(failed) / len(rows),
        "commands": times,
        "passes": len(plain),
        "failures": sorted({f"{r['command']} op {r['id']}: {r['detail']}" for r in failed}),
    }
    if trace:
        traced = run_pass(work, src, "traced", env, deadline, traced=True)
        traced_rows = judge(ops, traced)
        # the tracer must not change a verdict
        summary["correct"] = summary["correct"] and all(r["class"] != "wrong" for r in traced_rows)
        traced_probes = sum(r["probes"] for r in traced_rows)
        layers = dict(imports)
        layers.update(traced["layers"])
        layers["trace.overhead_ratio"] = traced_probes / summary["wall_probes"] - 1.0
        for name in ("setup_wall_s", "wall_s", "verdict_geomean_s", "probe_ms", "fail_ratio"):
            layers[name] = summary[name]
        for command, (t, n) in times.items():
            layers[command_metric(command)] = t
            layers[command.replace("-", "_") + ".ops"] = n
        summary["layers"] = layers
    (work / "summary.json").write_text(json.dumps(summary, indent=1))
    return summary


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(summary: dict, spec: dict, trace: bool) -> dict:
    source = summary["layers"] if trace else summary
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]}
                    for m in group},
    }


def print_table(workload: str, summary: dict) -> None:
    out = sys.stdout
    out.write(f"== {workload}  seed {summary['record']['seed']}  passes {summary['passes']}\n")
    for name, unit in (("setup_s", "s"), ("wall_probes", "probe"),
                       ("verdict_geomean_probes", "probe"), ("peak_rss_mb", "MB"),
                       ("setup_wall_s", "s"), ("wall_s", "s"), ("verdict_geomean_s", "s"),
                       ("probe_ms", "ms")):
        out.write(f"  {name:28s} {summary[name]:12.4f} {unit}\n")
    out.write(f"  {'fail_ratio':28s} {summary['fail_ratio']:12.4f} ratio"
              f"  ({summary['failed']} of {summary['attempted']} ops)\n")
    for command, (t, n) in summary["commands"].items():
        value = f"{t:12.4f} s   ({n} ops)" if n else f"{'-':>12s}     (0 ops)"
        out.write(f"  {command_metric(command):28s} {value}\n")
    for line in summary["failures"]:
        out.write(f"  failed: {line}\n")
    out.write(f"  record: {json.dumps(summary['record'])}\n")
    out.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "linestab" / "cli.py").is_file():
        print(f"no linestab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2
    results = {}
    try:
        for workload in chosen:
            summary = run_workload(workload, args.seed, seconds, bool(args.trace))
            print_table(workload, summary)
            results[workload] = result_line(summary, spec, bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[chosen[0]] if len(chosen) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
