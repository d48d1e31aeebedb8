"""Harness self-test at a tiny size; run from the checkout root:

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
traced and untraced, on every workload; that a deliberately wrong reference
verdict raises the failure ratio and clears ``correct``; that a copy of the
program whose cone kernel reports every direction infeasible clears
``correct``; and that the benchmark refuses to run, without a result line,
in a directory holding only BENCHMARK.json and perfbench/.  Takes about two
minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads as W

TINY = {
    # the thin cones of the R^4 and R^5 scenes need the full sample budget
    "CONE_SWEEP_SHAPES": ((3, 3), (6, 3)), "SWEEP_SAMPLES": 500, "ACCEPTANCE_SAMPLES": 2000, "RANDOM_TRIPLES": 1,
    "TRACE_GRID": 40, "ENTRY_SAMPLES": 256, "ENTRY_PAIRS": 50,
    "IDENTITY_SEEDS": 1, "HEIGHT_SEEDS": 1, "IDENTITY_TRIALS": 5,
}


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        summary = run.run_workload(workload, seed=1, seconds=1, trace=True)
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(json.dumps(run.result_line(summary, spec, trace)))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want, (workload, group, set(want) ^ set(got))
            assert all(isinstance(v["value"], float) for v in line["metrics"].values())
        for m in spec["end_to_end"]:
            assert summary[m["name"]] > 0, (workload, m["name"])
        print(f"ok  {workload}: {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics with units")


def check_wrong_reference() -> None:
    base = run.run_workload("cone-sweep", seed=1, seconds=1, trace=False)
    build = W.build

    def wrong_build(workload, seed, work):
        ops = build(workload, seed, work)
        ops[-1]["exact"] = 3  # the two-permutations preset has 2 components
        return ops

    W.build = wrong_build
    try:
        bad = run.run_workload("cone-sweep", seed=1, seconds=1, trace=False)
    finally:
        W.build = build
    assert bad["fail_ratio"] > base["fail_ratio"], (bad["fail_ratio"], base["fail_ratio"])
    assert base["correct"] and not bad["correct"]
    print(f"ok  wrong reference: fail_ratio {base['fail_ratio']:.3f} -> {bad['fail_ratio']:.3f}")


KERNEL_ALL_INFEASIBLE = """

def minimax_slack_batch(centers, radii, U):
    return np.full(len(np.asarray(U)), np.inf)
"""


def check_infeasible_kernel() -> None:
    src = run.ROOT / ".perfbench_work" / "mutant" / "src"
    shutil.rmtree(src.parent, ignore_errors=True)
    shutil.copytree(run.ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    with (src / "linestab" / "cone.py").open("a") as fh:
        fh.write(KERNEL_ALL_INFEASIBLE)
    bad = run.run_workload("cone-sweep", seed=1, seconds=1, trace=False, src=src)
    assert not bad["correct"] and bad["fail_ratio"] == 1.0, (bad["correct"], bad["fail_ratio"])
    print(f"ok  kernel reporting every direction infeasible: correct false, "
          f"fail_ratio {bad['fail_ratio']:.3f}")


def check_refuses_without_sources() -> None:
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cone-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    for name, value in TINY.items():
        setattr(W, name, value)
    spec = run.load_spec()
    check_metrics(spec)
    check_wrong_reference()
    check_infeasible_kernel()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
