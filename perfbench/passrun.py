"""One workload pass in a fresh interpreter.

Usage: python3 perfbench/passrun.py SRC OPS_JSON RESULT_JSON [SPANS_JSONL]

Imports ``linestab.cli`` from the source directory SRC and runs every op of
OPS_JSON through the click entry point, in process, one after another with
no think time.  The speed probe (perfbench/probe.py) runs before the first
op and after each op.  Garbage is collected, untimed, before each probe, so
that every op starts from a collected heap and pays only for its own garbage.  Each op's report file is deleted before the op runs,
so that a report is never left over from an earlier pass.  Writes each op's
wall time and exit code, the probe times, the pass's peak RSS and, when
SPANS_JSONL is given, the traced per-layer figures to RESULT_JSON; the spans
themselves go to SPANS_JSONL.
"""
from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def invoke(main, argv) -> int | None:
    """Exit code of one CLI invocation; None when it raised a traceback."""
    import click

    try:
        main.main(args=argv, prog_name="linestab", standalone_mode=False)
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except click.ClickException as exc:
        return exc.exit_code
    except Exception:
        traceback.print_exc()
        return None


def main(argv) -> int:
    src, ops_path, out_path = Path(argv[0]).resolve(), Path(argv[1]), Path(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import linestab.cli as cli
    from probe import probe

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"linestab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = json.loads(ops_path.read_text())
    results = []
    gc.collect()
    probes = [probe()]
    for op in ops:
        argv_op = [op["command"], *op["args"]]
        Path(argv_op[argv_op.index("--out") + 1]).unlink(missing_ok=True)
        run = invoke
        if tracer is not None:
            tracer.op = op["id"]
            run = tracer.span("cli." + op["command"], invoke)
        t0 = perf_counter()
        code = run(cli.main, argv_op)
        results.append({"id": op["id"], "seconds": perf_counter() - t0, "exit": code})
        gc.collect()
        probes.append(probe())
    out = {
        "ops": results,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        out["layers"] = tracer.layer_metrics()
    out_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
