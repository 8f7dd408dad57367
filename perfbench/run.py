"""modrec benchmark: run workloads in fresh child processes and report.

    python3 perfbench/run.py --workload train-imt --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, untraced and traced

BENCHMARK.json at the checkout root lists the workloads and the metrics
with their units; this script prints exactly those metrics. With one
--workload the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every output check passed. Every run also writes its full record (machine,
flat config, metrics, checks, op profile) to --out.

Exits with code 2, printing no result, when the checkout holds no
``src/modrec`` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_child(workload, seed, seconds, trace, out_dir):
    """One workload in a fresh process; returns its parsed record or None."""
    stamp = f"{workload}_seed{seed}_trace{trace}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(out_dir / f"{stamp}_spans.npz")]
    # One BLAS thread: the benchmark is a closed loop with one caller, and
    # pinning keeps timings and results independent of the machine's cores.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, stamp, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, stamp, f"worker exited with code {proc.returncode}"
    try:
        return json.loads(lines[-1]), stamp, None
    except json.JSONDecodeError:
        return None, stamp, "worker printed no JSON result"


def finish(spec, trace, record, error):
    """Check a worker record against the spec; returns the JSON result line."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = [error] if error else []
    metrics = {}
    if record is None:
        attempted, failed = 1, 1
    else:
        attempted, failed = record["attempted"], record["failed"]
        problems += record["problems"]
        if record["machine"]["modrec_path"] != str(SRC / "modrec"):
            problems.append(f"measured modrec at {record['machine']['modrec_path']}, not {SRC}")
        got = record["metrics"]
        for m in wanted:
            name = m["name"]
            # A primitive that a later change removes reads as never called.
            value = got.get(name, 0 if name.startswith("numerics.op.") else None)
            if value is None:
                problems.append(f"metric {name} missing")
                continue
            if not math.isfinite(value) or (not trace and value <= 0):
                problems.append(f"metric {name} = {value}: not finite and positive")
            metrics[name] = {"value": value, "unit": m["unit"]}
    if problems and failed == 0:
        failed = attempted  # a failed check fails the run's operations
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}, problems


def describe(workload, seed, trace, record, result, problems):
    """Human-readable lines for one run."""
    head = (f"== {workload} seed {seed} {'traced' if trace else 'untraced'}: "
            f"attempted {result['attempted']}, failed {result['failed']} "
            f"(failed_frac {result['failed'] / result['attempted']:.4f}), "
            f"correct {result['correct']}")
    lines = [head]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if record is not None:
        info = record["info"]
        lines.append("  " + ", ".join(f"{k}={v}" for k, v in info.items()))
        mach = record["machine"]
        lines.append("  machine: " + ", ".join(f"{k}={v}" for k, v in mach.items()))
        if trace:
            lines += op_table(record["metrics"])
    lines += [f"  PROBLEM: {p}" for p in problems]
    return lines


def op_table(metrics, top=15):
    """Primitives ranked by self time (forward + backward) per main call."""
    ops = sorted({k.split(".")[2] for k in metrics if k.startswith("numerics.op.")})
    rows = []
    for op in ops:
        fwd = metrics.get(f"numerics.op.{op}.s", 0.0)
        bwd = metrics.get(f"numerics.op.{op}.bwd_s", 0.0)
        calls = metrics.get(f"numerics.op.{op}.calls", 0)
        rows.append((fwd + bwd, op, calls, fwd, bwd))
    rows.sort(reverse=True)
    out = [f"  {'primitive':18s} {'calls':>9s} {'fwd self s':>11s} {'bwd self s':>11s}"]
    for total, op, calls, fwd, bwd in rows[:top]:
        out.append(f"  {op:18s} {calls:9.0f} {fwd:11.4f} {bwd:11.4f}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="modrec benchmark")
    ap.add_argument("--workload", default="all",
                    help="one workload name from BENCHMARK.json, or 'all' (default)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: traced per-layer metrics "
                         "(default: 0 for one workload, both for 'all')")
    ap.add_argument("--out", default=str(HERE / "out"), help="directory for run records")
    args = ap.parse_args(argv)

    if not (SRC / "modrec" / "__init__.py").is_file():
        print(f"error: no modrec sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        print(f"error: unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    traces = [args.trace] if args.trace is not None else ([0, 1] if args.workload == "all" else [0])
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for workload in workloads:
        for trace in traces:
            record, stamp, error = run_child(workload, args.seed, seconds, trace, out_dir)
            result, problems = finish(spec, trace, record, error)
            print("\n".join(describe(workload, args.seed, trace, record, result, problems)),
                  flush=True)
            with open(out_dir / f"{stamp}.json", "w") as f:
                json.dump({"result": result, "problems": problems, "record": record},
                          f, indent=1, sort_keys=True)
            results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
