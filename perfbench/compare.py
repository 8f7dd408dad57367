"""Summarize or compare benchmark run records written by run.py.

    python3 perfbench/compare.py DIR            # spread of each metric in DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

Reads the untraced records (``*_trace0_*.json``) in each directory. For
each workload and end-to-end metric of BENCHMARK.json it prints the median
and quartiles, and the spread: the distance between the quartiles as a
share of the median, which must stay within the metric's bound.

Given two directories it also prints the change of the median and a
verdict. "worse" means the new median is worse than the base median by more
than the bound. "better" needs the new side to win at least nine tenths of
the seed-matched pairs and the medians to differ by more than the base
spread. "unresolved" means the base spread is wider than the bound, so the
bound cannot be judged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """workload -> metric -> {seed: value}, from correct untraced runs only."""
    out = defaultdict(lambda: defaultdict(dict))
    for path in sorted(Path(directory).glob("*_trace0_*.json")):
        with open(path) as f:
            rec = json.load(f)
        record, result = rec["record"], rec["result"]
        if record is None or not result["correct"]:
            print(f"skipping failed run {path.name}", file=sys.stderr)
            continue
        for name, m in result["metrics"].items():
            out[record["workload"]][name][record["seed"]] = m["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    runs = [load(d) for d in argv]
    worst = 0.0
    for wl in (w["name"] for w in spec["workloads"]):
        if not all(wl in r for r in runs):
            continue
        counts = "/".join(str(len(r[wl]["setup_s"])) for r in runs)
        print(f"== {wl} ({counts} runs)")
        for m in spec["end_to_end"]:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            cols = []
            for r in runs:
                vals = list(r[wl][name].values())
                q1, med, q3 = quartiles(vals)
                s = spread(vals)
                if name != "setup_s":
                    worst = max(worst, s / bound)
                cols.append(f"med {med:12.6g} [{q1:.6g}, {q3:.6g}] spread {s:6.3f}")
            line = f"  {name:18s} bound {bound:4.2f} | " + " | ".join(cols)
            if len(runs) == 2:
                line += " | " + verdict(runs[0][wl][name], runs[1][wl][name], bound, higher)
            print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def verdict(base, new, bound, higher):
    b, n = list(base.values()), list(new.values())
    mb, mn = statistics.median(b), statistics.median(n)
    change = (mn - mb) / mb
    worse = -change if higher else change
    text = f"change {change:+.3f}: "
    if worse > bound:
        return text + "worse"
    if spread(b) > bound:
        return text + "unresolved"
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum((y > x) if higher else (y < x) for x, y in pairs)
    q1, _, q3 = quartiles(b)
    if pairs and wins >= 0.9 * len(pairs) and abs(mn - mb) > q3 - q1:
        return text + f"better ({wins}/{len(pairs)} pairs)"
    return text + "same"


if __name__ == "__main__":
    sys.exit(main())
