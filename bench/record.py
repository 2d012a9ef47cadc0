"""Repeat benchmark runs over seeds and summarise their spread.

    python3 bench/record.py --seeds 1-10 --out bench/results/NAME.json
        [--traced 2]

Runs ``bench/run.py`` once per (seed, workload) for every workload of
BENCHMARK.json, each for its ``run_seconds``, round-robin over the
workloads rather than in blocks, so slow drift of the machine spreads
over every workload alike.  ``--traced K`` then adds K traced runs of
each workload at the first seed.  For every end-to-end metric the
summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median (``spread``), the figure the metric's bound is checked
against.  Traced runs are summarised by their per-layer values and
whether the per-layer counts repeated exactly, and each keeps its
per-check durations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"with {proc.returncode}: {proc.stderr[-2000:]}")
    env = json.loads(lines[0])["environment"]
    samples = [json.loads(line) for line in lines[1:-1]]
    out = {"workload": workload, "seed": seed, "trace": trace,
           "environment": env, "samples": samples,
           "result": json.loads(lines[-1])}
    if trace:
        durations = BENCH / "out" / f"checks-{workload}-seed{seed}.json"
        out["check_durations"] = json.loads(durations.read_text())
    return out


def spread(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def summarise(runs: list) -> dict:
    out: dict = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        plain = [r["result"] for r in mine if not r["trace"]]
        traced = [r["result"] for r in mine if r["trace"]]
        entry: dict = {"runs": len(plain),
                       "all_correct": all(r["correct"] for r in plain)}
        if len(plain) >= 2:
            entry["metrics"] = {
                k: spread([r["metrics"][k]["value"] for r in plain])
                for k in plain[0]["metrics"]}
        if traced:
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] == "count"} for r in traced]
            entry["traced"] = {
                "runs": len(traced),
                "all_correct": all(r["correct"] for r in traced),
                "counts_repeat": all(c == counts[0] for c in counts),
                "layers": traced[0]["metrics"]}
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        for name in names:
            runs.append(bench_run(name, seed, seconds, 0))
            m = runs[-1]["result"]["metrics"]
            print(name, seed, {k: round(v["value"], 4)
                               for k, v in m.items()}, flush=True)
    for _ in range(args.traced):
        for name in names:
            runs.append(bench_run(name, args.seeds[0], seconds, 1))
            print(name, "traced", runs[-1]["result"]["correct"], flush=True)
    summary = summarise(runs)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seconds": seconds, "summary": summary, "runs": runs},
        indent=1) + "\n")
    for name, entry in summary.items():
        for k, s in entry.get("metrics", {}).items():
            print(f"{name:12} {k:14} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
