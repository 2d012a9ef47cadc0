"""qchar benchmark: cold-process time to verdict for one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample starts a fresh child
interpreter (bench/child.py) that imports qchar from ``src/`` and runs
one verification suite; one child runs at a time (a closed loop with a
single client).  With ``--trace 0`` the run first starts SETUP_PROBES
children that only import qchar, then repeats full samples
while the next one, judged by the longest so far, would end within S
seconds (always at least one), and reports the end-to-end metrics as
medians.  Times are scaled to the reference speed of the machine-speed
probe (bench/pace.py).  With ``--trace 1`` it runs one untraced and one
traced sample and reports the per-layer metrics of the traced one.

Every sample passes the output gate or counts as failed: all checks ok,
the recorded number of checks, and the recorded report digest.  The
last line of stdout is the result object; the lines before it and
``bench/out/`` hold the environment, each sample and, for a traced run,
the per-check durations.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import MINIATURES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
# A run must end within 180 s; no sample starts unless it should end
# before RUN_LIMIT_S, judged by the longest sample so far.
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = {"verdict_s": "s", "verdict_cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "checks_run": "count", "ok_ratio": "ratio"}


def now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qchar").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit(),
            "source_sha256": src.hexdigest(), "seed": seed,
            "started": now()}


def sample(workload: str, seed: int, mode: str, miniature: bool,
           timeout: float) -> dict:
    """Start one child, wait for it and return its record."""
    tag = "-mini" if miniature else ""
    checks_out = OUT / f"checks-{workload}{tag}-seed{seed}.json"
    # The hash seed follows the workload seed: runs at one seed are
    # repeatable, and a sweep over seeds covers the string-hash orders
    # a verdict's speed can depend on (series-d5 ran at two speeds under
    # random hash seeds).
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(seed % 2**32))
    started = now()
    spec = {"workload": workload, "miniature": miniature, "seed": seed,
            "mode": mode, "checks_out": str(checks_out)}
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "started": started,
                "error": f"child timed out after {timeout:.0f} s"}
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"error": f"child exited with {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}"}
    rec.update(mode=mode, started=started)
    if not rec.get("error") and not rec["qchar"].startswith(
            str(ROOT / "src")):
        rec["error"] = f"imported qchar from {rec['qchar']}, not src/"
    if mode == "traced":
        rec["checks_out"] = str(checks_out.relative_to(ROOT))
    return rec


def gate(rec: dict, expected) -> list:
    """Reasons the sample's output is wrong; empty when it is right."""
    if rec.get("error"):
        return [rec["error"]]
    problems = []
    if not rec["all_ok"]:
        problems.append("a check failed")
    if rec["checks_run"] != expected.checks:
        problems.append(f"{rec['checks_run']} checks, "
                        f"expected {expected.checks}")
    if rec["digest"] != expected.digest:
        problems.append("report digest differs from the recorded one")
    if rec.get("unrestored"):
        problems.append(f"tracer left patched: {rec['unrestored']}")
    return problems


def untraced_run(name, seed, seconds, miniature) -> tuple[dict, list]:
    expected = (MINIATURES if miniature else WORKLOADS)[name]
    start = time.monotonic()
    setups = [sample(name, seed, "setup", miniature, 30.0)
              for _ in range(SETUP_PROBES)]
    samples: list = []
    longest = 0.0
    while True:
        t = time.monotonic()
        rec = sample(name, seed, "untraced", miniature,
                     min(CHILD_TIMEOUT_S, RUN_LIMIT_S - (t - start)))
        longest = max(longest, time.monotonic() - t)
        rec["problems"] = gate(rec, expected)
        samples.append(rec)
        elapsed = time.monotonic() - start
        if elapsed + longest > min(seconds, RUN_LIMIT_S):
            break
    passed = [r for r in samples if not r["problems"]]
    values = {"setup_s": statistics.median(
        r["setup_s"] for r in setups + samples if "setup_s" in r)}
    # A sample that fails the gate is never timed; with none passed the
    # timed metrics read 0.
    for key in ("verdict_s", "verdict_cpu_s", "peak_rss_mb", "checks_run"):
        if passed:
            values[key] = statistics.median(r[key] for r in passed)
    values["ok_ratio"] = len(passed) / len(samples)
    metrics = {k: {"value": values.get(k, 0.0), "unit": u}
               for k, u in END_TO_END.items()}
    return metrics, setups + samples


def traced_run(name, seed, miniature) -> tuple[dict, list]:
    expected = (MINIATURES if miniature else WORKLOADS)[name]
    plain = sample(name, seed, "untraced", miniature, CHILD_TIMEOUT_S / 2)
    traced = sample(name, seed, "traced", miniature, CHILD_TIMEOUT_S / 2)
    for rec in (plain, traced):
        rec["problems"] = gate(rec, expected)
    values = dict(traced.get("layers", {}))
    if "verdict_s" in plain and "verdict_s" in traced:
        values["trace.overhead_ratio"] = (traced["verdict_s"]
                                          / plain["verdict_s"])
        values["machine.speed"] = plain["speed"]
        values["machine.verdict_wall_s"] = plain["verdict_wall_s"]
    metrics = {k: {"value": values.get(k, 0), "unit": u}
               for k, u in LAYER_METRICS.items()}
    return metrics, [plain, traced]


def run(name: str, seed: int, seconds: float, trace: bool,
        miniature: bool = False) -> dict:
    """One benchmark run; returns the full record, whose ``result`` is
    the object the last output line carries."""
    env = environment(seed)
    OUT.mkdir(exist_ok=True)
    if trace:
        metrics, samples = traced_run(name, seed, miniature)
    else:
        metrics, samples = untraced_run(name, seed, seconds, miniature)
    timed = [r for r in samples if r["mode"] != "setup"]
    failed = sum(1 for r in timed if r["problems"])
    setup_ok = not any(r.get("error") for r in samples
                       if r["mode"] == "setup")
    # A traced verdict must reproduce the untraced report exactly.
    same = len({r.get("digest") for r in timed}) == 1
    result = {"correct": failed == 0 and setup_ok and same,
              "attempted": len(timed), "failed": failed, "metrics": metrics}
    record = {"workload": name, "trace": trace, "miniature": miniature,
              "environment": env, "samples": samples, "result": result}
    tag = "-mini" if miniature else ""
    with open(OUT / f"run-{name}{tag}-seed{seed}-trace{int(trace)}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qchar" / "__init__.py").is_file():
        print(f"error: no qchar sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": record["environment"]}))
    for rec in record["samples"]:
        brief = {k: rec.get(k) for k in (
            "mode", "started", "setup_s", "setup_wall_s", "verdict_s",
            "verdict_wall_s", "verdict_cpu_s", "speed", "probe_ticks",
            "peak_rss_mb", "checks_run", "problems") if k in rec}
        print(json.dumps(brief))
    result = record["result"]
    if not result["correct"]:
        print("output gate failed; see bench/out/", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
