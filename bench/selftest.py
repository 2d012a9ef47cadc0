"""Self-test of the benchmark harness on miniatures of every workload.

    python3 bench/selftest.py

Runs each workload's rank-2 miniature (see workloads.MINIATURES) once
untraced and once traced, through the same code as a benchmark run, and
asserts that

* every metric named in BENCHMARK.json is emitted, with its unit, and
  no other;
* the output gate passes, and the traced and untraced report digests
  are equal;
* every binding the tracer patched holds its original object again
  (checked in the traced child, and here in-process against a snapshot
  of every qchar module and class);
* per-layer counts repeat exactly across two traced runs.

Exits 0 when every assertion holds and prints each failure otherwise.
"""

from __future__ import annotations

import json
import sys

import run
from tracer import Tracer

sys.path.insert(0, str(run.ROOT / "src"))


def metric_units(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def snapshot(mods: dict) -> dict:
    """(owner name, attribute) -> object for every qchar module global
    and every attribute of the classes the modules define."""
    out = {}
    for mod in mods.values():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(f"{mod.__name__}.{attr}", cattr)] = cvalue
    return out


def in_process_restore(failures: list) -> None:
    import child  # noqa: F401  (imports every qchar module)
    wl = run.MINIATURES["tsystem-r2"]
    tracer = Tracer()
    before = snapshot(tracer.mods)
    with tracer:
        child.verdict(wl.kind, wl.args)
    after = snapshot(tracer.mods)
    changed = sorted(k for k in before if after.get(k) is not before[k])
    if changed or not tracer.patched:
        failures.append(f"in-process restore: changed {changed}, "
                        f"{len(tracer.patched)} bindings patched")


def main() -> int:
    failures: list = []
    e2e, layer = metric_units("end_to_end"), metric_units("per_layer")
    for name in run.MINIATURES:
        plain = run.run(name, 7, 0, trace=False, miniature=True)
        traced = [run.run(name, 7, 0, trace=True, miniature=True)
                  for _ in range(2)]
        for rec, want in ((plain, e2e), (traced[0], layer)):
            result = rec["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name}: emitted {got}, declared {want}")
            if not result["correct"]:
                problems = [r.get("problems") for r in rec["samples"]]
                failures.append(f"{name}: gate failed: {problems}")
        digests = {r.get("digest") for rec in [plain] + traced
                   for r in rec["samples"] if r["mode"] != "setup"}
        if len(digests) != 1:
            failures.append(f"{name}: digests differ: {digests}")
        for rec in traced:
            left = rec["samples"][1].get("unrestored")
            if left != []:
                failures.append(f"{name}: traced child left {left}")
        counts = [{k: v["value"] for k, v in rec["result"]["metrics"].items()
                   if v["unit"] == "count"} for rec in traced]
        if counts[0] != counts[1]:
            failures.append(f"{name}: per-layer counts differ between "
                            f"traced runs: {counts}")
    in_process_restore(failures)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
