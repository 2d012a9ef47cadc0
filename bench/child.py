"""One cold verdict in a fresh interpreter; started by run.py.

argv[1] is a JSON spec with the keys ``workload``, ``miniature``,
``seed``, ``mode`` ("setup", "untraced" or "traced"), ``spawned`` (the
parent's ``time.monotonic()`` just before it started this process) and
``checks_out`` (where a traced verdict writes its per-check durations).
The child prints one JSON object on stdout.

setup_s runs from ``spawned`` until every qchar module is imported and
the workload is looked up.  On Linux ``time.monotonic`` reads one clock for
all processes, so the parent's and the child's readings compare.

Every time is reported twice: as measured (``setup_wall_s``,
``verdict_wall_s``, ``verdict_cpu_raw_s``) and scaled to the reference
speed of ``pace.py`` (``setup_s``, ``verdict_s``, ``verdict_cpu_s``).
Set-up and the verdict, traced or not, run under the speed probe, whose
own time is taken out of theirs.  In a traced verdict the probe's ticks
fall inside the spans, about 4 % of their time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback

import pace
from tracer import MODULES, Tracer
from workloads import MINIATURES, WORKLOADS, report_digest


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def verdict(kind: str, inputs: tuple) -> list:
    """Run the workload's first (and only) library call; return the
    report's check list."""
    if kind == "tsystem":
        from qchar import characters
        return characters.verify_tsystem(*inputs).checks
    from qchar import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*inputs, "--format", "json"])
    if code not in (0, 1):
        raise RuntimeError(f"qchar {' '.join(inputs)} exited with {code}")
    return json.loads(buf.getvalue())["checks"]


def setup(spec: dict) -> tuple:
    """Import every qchar module and look up the workload under the
    speed probe, sampling often enough to cover so short an interval."""
    with pace.SpeedProbe(pace.SETUP_INTERVAL_S) as probe:
        qchar = importlib.import_module("qchar")
        for name in MODULES:
            importlib.import_module(f"qchar.{name}")
        table = MINIATURES if spec["miniature"] else WORKLOADS
        wl = table[spec["workload"]]
    wall = time.monotonic() - spec["spawned"] - probe.busy_s
    return wl, {"setup_wall_s": wall, "setup_s": wall * probe.speed(),
                        "qchar": qchar.__file__}


def main(spec: dict) -> dict:
    wl, out = setup(spec)
    if spec["mode"] == "setup":
        return out
    traced = spec["mode"] == "traced"
    tracer = Tracer() if traced else contextlib.nullcontext()
    checks, error = [], None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with pace.SpeedProbe() as probe, tracer:
            checks = verdict(wl.kind, wl.args)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - t0 - probe.busy_s
    cpu = _cpu_s() - cpu0 - probe.busy_s
    speed = probe.speed()
    out.update(verdict_wall_s=wall, verdict_cpu_raw_s=cpu, speed=speed,
               probe_ticks=len(probe.timings), verdict_s=wall * speed,
               verdict_cpu_s=cpu * speed)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out.update(checks_run=len(checks), digest=report_digest(checks),
               all_ok=all(c["ok"] for c in checks), error=error)
    if traced:
        out["unrestored"] = tracer.unrestored()
        out["layers"] = tracer.layer_values()
        durations = tracer.check_durations(t0, checks)
        with open(spec["checks_out"], "w") as fh:
            json.dump({"workload": wl.name, "seed": spec["seed"],
                       "slowest": max(durations, default=None,
                                      key=lambda d: d["seconds"]),
                       "checks": durations}, fh, indent=1)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
