"""The benchmark's tracer finds every library name it probes.

``bench/tracer.py`` wraps functions and methods by module and attribute
name.  A helper renamed or deleted in ``src/qchar`` would otherwise
surface only as a failed traced benchmark run.  The tracer's source is
read and executed here, so nothing is written under ``bench/``.
"""

import types
from pathlib import Path

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


def _load_tracer():
    mod = types.ModuleType("tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(mod))
    return mod


def test_tracer_resolves_every_probe_and_restores_it():
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        with t:
            patched = {(owner, attr) for owner, attr, _ in t.patched}
            for mname, path, *_ in tracer.PROBES:
                owner, attr = tracer._resolve(t.mods[mname], path)
                assert (owner, attr) in patched, f"{mname}.{path}"
            for mname, attr, _ in tracer.GENERATORS:
                assert (t.mods[mname], attr) in patched, f"{mname}.{attr}"
            for mname, cls in tracer.REPORTS:
                assert (getattr(t.mods[mname], cls), "add") in patched, cls
    finally:
        # a probe that does not resolve stops __enter__ half way
        t.__exit__(None, None, None)
    assert t.unrestored() == []
