"""Per-layer tracing of the qchar modules, patched in from outside.

The tracer wraps public functions and methods of each ``src/qchar``
module for the length of one traced verdict and restores every binding
afterwards; the library itself carries no tracing code.  A wrapper is
installed on every binding that holds the original object, so a call
through ``characters.acc_product`` or ``casorati.det_frac`` (names
imported from another module) is seen as well as one through the
defining module.

Each wrapped call is a span.  A span's self time is its duration minus
the time covered by the spans it encloses; an inclusive timer (the
``*_s`` metrics without ``self``) counts only the outermost span of its
key, so recursion and cache hits are not counted twice.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("ring", "tableaux", "characters", "diffop", "screening",
           "classical", "casorati", "bd", "cli")


def _terms(p) -> int:
    return p.n_terms if hasattr(p, "n_terms") else 1


def _mul_pairs(t, args, result):
    a, b = args
    t.count["ring.mul_term_pairs"] += _terms(a) * _terms(b)
    t.peak(_terms(result))


def _add_copied(t, args, result):
    # __add__ copies the left operand's whole term dict before merging.
    t.count["ring.add_terms_copied"] += _terms(args[0])
    t.peak(_terms(result))


def _acc_pairs(t, args, result):
    acc, a, b = args[:3]
    t.count["ring.acc_product_term_pairs"] += a.n_terms * b.n_terms
    t.peak(len(acc))


def _rows(t, args, result):
    t.count["tableaux.rows_enumerated"] += len(result)


def _columns(t, args, result):
    t.count["tableaux.columns_enumerated"] += len(result)


def _screened(t, args, result):
    t.count["screening.terms_screened"] += args[1].n_terms


def _det_ops(t, args, result):
    t.count["classical.det_frac_ops"] += len(args[0]) ** 3


# (module, attribute, span key, counter hook, inclusive keys).  The span
# key names the self-time and call counters; the inclusive keys name
# outermost-only wall-time totals.
PROBES = (
    ("ring", "LaurentPoly.__mul__", "ring.mul", _mul_pairs, ()),
    ("ring", "LaurentPoly.__add__", "ring.add", _add_copied, ()),
    ("ring", "LaurentPoly.shift", "ring.shift", None, ()),
    ("ring", "LaurentPoly.to_q", "ring.to_q", None, ()),
    ("ring", "LaurentPoly.eval_rational", "ring.eval_rational", None, ()),
    ("ring", "acc_product", "ring.acc_product", _acc_pairs, ()),
    ("tableaux", "gen_row_tableaux", "tableaux.enum", _rows, ()),
    ("tableaux", "gen_column_tableaux", "tableaux.enum", _columns, ()),
    ("tableaux", "tableau_weight", "tableaux.weight", None, ()),
    ("characters", "row_poly", "characters.build", None,
     ("characters.row_poly",)),
    ("characters", "fundamental_poly", "characters.build", None,
     ("characters.fundamental_poly",)),
    ("characters", "rect_poly", "characters.build", None,
     ("characters.rect_poly",)),
    ("characters", "det", "characters.det", None, ()),
    ("characters", "pfaffian", "characters.pfaffian", None, ()),
    ("characters", "verify_tsystem", "characters.verify", None, ()),
    ("characters", "_bilinear_zero", "characters.verify", None, ()),
    ("characters", "verify_tt_tq", "characters.verify", None, ()),
    ("diffop", "DiffOp.__mul__", "diffop.mul", None, ()),
    ("diffop", "DiffOp.inverse_series", "diffop.inverse_series", None, ()),
    ("diffop", "prod", "diffop.prod", None, ("diffop.build",)),
    ("diffop", "build_L_C", "diffop.prod", None, ("diffop.build",)),
    ("diffop", "build_Lj_C", "diffop.prod", None, ("diffop.build",)),
    ("screening", "apply_screening", "screening.apply", _screened, ()),
    ("screening", "canonicalize", "screening.canonicalize", None, ()),
    ("screening", "in_kernel", "screening.in_kernel", None, ()),
    ("classical", "det_frac", "classical.det_frac", _det_ops, ()),
    ("casorati", "build_grid", "casorati.build_grid", None,
     ("casorati.basis_build",)),
    ("casorati", "TriangularBasis.casorati", "casorati.casorati", None, ()),
    ("casorati", "QAssignment.eval", "casorati.qa_eval", None, ()),
    ("bd", "build_series_L", "bd.build_series_L", None,
     ("bd.build_series_L",)),
    ("bd", "verify_b_expansion", "bd.expansion", None, ("bd.expansion",)),
    ("bd", "verify_d_expansion", "bd.expansion", None, ("bd.expansion",)),
    ("bd", "verify_bd_screening", "bd.screening", None, ("bd.screening",)),
    ("bd", "verify_block_lemmas", "bd.screening", None, ("bd.screening",)),
)

# Screening entry points called from the B/D suite also count towards
# bd.screening_s: (module holding the binding, attribute) -> extra keys.
VIA = {("bd", "in_kernel"): ("bd.screening",)}

# The generator whose frames alone are timed (skew_ssyt_self_s).
GENERATORS = (("casorati", "skew_ssyt", "casorati.skew_ssyt"),)

# Report classes whose add() timestamps give per-check durations.
REPORTS = (("characters", "RelationReport"), ("casorati", "GridReport"))

# Per-layer metrics: name -> unit, in the order they are reported.
LAYER_METRICS = {
    "ring.mul_calls": "count", "ring.mul_term_pairs": "count",
    "ring.mul_self_s": "s",
    "ring.acc_product_calls": "count",
    "ring.acc_product_term_pairs": "count",
    "ring.acc_product_self_s": "s",
    "ring.add_calls": "count", "ring.add_terms_copied": "count",
    "ring.add_self_s": "s",
    "ring.shift_calls": "count", "ring.shift_self_s": "s",
    "ring.to_q_calls": "count", "ring.to_q_self_s": "s",
    "ring.eval_rational_self_s": "s",
    "ring.peak_terms": "count", "ring.term_pairs_per_s": "1/s",
    "tableaux.rows_enumerated": "count",
    "tableaux.columns_enumerated": "count",
    "tableaux.enum_self_s": "s",
    "tableaux.weight_calls": "count", "tableaux.weight_self_s": "s",
    "characters.row_poly_s": "s", "characters.fundamental_poly_s": "s",
    "characters.rect_poly_s": "s", "characters.det_self_s": "s",
    "characters.pfaffian_self_s": "s", "characters.verify_self_s": "s",
    "characters.cache_hits": "count", "characters.cache_misses": "count",
    "diffop.mul_calls": "count", "diffop.mul_self_s": "s",
    "diffop.inverse_series_self_s": "s", "diffop.build_s": "s",
    "screening.apply_calls": "count", "screening.apply_self_s": "s",
    "screening.canonicalize_self_s": "s",
    "screening.in_kernel_calls": "count",
    "screening.terms_screened": "count",
    "classical.det_frac_calls": "count", "classical.det_frac_ops": "count",
    "classical.det_frac_self_s": "s",
    "casorati.ssyt_fillings": "count", "casorati.skew_ssyt_self_s": "s",
    "casorati.basis_build_s": "s", "casorati.casorati_calls": "count",
    "casorati.qa_eval_calls": "count", "casorati.qa_eval_self_s": "s",
    "bd.build_series_L_s": "s", "bd.expansion_s": "s",
    "bd.screening_s": "s",
    "trace.overhead_ratio": "ratio",
    "machine.speed": "ratio", "machine.verdict_wall_s": "s",
}


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span and counter registry for one traced verdict.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original bindings, even when the verdict raises.
    """

    def __init__(self):
        self.mods = {m: importlib.import_module(f"qchar.{m}")
                     for m in MODULES}
        self.count: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.check_times: list = []  # (time, report id, identity, ok)
        self._depth: dict = defaultdict(int)
        self._stack: list = []
        self._peak = 0
        self.patched: list = []  # (owner, attribute, original)
        self._caches = [v for v in vars(self.mods["characters"]).values()
                        if hasattr(v, "cache_info")]
        self._cache_start = [c.cache_info() for c in self._caches]

    def peak(self, n: int) -> None:
        if n > self._peak:
            self._peak = n

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, key: str, hook, incl: tuple):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        depth, incl_s, clock = self._depth, self.incl_s, time.perf_counter

        def wrapper(*args, **kwargs):
            for k in incl:
                depth[k] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                for k in incl:
                    depth[k] -= 1
                    if not depth[k]:
                        incl_s[k] += dt
            calls[key] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _generator(self, fn, key: str):
        stack, self_s, count, clock = (self._stack, self.self_s, self.count,
                                       time.perf_counter)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    self_s[key] += dt - stack.pop()
                    if stack:
                        stack[-1] += dt
                count[key + "_fillings"] += 1
                yield item

        return wrapper

    def _report_add(self, fn):
        log, clock = self.check_times, time.perf_counter

        def add(report, name, ok, *args, **kwargs):
            fn(report, name, ok, *args, **kwargs)
            log.append((clock(), id(report), name, bool(ok)))

        return add

    # -- installation ----------------------------------------------------

    def _patch_all(self, original, make) -> None:
        """Replace every binding of ``original`` in the qchar modules
        and in their classes by ``make(module name, attribute)``."""
        for mname, mod in self.mods.items():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, make(mname, attr))
                elif (isinstance(value, type)
                      and value.__module__ == mod.__name__):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._set(value, cattr, make(mname, cattr))

    def _set(self, owner, attr: str, new) -> None:
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for mname, path, key, hook, incl in PROBES:
            owner, attr = _resolve(self.mods[mname], path)
            original = vars(owner)[attr]
            self._patch_all(original, lambda m, a, o=original, k=key,
                            h=hook, i=incl: self._span(
                                o, k, h, i + VIA.get((m, a), ())))
        for mname, attr, key in GENERATORS:
            original = getattr(self.mods[mname], attr)
            self._patch_all(original,
                            lambda m, a, o=original, k=key:
                            self._generator(o, k))
        for mname, cls in REPORTS:
            owner = getattr(self.mods[mname], cls)
            self._set(owner, "add", self._report_add(owner.add))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def unrestored(self) -> list:
        """Bindings that do not hold their original object any more."""
        return [f"{o.__name__}.{a}" for o, a, orig in self.patched
                if vars(o).get(a) is not orig]

    # -- results ---------------------------------------------------------

    def layer_values(self) -> dict:
        """Every per-layer metric except trace.overhead_ratio and the
        machine.* pair, which come from the untraced verdict of another
        process."""
        s, c, n, inc = self.self_s, self.calls, self.count, self.incl_s
        hits = misses = 0
        for cache, start in zip(self._caches, self._cache_start):
            info = cache.cache_info()
            hits += info.hits - start.hits
            misses += info.misses - start.misses
        pairs = n["ring.mul_term_pairs"] + n["ring.acc_product_term_pairs"]
        kernel_s = s["ring.mul"] + s["ring.acc_product"]
        values = {
            "ring.mul_calls": c["ring.mul"],
            "ring.mul_term_pairs": n["ring.mul_term_pairs"],
            "ring.mul_self_s": s["ring.mul"],
            "ring.acc_product_calls": c["ring.acc_product"],
            "ring.acc_product_term_pairs": n["ring.acc_product_term_pairs"],
            "ring.acc_product_self_s": s["ring.acc_product"],
            "ring.add_calls": c["ring.add"],
            "ring.add_terms_copied": n["ring.add_terms_copied"],
            "ring.add_self_s": s["ring.add"],
            "ring.shift_calls": c["ring.shift"],
            "ring.shift_self_s": s["ring.shift"],
            "ring.to_q_calls": c["ring.to_q"],
            "ring.to_q_self_s": s["ring.to_q"],
            "ring.eval_rational_self_s": s["ring.eval_rational"],
            "ring.peak_terms": self._peak,
            "ring.term_pairs_per_s": pairs / kernel_s if kernel_s else 0.0,
            "tableaux.rows_enumerated": n["tableaux.rows_enumerated"],
            "tableaux.columns_enumerated": n["tableaux.columns_enumerated"],
            "tableaux.enum_self_s": s["tableaux.enum"],
            "tableaux.weight_calls": c["tableaux.weight"],
            "tableaux.weight_self_s": s["tableaux.weight"],
            "characters.row_poly_s": inc["characters.row_poly"],
            "characters.fundamental_poly_s":
                inc["characters.fundamental_poly"],
            "characters.rect_poly_s": inc["characters.rect_poly"],
            "characters.det_self_s": s["characters.det"],
            "characters.pfaffian_self_s": s["characters.pfaffian"],
            "characters.verify_self_s": s["characters.verify"],
            "characters.cache_hits": hits,
            "characters.cache_misses": misses,
            "diffop.mul_calls": c["diffop.mul"],
            "diffop.mul_self_s": s["diffop.mul"],
            "diffop.inverse_series_self_s": s["diffop.inverse_series"],
            "diffop.build_s": inc["diffop.build"],
            "screening.apply_calls": c["screening.apply"],
            "screening.apply_self_s": s["screening.apply"],
            "screening.canonicalize_self_s": s["screening.canonicalize"],
            "screening.in_kernel_calls": c["screening.in_kernel"],
            "screening.terms_screened": n["screening.terms_screened"],
            "classical.det_frac_calls": c["classical.det_frac"],
            "classical.det_frac_ops": n["classical.det_frac_ops"],
            "classical.det_frac_self_s": s["classical.det_frac"],
            "casorati.ssyt_fillings": n["casorati.skew_ssyt_fillings"],
            "casorati.skew_ssyt_self_s": s["casorati.skew_ssyt"],
            "casorati.basis_build_s": inc["casorati.basis_build"],
            "casorati.casorati_calls": c["casorati.casorati"],
            "casorati.qa_eval_calls": c["casorati.qa_eval"],
            "casorati.qa_eval_self_s": s["casorati.qa_eval"],
            "bd.build_series_L_s": inc["bd.build_series_L"],
            "bd.expansion_s": inc["bd.expansion"],
            "bd.screening_s": inc["bd.screening"],
        }
        return values

    def check_durations(self, start: float, checks: list) -> list:
        """Per-check seconds from the gaps between successive add() calls
        on the report that holds the final check list."""
        by_report: dict = defaultdict(list)
        for event in self.check_times:
            by_report[event[1]].append(event)
        events = max(by_report.values(), key=len, default=[])
        if [e[2] for e in events] != [c["identity"] for c in checks]:
            return []
        out, prev = [], start
        for t, _rid, name, ok in events:
            out.append({"identity": name, "ok": ok, "seconds": t - prev})
            prev = t
        return out
