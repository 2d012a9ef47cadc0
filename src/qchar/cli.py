"""Command-line surface: characters, operators, and verification suites.

Exit codes: 0 = success / all checks passed, 1 = at least one identity
failed, 2 = usage or configuration error.  Only a ``UsageError`` gives
exit 2; any other exception is an internal error and propagates.
Reports are deterministic: identical configuration and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .ring import AlgebraSpec, CartanData, vk, Y_FAM
from .diffop import build_L_C, EpsilonChoice, L_FORMS
from . import characters, tableaux, classical, casorati, bd
from .screening import screen_all, screen_operator_all


CONFIG_KEYS = ("rank", "algebra", "seed", "order", "max_m")


class UsageError(Exception):
    pass


def _spec(series: str, n: int) -> AlgebraSpec:
    """The algebra at a requested rank; a rank it lacks is a usage
    error."""
    try:
        return AlgebraSpec(series, n)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _series_order(order: int) -> int:
    """A B/D series truncation order, which must reach D^2."""
    if order < 2:
        raise UsageError("order must be at least 2")
    return order


def _read_config(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments ignored."""
    out: dict = {}
    try:
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{line_no}: expected key=value")
                k, v = map(str.strip, line.split("=", 1))
                if k not in CONFIG_KEYS:
                    raise UsageError(f"{path}:{line_no}: unknown key {k!r};"
                                     f" expected one of "
                                     f"{', '.join(CONFIG_KEYS)}")
                out[k] = v
    except OSError as e:
        raise UsageError(f"cannot read config: {e}")
    return out


def _resolve(args, key: str, cast=str, default=None):
    """Precedence: command-line flag > config file > environment
    (seed only) > default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    cfg = getattr(args, "_config_values", {})
    if key in cfg:
        try:
            return cast(cfg[key])
        except ValueError:
            raise UsageError(f"bad config value for {key}: {cfg[key]!r}")
    if key == "seed":
        env = os.environ.get("QCHAR_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise UsageError(f"bad QCHAR_SEED: {env!r}")
    return default


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = payload.get("text", json.dumps(payload, sort_keys=True)) + "\n"
    if args.out:  # writable: main checked it before the run
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse_unread(args, command: str, reads: tuple) -> None:
    """Refuse a bound given on the command line to a command that does
    not read it; one from a config file may serve other commands."""
    for key, flag in (("max_m", "--max-m"), ("order", "--order")):
        if getattr(args, key) is not None and key not in reads:
            raise UsageError(f"{command} does not read {flag}")


def _check_out(path: str) -> None:
    """Fail before any work when ``path`` cannot be written, leaving a
    file that is there as it was."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from None
    if not existed:
        os.remove(path)


# --- character command ------------------------------------------------

def _rect_leading(n: int, a: int, m: int) -> dict:
    """Exponents of the leading monomial of T^(a)_m,
    prod_j Y_a(u + t(m+1-2j)/2) with t = 2 at the long node; the empty
    monomial outside 1 <= a <= n (T^(0)_m = 1)."""
    if not 1 <= a <= n:
        return {}
    t = 2 if a == n else 1
    return Counter(vk(Y_FAM, a, t * (m + 1 - 2 * j)) for j in range(1, m + 1))


def cmd_character(args) -> int:
    n = _resolve(args, "rank", int)
    if n is None:
        raise UsageError("character requires --rank")
    algebra = _resolve(args, "algebra", str, "C")
    if algebra != "C":
        raise UsageError("character supports the C series only")
    _spec("C", n)
    _refuse_unread(args, "character", ())
    picks = [p for p in ("fundamental", "row", "rect", "hseries")
             if getattr(args, p) is not None]
    if len(picks) != 1:
        raise UsageError(
            "choose exactly one of --fundamental/--row/--rect/--hseries")
    kind = picks[0]
    # each branch: the label, the character, its expected leading
    # monomial (an exponent dict) and the sign and half-shift at which
    # that monomial has coefficient 1
    sigma, shift = 1, 0
    if kind == "fundamental":
        a = args.fundamental
        label, p = (a,), characters.fundamental_poly(n, a)
        hw = _rect_leading(n, a, 1)
    elif kind == "row":
        m = args.row
        if m < 0:
            raise UsageError("--row must be >= 0")
        label, p = (m,), characters.row_poly(n, m)
        hw = _rect_leading(n, 1, m)
    elif kind == "rect":
        a, m = args.rect
        if not (0 <= a <= n and m >= 0):
            raise UsageError(f"--rect needs 0 <= A <= {n} and M >= 0")
        label, p = (a, m), characters.rect_poly(n, a, m)
        hw = _rect_leading(n, a, m)
    else:
        i, k = args.hseries
        if not (0 <= i <= 2 * n + 1 and k >= 0):
            raise UsageError(f"--hseries needs 0 <= I <= {2 * n + 1} "
                             f"and K >= 0")
        label, p = (i, k), characters.h_poly(n, i, k)
        hw = characters.highest_weight_key(n, i, k)
        sigma, shift = (1 if i <= n else -1), i
    _emit({"series": "C", "rank": n, "label": [kind, *label],
           "monomials": p.n_terms, "value": p.to_json(),
           "highest_weight_present": sigma * p.shift(shift).coeff_of(hw) == 1,
           "text": p.text()}, args)
    return 0


# --- operator command -------------------------------------------------

def cmd_operator(args) -> int:
    n = _resolve(args, "rank", int)
    if n is None:
        raise UsageError("operator requires --rank")
    algebra = _resolve(args, "algebra", str, "C")
    spec = _spec(algebra, n)
    _refuse_unread(args, f"{algebra} operator",
                   () if algebra == "C" else ("order",))
    if algebra == "C":
        if args.form not in L_FORMS:
            raise UsageError(f"--form must be one of {L_FORMS}")
        op = build_L_C(n, args.form, EpsilonChoice(args.eps))
        label = f"C rank {n} {args.form}"
    else:
        order = _series_order(_resolve(args, "order", int, 2 * (2 * n + 2)))
        op = bd.build_series_L(spec, order)
        label = f"{algebra} rank {n} series to D^{order}"
    payload = {"label": label, "coefficients": op.to_json(),
               "text": op.text()}
    _emit(payload, args)
    return 0


# --- verify command ---------------------------------------------------
#
# Each runner takes the resolved flags (rank, algebra, seed, max_m,
# order) and returns (checks, params): a list of {identity, ok} dicts and
# the parameters the report shows besides suite and rank.  Runners look
# library functions up when called, so a patched binding is honoured.

def _screening(r):
    max_m = 4 if r.max_m is None else r.max_m
    cartan = CartanData(AlgebraSpec("C", r.rank))
    L = build_L_C(r.rank, "zFactored")
    checks = [{"identity": f"operator kernel under node {rep.node_a}",
               "ok": rep.zero}
              for rep in screen_operator_all(L, cartan)]
    polys = ([(f"fundamental {b}", characters.fundamental_poly, b)
              for b in range(1, r.rank + 1)]
             + [(f"row {m}", characters.row_poly, m)
                for m in range(1, max_m + 1)])
    for name, build, i in polys:
        for a, res in screen_all(build(r.rank, i), cartan).items():
            checks.append({"identity": f"{name} kernel under node {a}",
                           "ok": not res})
    return checks, {"max_m": max_m}


def _bijection(r):
    if r.rank < 3:
        raise UsageError("bijection suite needs --rank >= 3")
    return [{"identity": f"descent bijection a={a}",
             "ok": tableaux.verify_cancellation(r.rank, a).bijection_ok}
            for a in range(3, r.rank + 1)], {}


def _tsystem(r):
    max_m = 3 if r.max_m is None else r.max_m
    pf = 3 if r.rank == 2 else 2
    return (characters.verify_tsystem(r.rank, max_m, pf).checks,
            {"max_m": max_m, "pf_max": pf})


def _tt_tq(r):
    max_m = 2 * (2 * r.rank + 2) if r.max_m is None else r.max_m
    return characters.verify_tt_tq(r.rank, max_m).checks, {"max_m": max_m}


def _hseries(r):
    N = 2 * r.rank + 2
    return (characters.verify_hseries(r.rank).checks
            + characters.verify_highest_weight(r.rank, N + 1, N + 3).checks,
            {})


def _hookchi(r):
    n, seed = r.rank, r.seed
    N = 2 * n + 2
    checks = (classical.verify_pieri(n, 4, seed).checks
              + classical.verify_hook_decomposition(n, N + 1, N + 3,
                                                    seed).checks
              + classical.verify_fundamental_images(n, seed).checks)
    if n == 2:
        dims = [classical.hook_dimension(2, a, g) for a, g in
                ((1, 0), (0, 1), (0, -1), (-1, 0))]
        checks.append({"identity": "dimension instance 16 = 10+5+1",
                       "ok": dims == [10, 5, 0, 1] and sum(dims) == 16})
    return checks, {"seed": seed}


def _bd_suite(r):
    params = {"algebra": r.algebra}
    if r.order is not None:
        params.update(order=_series_order(r.order))
    return bd.run_suite(r.algebra, r.rank, r.order).checks, params


def _lemma_exp(r):
    order = (10 if r.algebra == "B" else 12) if r.order is None else r.order
    if order < 2:
        # below order 2 both sides are the unit operator
        raise UsageError(f"lemma-exp needs --order >= 2, got {order}")
    expand = (bd.verify_b_expansion if r.algebra == "B"
              else bd.verify_d_expansion)
    return [{"identity": f"{r.algebra}-series middle-factor expansion",
             "ok": expand(r.rank, order)}], {"algebra": r.algebra}


def _product_formula(r):
    k_max = 2 * r.rank + 2 + 2 if r.max_m is None else r.max_m
    if k_max < 1:
        # k starts at 1, so a smaller bound would run no check at all
        raise UsageError(f"product-formula needs --max-m >= 1, got {k_max}")
    return [{"identity": f"transfer-matrix product at k={k}",
             "ok": characters.verify_product_formula(r.rank, k)}
            for k in range(1, k_max + 1)], {"k_max": k_max}


# suite -> (the algebras it runs on, the bounds it reads, its runner)
SUITES = {
    "screening": (("C",), ("max_m",), _screening),
    "cancellation": (("C",), (), lambda r: (
        [{"identity": f"column collapse a={a}",
          "ok": tableaux.verify_cancellation(r.rank, a).ok}
         for a in range(1, r.rank + 1)], {})),
    "bijection": (("C",), (), _bijection),
    "tsystem": (("C",), ("max_m",), _tsystem),
    "tt-tq": (("C",), ("max_m",), _tt_tq),
    "hseries": (("C",), (), _hseries),
    "hookchi": (("C",), (), _hookchi),
    "casorati": (("C",), (), lambda r: (
        casorati.run_suite(r.rank, r.seed).checks, {"seed": r.seed})),
    "nnsy": (("C",), (), lambda r: (
        casorati.run_suite(r.rank, r.seed, skew_only=True).checks,
        {"seed": r.seed})),
    "bd": (("B", "D"), ("order",), _bd_suite),
    "lemma-exp": (("B", "D"), ("order",), _lemma_exp),
    "product-formula": (("C",), ("max_m",), _product_formula),
}


def _emit_checks(payload: dict, checks: list, args, verdict: bool) -> int:
    """Emit checks as [PASS]/[FAIL] lines, closed by a suite verdict line
    when ``verdict``; a run that made no check has shown nothing and
    fails."""
    ok = bool(checks) and all(c["ok"] for c in checks)
    text = "\n".join(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['identity']}"
                     for c in checks)
    if verdict:
        text += f"\nsuite {'ok' if ok else 'FAILED'}"
    _emit({**payload, "checks": checks, "ok": ok, "text": text}, args)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    suite = args.suite
    algebras, bounds, runner = SUITES[suite]
    r = argparse.Namespace(rank=_resolve(args, "rank", int),
                           algebra=_resolve(args, "algebra", str, "C"),
                           seed=_resolve(args, "seed", int, 0),
                           max_m=_resolve(args, "max_m", int),
                           order=_resolve(args, "order", int))
    for flag, val in (("--max-m", r.max_m), ("--order", r.order)):
        if val is not None and val < 0:
            raise UsageError(f"{flag} must be >= 0, got {val}")
    if r.algebra not in algebras:
        raise UsageError(f"{suite} suite requires --algebra "
                         f"{' or '.join(algebras)}")
    if r.rank is None:
        raise UsageError(f"suite {suite} requires --rank")
    _spec(r.algebra, r.rank)
    _refuse_unread(args, f"{suite} suite", bounds)
    checks, params = runner(r)
    return _emit_checks({"params": {"suite": suite, "rank": r.rank,
                                    **params}}, checks, args, verdict=True)


# --- bd command -------------------------------------------------------

def cmd_bd(args) -> int:
    algebra = _resolve(args, "algebra", str)
    if algebra not in ("B", "D"):
        raise UsageError("bd requires --algebra B or D")
    n = _resolve(args, "rank", int)
    if n is None:
        raise UsageError("bd requires --rank")
    spec = _spec(algebra, n)
    _refuse_unread(args, "bd", ("order",))
    order = _series_order(_resolve(args, "order", int, 2 * (2 * n + 2)))
    if args.emit == "report":
        return _emit_checks({"algebra": algebra, "rank": n, "order": order},
                            bd.run_suite(algebra, n, order).checks, args,
                            verdict=False)
    ta = bd.extract_Ta(bd.build_series_L(spec, order))
    payload = {"algebra": algebra, "rank": n, "order": order,
               "coefficients": {str(a): p.to_json() for a, p in ta.items()},
               "text": "\n".join(f"T^{a}(u) = {p.text()}"
                                 for a, p in sorted(ta.items()))}
    _emit(payload, args)
    return 0


# --- argument parsing -------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qchar",
        description="Exact q-character and difference-operator toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--rank", type=int)
        p.add_argument("--algebra", choices=("C", "B", "D"))
        p.add_argument("--seed", type=int)
        p.add_argument("--order", type=int)
        p.add_argument("--max-m", dest="max_m", type=int)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out")
        p.add_argument("--config")
        p.add_argument("--jobs", type=int, default=1, metavar="K",
                       help="accepted for compatibility; K >= 1, and "
                            "execution is serial whatever its value")

    p = sub.add_parser("character", help="emit one exact q-character")
    common(p)
    p.add_argument("--fundamental", type=int)
    p.add_argument("--row", type=int)
    p.add_argument("--rect", type=int, nargs=2, metavar=("A", "M"))
    p.add_argument("--hseries", type=int, nargs=2, metavar=("I", "K"))

    p = sub.add_parser("operator", help="emit a factorized operator")
    common(p)
    p.add_argument("--form", default="xFactored")
    p.add_argument("--eps", type=int, choices=(1, -1), default=1)

    p = sub.add_parser("verify", help="run one verification suite")
    common(p)
    p.add_argument("suite", choices=SUITES)

    p = sub.add_parser("bd", help="series operators and their checks")
    common(p)
    p.add_argument("--emit", choices=("coeffs", "report"), default="report")
    return ap


_DISPATCH = {"character": cmd_character, "operator": cmd_operator,
             "verify": cmd_verify, "bd": cmd_bd}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        args._config_values = (_read_config(args.config)
                               if args.config else {})
        if args.out:
            _check_out(args.out)
        return _DISPATCH[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
