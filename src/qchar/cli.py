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

from .ring import AlgebraSpec, CartanData, vk, Y_FAM
from .diffop import build_L_C, EpsilonChoice, L_FORMS
from . import characters, tableaux, classical, casorati, bd
from .screening import screen_all, screen_operator_all


SUITES = ("screening", "cancellation", "bijection", "tsystem", "tt-tq",
          "hseries", "hookchi", "casorati", "nnsy", "bd", "lemma-exp",
          "product-formula")


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
                k, v = line.split("=", 1)
                out[k.strip()] = v.strip()
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
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- character command ------------------------------------------------

def _hw_exps(n: int, label: tuple) -> dict:
    """Expected leading monomial of a character, as an exponent dict."""
    kind = label[0]
    exps: dict = {}
    if kind == "fundamental":
        a = label[1]
        if 1 <= a <= n:
            exps[vk(Y_FAM, a, 0)] = 1
    elif kind == "row":
        m = label[1]
        for j in range(1, m + 1):
            key = vk(Y_FAM, 1, m + 1 - 2 * j)
            exps[key] = exps.get(key, 0) + 1
    elif kind == "rect":
        a, m = label[1], label[2]
        t = 2 if a == n else 1
        for j in range(1, m + 1):
            key = vk(Y_FAM, a, t * (m + 1 - 2 * j))
            exps[key] = exps.get(key, 0) + 1
    elif kind == "hseries":
        i, k = label[1], label[2]
        return characters.highest_weight_key(n, i, k)
    return exps


def cmd_character(args) -> int:
    n = _resolve(args, "rank", int)
    if n is None:
        raise UsageError("character requires --rank")
    algebra = _resolve(args, "algebra", str, "C")
    if algebra != "C":
        raise UsageError("character supports the C series only")
    spec = _spec("C", n)
    picks = [p for p in ("fundamental", "row", "rect", "hseries")
             if getattr(args, p) is not None]
    if len(picks) != 1:
        raise UsageError(
            "choose exactly one of --fundamental/--row/--rect/--hseries")
    kind = picks[0]
    if kind == "fundamental":
        ch = characters.fundamental(n, args.fundamental)
    elif kind == "row":
        if args.row < 0:
            raise UsageError("--row must be >= 0")
        ch = characters.row_character(n, args.row)
    elif kind == "rect":
        a, m = args.rect
        if not (0 <= a <= n and m >= 0):
            raise UsageError(f"--rect needs 0 <= A <= {n} and M >= 0")
        ch = characters.QCharacter(spec, ("rect", a, m),
                                   characters.rect_poly(n, a, m))
    else:
        i, k = args.hseries
        if not (0 <= i <= 2 * n + 1 and k >= 0):
            raise UsageError(f"--hseries needs 0 <= I <= {2 * n + 1} "
                             f"and K >= 0")
        ch = characters.h_series(n, i, k)
    sigma = 1
    if kind == "hseries":
        sigma = 1 if ch.label[1] <= n else -1
    hw = _hw_exps(n, ch.label)
    shift = ch.label[1] if kind == "hseries" else 0
    flag = sigma * ch.value.shift(shift).coeff_of(hw) == 1
    payload = ch.to_json()
    payload["highest_weight_present"] = bool(flag)
    payload["text"] = ch.value.text()
    _emit(payload, args)
    return 0


# --- operator command -------------------------------------------------

def cmd_operator(args) -> int:
    n = _resolve(args, "rank", int)
    if n is None:
        raise UsageError("operator requires --rank")
    algebra = _resolve(args, "algebra", str, "C")
    spec = _spec(algebra, n)
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

def _suite_checks(args) -> tuple[list, dict]:
    """Run one suite; returns (checks, params) where checks is a list of
    {identity, ok} dicts."""
    suite = args.suite
    n = _resolve(args, "rank", int)
    algebra = _resolve(args, "algebra", str)
    seed = _resolve(args, "seed", int, 0)
    max_m = _resolve(args, "max_m", int)
    order = _resolve(args, "order", int)
    for flag, val in (("--max-m", max_m), ("--order", order)):
        if val is not None and val < 0:
            raise UsageError(f"{flag} must be >= 0, got {val}")
    params: dict = {"suite": suite}

    def need_rank():
        if n is None:
            raise UsageError(f"suite {suite} requires --rank")
        _spec(algebra if suite in ("bd", "lemma-exp") else "C", n)
        return n

    if suite == "screening":
        rank = need_rank()
        if max_m is None:
            max_m = 4
        params.update(rank=rank, max_m=max_m)
        cartan = CartanData(AlgebraSpec("C", rank))
        checks = []
        L = build_L_C(rank, "zFactored")
        for rep in screen_operator_all(L, cartan, target="operator"):
            checks.append({"identity": f"operator kernel under node "
                                       f"{rep.node_a}", "ok": rep.zero})

        def node_checks(name, p):
            for a, res in screen_all(p, cartan).items():
                checks.append({"identity": f"{name} kernel under node {a}",
                               "ok": not res})

        for b in range(1, rank + 1):
            node_checks(f"fundamental {b}",
                        characters.fundamental_poly(rank, b))
        for m in range(1, max_m + 1):
            node_checks(f"row {m}", characters.row_poly(rank, m))
        return checks, params

    if suite == "cancellation":
        rank = need_rank()
        params.update(rank=rank)
        checks = []
        for a in range(1, rank + 1):
            rep = tableaux.verify_cancellation(rank, a)
            checks.append({"identity": f"column collapse a={a}",
                           "ok": rep.ok})
        return checks, params

    if suite == "bijection":
        rank = need_rank()
        if rank < 3:
            raise UsageError("bijection suite needs --rank >= 3")
        params.update(rank=rank)
        checks = []
        for a in range(3, rank + 1):
            rep = tableaux.verify_cancellation(rank, a)
            checks.append({"identity": f"descent bijection a={a}",
                           "ok": rep.bijection_ok})
        return checks, params

    if suite == "tsystem":
        rank = need_rank()
        mm = 3 if max_m is None else max_m
        pf = 3 if rank == 2 else 2
        params.update(rank=rank, max_m=mm, pf_max=pf)
        return characters.verify_tsystem(rank, mm, pf).checks, params

    if suite == "tt-tq":
        rank = need_rank()
        mm = 2 * (2 * rank + 2) if max_m is None else max_m
        params.update(rank=rank, max_m=mm)
        return characters.verify_tt_tq(rank, mm).checks, params

    if suite == "hseries":
        rank = need_rank()
        params.update(rank=rank)
        N = 2 * rank + 2
        checks = list(characters.verify_hseries(rank).checks)
        checks += characters.verify_highest_weight(rank, N + 1, N + 3).checks
        return checks, params

    if suite == "hookchi":
        rank = need_rank()
        N = 2 * rank + 2
        params.update(rank=rank, seed=seed)
        checks = list(classical.verify_pieri(rank, 4, seed).checks)
        checks += classical.verify_hook_decomposition(
            rank, N + 1, N + 3, seed).checks
        checks += classical.verify_fundamental_images(rank, seed).checks
        if rank == 2:
            dims = [classical.hook_dimension(2, a, g) for a, g in
                    ((1, 0), (0, 1), (0, -1), (-1, 0))]
            checks.append({"identity": "dimension instance 16 = 10+5+1",
                           "ok": dims == [10, 5, 0, 1]
                           and sum(dims) == 16})
        return checks, params

    if suite == "casorati":
        rank = need_rank()
        params.update(rank=rank, seed=seed)
        return casorati.run_suite(rank, seed).checks, params

    if suite == "nnsy":
        rank = need_rank()
        params.update(rank=rank, seed=seed)
        return casorati.run_suite(rank, seed, skew_only=True).checks, params

    if suite == "bd":
        if algebra not in ("B", "D"):
            raise UsageError("bd suite requires --algebra B or D")
        rank = need_rank()
        params.update(algebra=algebra, rank=rank)
        if order is not None:
            params.update(order=_series_order(order))
        return bd.run_suite(algebra, rank, order).checks, params

    if suite == "lemma-exp":
        if algebra not in ("B", "D"):
            raise UsageError("lemma-exp suite requires --algebra B or D")
        rank = need_rank()
        if order is None:
            order = 10 if algebra == "B" else 12
        if order < 2:
            # below order 2 both sides are the unit operator
            raise UsageError(f"lemma-exp needs --order >= 2, got {order}")
        params.update(algebra=algebra, rank=rank)
        if algebra == "B":
            ok = bd.verify_b_expansion(rank, order)
        else:
            ok = bd.verify_d_expansion(rank, order)
        return [{"identity": f"{algebra}-series middle-factor expansion",
                 "ok": ok}], params

    if suite == "product-formula":
        rank = need_rank()
        kmax = 2 * rank + 2 + 2 if max_m is None else max_m
        params.update(rank=rank, k_max=kmax)
        return [{"identity": f"transfer-matrix product at k={k}",
                 "ok": characters.verify_product_formula(rank, k)}
                for k in range(1, kmax + 1)], params

    raise UsageError(f"unknown suite {suite!r}")


def cmd_verify(args) -> int:
    checks, params = _suite_checks(args)
    # a suite that ran no check has shown nothing
    ok = bool(checks) and all(c["ok"] for c in checks)
    payload = {"params": params, "checks": checks, "ok": ok,
               "text": "\n".join(
                   f"[{'PASS' if c['ok'] else 'FAIL'}] {c['identity']}"
                   for c in checks) + f"\nsuite {'ok' if ok else 'FAILED'}"}
    _emit(payload, args)
    return 0 if ok else 1


# --- bd command -------------------------------------------------------

def cmd_bd(args) -> int:
    algebra = _resolve(args, "algebra", str)
    if algebra not in ("B", "D"):
        raise UsageError("bd requires --algebra B or D")
    n = _resolve(args, "rank", int)
    if n is None:
        raise UsageError("bd requires --rank")
    spec = _spec(algebra, n)
    order = _series_order(_resolve(args, "order", int, 2 * (2 * n + 2)))
    if args.emit == "coeffs":
        L = bd.build_series_L(spec, order)
        ta = bd.extract_Ta(L)
        payload = {"algebra": algebra, "rank": n, "order": order,
                   "coefficients": {str(a): p.to_json()
                                    for a, p in ta.items()},
                   "text": "\n".join(f"T^{a}(u) = {p.text()}"
                                     for a, p in sorted(ta.items()))}
        _emit(payload, args)
        return 0
    rep = bd.run_suite(algebra, n, order)
    ok = rep.ok
    payload = {"algebra": algebra, "rank": n, "order": order,
               "checks": rep.checks, "ok": ok,
               "text": "\n".join(
                   f"[{'PASS' if c['ok'] else 'FAIL'}] {c['identity']}"
                   for c in rep.checks)}
    _emit(payload, args)
    return 0 if ok else 1


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
        return _DISPATCH[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
