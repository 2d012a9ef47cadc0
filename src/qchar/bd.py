"""Series-form L operators for the B and D algebras.

Unlike the C-series operator, these are not polynomials in D: the middle
factor is a genuine geometric series, so everything is handled as a
truncated series operator.  The module builds the factorized product
L, states the coefficients T_m of its inverse as words in blocks
(``tm_blocks``), and checks "L times inverse is 1" by zero-tests, L's
screening kernels by runs of adjacent factors that hold each Y_a, and
the two closed-form expansions of the middle factors that drive the
proofs.  No expanded coefficient of L or L^{-1} is screened: L^{-1}'s
lie in the subring that the shifts of L's generate.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, groupby

from .ring import (LaurentPoly, AlgebraSpec, CartanData, VariableTable,
                   Words, Y_FAM, sums_vanish, vk, ONE)
from .diffop import DiffOp, prod
from .screening import KernelReport, in_kernel, screen_all
from .characters import RelationReport


def _ym(pairs) -> LaurentPoly:
    """Monomial prod Y_idx(half)^e from (idx, half, e) triples."""
    exps: dict = {}
    for idx, half, e in pairs:
        key = vk(Y_FAM, idx, half)
        exps[key] = exps.get(key, 0) + e
    return LaurentPoly.monomial(1, exps)


def _lin(z: LaurentPoly, sign: int, order: int, deg: int = 2) -> DiffOp:
    """1 + sign * z * D^deg as a truncated series factor."""
    return DiffOp({0: ONE, deg: sign * z}, order)


def series_factors(algebra: AlgebraSpec, order: int,
                   half: int = 0) -> list:
    """The factors of the series operator at u + half/2, in product
    order: (1 - z_abar D^2) for a = 1..n, the middle factor, then
    (1 - z_a D^2) for a = n..1.  The middle factor is (1 + z_0 D^2)^{-1}
    for B and (1 - z_n(u) z_nbar(u+2) D^4)^{-1} for D."""
    if algebra.series not in ("B", "D"):
        raise ValueError("series operator exists for B and D only")
    if order < 2:
        raise ValueError("order must be at least 2")
    n = algebra.n
    table = VariableTable(algebra)
    left = [_lin(table.z(2 * n + 1 - a, half), -1, order)
            for a in range(1, n + 1)]
    right = [_lin(table.z(a, half), -1, order) for a in range(n, 0, -1)]
    if algebra.series == "B":
        mid = _lin(table.z0(half), +1, order)
    else:
        zz = table.z(n, half) * table.z(n + 1, half + 4)
        mid = _lin(zz, -1, order, deg=4)
    return left + [mid.inverse_series(order)] + right


def build_series_L(algebra: AlgebraSpec, order: int) -> DiffOp:
    """The factorized series operator, the product of
    ``series_factors``, truncated at D^order."""
    return prod(series_factors(algebra, order))


def tm_blocks(algebra: AlgebraSpec, m: int) -> list:
    """T_m, the D^{2m} coefficient of L^{-1} (the inverted factors in
    reverse order), as blocks (lefts, [middle], rights) of weak runs, in
    the shape of ``tableaux.row_blocks``; letter j of a word stands at
    u + 2j, letter 0 for z_0.  B: plain letters, at most one 0, barred
    letters.  D: 1 - z_n z_nbar(u+2) D^4, the inverted middle factor,
    cancels every word with both n and nbar; the words without nbar,
    then those whose middle is their first nbar and that have no n."""
    n = algebra.n
    plain, barred = range(1, n + 1), range(n + 1, 2 * n + 1)
    kinds = ([(plain, (), barred), (plain, (0,), barred)]
             if algebra.series == "B" else
             [(plain, (), barred[1:]), (plain[:-1], (n + 1,), barred)])
    out = []
    for low, mid, high in kinds:
        lefts, rights = ([list(combinations_with_replacement(letters, s))
                          for s in range(m + 1)] for letters in (low, high))
        out += [(lefts[r], [mid], rights[m - len(mid) - r])
                for r in range(m - len(mid) + 1)]
    return out


def extract_Ta(L: DiffOp) -> dict:
    """Coefficients of L = 1 + sum_a (-1)^a T^a(u+a) D^{2a}, renormalized
    to base point u: returns {a: T^a(u)}.  An odd D-degree, which has no
    T^a, is refused with ArithmeticError."""
    out = {}
    for j in sorted(L.coeffs):
        if j == 0:
            continue
        if j % 2:
            raise ArithmeticError(f"odd D-degree {j} in series operator")
        a = j // 2
        out[a] = ((-1) ** a) * L.coeff(j).shift(-2 * a)
    return out


# --- closed-form expansion of the three B-series middle factors -------

def b_f(n: int, half: int = 0) -> LaurentPoly:
    return (_ym([(n, half + 3, 1), (n, half + 7, -1)])
            + _ym([(n - 1, half + 4, 1), (n, half + 5, -1),
                   (n, half + 7, -1)])
            + _ym([(n, half + 3, 1), (n, half + 5, 1),
                   (n - 1, half + 6, -1)]))


def b_k(n: int, half: int = 0) -> LaurentPoly:
    return (_ym([(n, half + 11, -1)])
            + _ym([(n, half + 9, 1), (n - 1, half + 10, -1)]))


def b_h(n: int, half: int = 0) -> LaurentPoly:
    return (_ym([(n, half + 3, 1)])
            + _ym([(n - 1, half + 4, 1), (n, half + 5, -1)]))


def b_middle_factors(n: int, order: int) -> DiffOp:
    """The three factors of the B operator that involve Y_n, rebased so
    that the expansion variable v satisfies u = v - n + 2."""
    factors = series_factors(AlgebraSpec("B", n), order, 4 - 2 * n)
    return prod(factors[n - 1:n + 2])


def b_middle_expansion(n: int, order: int) -> DiffOp:
    """1 - f(v) D^2 + h(v) sum_j (-1)^j k(v+2j) D^{2j+4}."""
    coeffs = {0: ONE, 2: -b_f(n)}
    h = b_h(n)
    j = 0
    while 2 * j + 4 <= order:
        coeffs[2 * j + 4] = ((-1) ** j) * h * b_k(n, 4 * j)
        j += 1
    return DiffOp(coeffs, order)


def verify_b_expansion(n: int, order: int) -> bool:
    return b_middle_factors(n, order) == b_middle_expansion(n, order)


# --- closed-form expansion of the five D-series middle factors --------

def d_h(n: int, a: int, half: int = 0) -> LaurentPoly:
    return (_ym([(a, half, 1)])
            + _ym([(n - 2, half + 2, 1), (a, half + 4, -1)]))


def d_k(n: int, a: int, half: int = 0) -> LaurentPoly:
    return (_ym([(a, half, -1)])
            + _ym([(a, half - 4, 1), (n - 2, half - 2, -1)]))


def d_middle_factors(n: int, order: int) -> DiffOp:
    """The five factors of the D operator that involve Y_n, rebased so
    that the expansion variable v satisfies u = v + n - 4."""
    factors = series_factors(AlgebraSpec("D", n), order, 8 - 2 * n)
    return prod(factors[n - 2:n + 3])


def d_middle_expansion(n: int, order: int) -> DiffOp:
    """1 - sum_j (k_{n-1}(v+4j+5) h_n(v+3)
                 + [j>0] k_n(v+4j+5) h_{n-1}(v+3)) D^{4j+2}
         + sum_j (k_{n-1}(v+4j+7) h_{n-1}(v+3) + k_n(v+4j+7) h_n(v+3)
                 - [j=0] Y_{n-2}(v+4)/Y_{n-2}(v+6)) D^{4j+4}."""
    coeffs: dict = {0: ONE}
    hn = d_h(n, n, 6)
    hn1 = d_h(n, n - 1, 6)
    j = 0
    while 4 * j + 2 <= order:
        c = d_k(n, n - 1, 8 * j + 10) * hn
        if j > 0:
            c = c + d_k(n, n, 8 * j + 10) * hn1
        coeffs[4 * j + 2] = -c
        j += 1
    j = 0
    while 4 * j + 4 <= order:
        c = (d_k(n, n - 1, 8 * j + 14) * hn1
             + d_k(n, n, 8 * j + 14) * hn)
        if j == 0:
            c = c - _ym([(n - 2, 8, 1), (n - 2, 12, -1)])
        coeffs[4 * j + 4] = c
        j += 1
    return DiffOp(coeffs, order)


def verify_d_expansion(n: int, order: int) -> bool:
    return d_middle_factors(n, order) == d_middle_expansion(n, order)


# --- verification suite -----------------------------------------------

# The truncation of each series' middle-factor expansion check, the
# largest one the suite and ``verify lemma-exp`` run by default.
EXPANSION_ORDER = {"B": 10, "D": 12}

# Below D^4 the D middle factor (1 - z_n z_nbar(u+2) D^4)^{-1} is 1, so
# the kernel runs are read from factors built at least to D^RUN_ORDER.
RUN_ORDER = 4


def verify_bd_screening(algebra: AlgebraSpec, order: int) -> list:
    """One KernelReport per node for L to D^order, from the maximal runs
    of adjacent ``series_factors`` that hold a Y_a, each multiplied out
    and its coefficients to D^order screened once.  S_a is a derivation
    that commutes with shifts and kills each factor without Y_a, so L_k
    is in ker S_a if every run coefficient of degree <= k is.  One-sided:
    ``failing`` is [d], d the least degree at which a run of node a
    fails, and L_k is certified for k < d.  At order < RUN_ORDER node
    n's D run would split into two pairs, neither in ker S_n."""
    factors = series_factors(algebra, max(order, RUN_ORDER))
    nodes = [{i for c in f.coeffs.values() for mono, _ in c.terms()
              for (_, i, _), _ in mono} for f in factors]
    cartan = CartanData(algebra)
    verdicts: dict = {}  # (start, stop) -> [(D-degree, {a: ok})]
    reps = []
    for a in range(1, algebra.n + 1):
        failing = []
        for inside, run in groupby(range(len(factors)),
                                   lambda i: a in nodes[i]):
            if not inside:
                continue
            run = list(run)
            key = (run[0], run[-1] + 1)
            if key not in verdicts:
                op = prod(factors[slice(*key)])
                verdicts[key] = [(d, screen_all(op.coeffs[d], cartan))
                                 for d in sorted(op.coeffs) if d <= order]
            failing += [d for d, v in verdicts[key] if not v[a]]
        reps.append(KernelReport(a, [min(failing)] if failing else []))
    return reps


def verify_block_lemmas(algebra: AlgebraSpec) -> RelationReport:
    """Kernel membership of the building blocks of the long-node proof:
    B: S_n f = S_n k = S_n h = 0; D: S_n h_n = S_n k_n = 0."""
    n = algebra.n
    cartan = CartanData(algebra)
    if algebra.series == "B":
        pieces = (("f", b_f(n)), ("k", b_k(n)), ("h", b_h(n)))
    else:
        pieces = (("h_n", d_h(n, n)), ("k_n", d_k(n, n)))
    rep = RelationReport()
    for name, p in pieces:
        rep.add(f"long-node kernel of {name}", in_kernel(n, p, cartan))
    return rep


def default_order(n: int) -> int:
    """The B/D truncation used when none is given: D^(2(2n+2))."""
    return 2 * (2 * n + 2)


def run_suite(series: str, n: int, order: int | None = None) -> RelationReport:
    """Full series-operator check set for one algebra: factorized build,
    even-degree structure, middle-factor expansion, inverse, screening
    kernels of the operator and of every extracted coefficient.

    L is the product of ``series_factors``, built once and not screened:
    ``verify_bd_screening`` certifies its kernels by runs of factors.
    L^{-1} is never built: its T_m are ``tm_blocks``, so "L times inverse
    is 1" is one zero-test of sum_i L_i T_{(k-i)/2}(u + i) = [k = 0] per
    D-degree k.  The zero-tests share one frame, degree k's shifted by -k
    (a ring automorphism fixing 1): T_j stands at u - 2j in every one.
    The T^a checks read those per-node verdicts up to the inverse's
    truncation, since a shift moves each screening symbol with its term.

    No T_m is screened.  S_a is a derivation that commutes with shifts,
    so its kernel is a subring closed under shifts.  The k = 0 zero-test
    pins L_0 T_0 = 1 with T_0 = 1, the empty word, and the others give
    T_m = -sum_{even i >= 2} L_i(u) T_{m-i/2}(u + i) for 2m up to the
    inverse's truncation: each T_m lies in the subring that the shifts
    of those L_i generate.  So node a's T_m check is "L times inverse is
    1" and its T^a check.  ``order`` defaults to ``default_order(n)``."""
    algebra = AlgebraSpec(series, n)
    if order is None:
        order = default_order(n)
    rep = RelationReport()
    L = build_series_L(algebra, order)
    rep.add("degree-0 coefficient is 1", L.coeff(0) == ONE)
    rep.add("only even D-degrees", all(j % 2 == 0 for j in L.coeffs))
    # inverse coefficients are row-type characters and grow quickly, so
    # the inverse-side checks run at a capped truncation
    inv_order = min(order, 12)
    table = VariableTable(algebra)
    z = {c: table.z(c) for c in range(1, 2 * n + 1)} | (
        {0: table.z0()} if series == "B" else {})
    tm = [Words(z, [4 * j for j in range(m)], tm_blocks(algebra, m))
          for m in range(inv_order // 2 + 1)]  # T_m(u)
    inverse = all(sums_vanish(
        [(1, (c, -2 * k), (tm[(k - i) // 2], 2 * (i - k)))
         for i, c in L.coeffs.items() if i <= k and (k - i) % 2 == 0]
        + [(-1, ONE, ONE)] * (k == 0) for k in range(inv_order + 1)))
    rep.add("L times inverse is 1 to truncation", inverse)
    expand = verify_b_expansion if series == "B" else verify_d_expansion
    rep.add("middle-factor expansion",
            expand(n, min(order, EXPANSION_ORDER[series])))
    for sub in verify_block_lemmas(algebra).checks:
        rep.add(sub["identity"], sub["ok"])
    l_reps = verify_bd_screening(algebra, order)
    for krep in l_reps:
        rep.add(f"operator kernel under node {krep.node_a}", krep.zero)
    for l_rep in l_reps:
        a = l_rep.node_a
        kernel = all(deg > inv_order for deg in l_rep.failing)
        rep.add(f"all T^a coefficients in kernel of node {a}", kernel)
        rep.add(f"all T_m coefficients in kernel of node {a}",
                inverse and kernel)
    # highest-weight normalization of the first coefficient, read from
    # the D^2 coefficient -T^1(u+1) as it stands
    rep.add("T^1 contains Y_1(u) with coefficient 1",
            L.coeff(2).coeff_of({vk(Y_FAM, 1, 2): 1}) == -1)
    return rep
