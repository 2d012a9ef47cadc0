"""Series-form L operators for the B and D algebras.

Unlike the C-series operator, these are not polynomials in D: the middle
factor is a genuine geometric series, so everything is handled as a
truncated series operator.  The module builds the factorized products,
extracts the expansion coefficients of L and of its inverse, and checks
the screening-kernel property degree by degree together with the two
closed-form expansions of the middle factors that drive the proofs.
"""

from __future__ import annotations

from .ring import (LaurentPoly, AlgebraSpec, CartanData, VariableTable,
                   Y_FAM, vk, ONE)
from .diffop import DiffOp, prod
from .screening import in_kernel, screen_operator_all
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
    L = prod(series_factors(algebra, order))
    if any(j % 2 for j in L.coeffs):
        raise ArithmeticError("odd D-degree coefficient in series operator")
    return L


def extract_Ta(L: DiffOp) -> dict:
    """Coefficients of L = 1 + sum_a (-1)^a T^a(u+a) D^{2a}, renormalized
    to base point u: returns {a: T^a(u)}."""
    out = {}
    for j in sorted(L.coeffs):
        if j == 0:
            continue
        a = j // 2
        out[a] = ((-1) ** a) * L.coeff(j).shift(-2 * a)
    return out


def extract_Tm(L: DiffOp) -> dict:
    """Coefficients of L^{-1} = 1 + sum_m T_m(u+m) D^{2m}, renormalized
    to base point u: returns {m: T_m(u)}."""
    inv = L.inverse_series(L.order)
    out = {}
    for j in sorted(inv.coeffs):
        if j == 0:
            continue
        m = j // 2
        out[m] = inv.coeff(j).shift(-2 * m)
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


def verify_b_expansion(n: int, order: int = 10) -> bool:
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


def verify_d_expansion(n: int, order: int = 12) -> bool:
    return d_middle_factors(n, order) == d_middle_expansion(n, order)


# --- verification suite -----------------------------------------------

def verify_bd_screening(L: DiffOp, cartan: CartanData) -> list:
    """S_a applied coefficientwise to the truncated series operator, one
    kernel report per node."""
    return screen_operator_all(L, cartan)


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


def run_suite(series: str, n: int, order: int | None = None) -> RelationReport:
    """Full series-operator check set for one algebra: factorized build,
    even-degree structure, middle-factor expansion, inverse, screening
    kernels of the operator and of every extracted coefficient.

    L is built once and inverted once, and each coefficient of L and of
    L^{-1} is screened once.  The T^a checks read the operator's own
    residuals up to the inverse's truncation, because the truncated Li
    has exactly L's coefficients there.  +-T^a(u+a) and T_m(u+m) are
    screened unshifted: a shift by h maps screen_all(p)[a] to
    {v + h: q.shift(h)}, so T^a(u+a) is in a kernel exactly when T^a(u)
    is."""
    algebra = AlgebraSpec(series, n)
    if order is None:
        order = 2 * (2 * n + 2)
    rep = RelationReport()
    L = build_series_L(algebra, order)
    rep.add("degree-0 coefficient is 1", L.coeff(0) == ONE)
    rep.add("only even D-degrees", all(j % 2 == 0 for j in L.coeffs))
    # inverse coefficients are row-type characters and grow quickly, so
    # the inverse-side checks run at a capped truncation
    inv_order = min(order, 12)
    Li = L.truncated(inv_order)
    inv = Li.inverse_series(inv_order)
    rep.add("L times inverse is 1 to truncation",
            Li * inv == DiffOp.unit(inv_order))
    if series == "B":
        rep.add("middle-factor expansion", verify_b_expansion(n, min(order, 10)))
    else:
        rep.add("middle-factor expansion", verify_d_expansion(n, min(order, 12)))
    for sub in verify_block_lemmas(algebra).checks:
        rep.add(sub["identity"], sub["ok"])
    cartan = CartanData(algebra)
    l_reps = verify_bd_screening(L, cartan)
    for krep in l_reps:
        rep.add(f"operator kernel under node {krep.node_a}", krep.zero)
    inv_reps = screen_operator_all(inv, cartan)
    for l_rep, inv_rep in zip(l_reps, inv_reps):
        a = l_rep.node_a
        ok = not any(d["residual_term_count"] for d in l_rep.per_degree
                     if d["deg"] <= inv_order)
        rep.add(f"all T^a coefficients in kernel of node {a}", ok)
        rep.add(f"all T_m coefficients in kernel of node {a}", inv_rep.zero)
    # highest-weight normalization of the first coefficient, read from
    # the D^2 coefficient -T^1(u+1) as it stands
    rep.add("T^1 contains Y_1(u) with coefficient 1",
            Li.coeff(2).coeff_of({vk(Y_FAM, 1, 2): 1}) == -1)
    return rep
