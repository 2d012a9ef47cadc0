"""q-characters of the C series: fundamentals, rows, rectangles, hooks.

All characters are stored base-point normalized (argument u); shifts
are applied at use sites in half-units.

The T-system and the hooks' determinants and product formula are decided
in free symbols t_b(h) (``ring``'s family ``T``): t_b(h) -> T^(b)_1(u +
h/2) is a ring map, so a formal zero is a zero on Y.  ``hook_rows`` builds
hooks in either ring.  tt-tq's convolutions are L_z^-1 L_z = L_z L_z^-1 =
1 for the factorized operator L_z, whose coefficients are the fundamentals
and its inverse's the rows (``_operator_premises``).  The first fixes each row
from the lower rows: it is the bridge that proves each tableau row the
image of its formal row, up to the largest one a relation uses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, combinations_with_replacement, product
from math import prod
from operator import and_

from . import diffop
from .ring import (LaurentPoly, AlgebraSpec, CartanData, VariableTable,
                   Qv, product_sum, sums_vanish, vk, Y_FAM, T_FAM, ONE,
                   ZERO)
from .classical import PointReport, det_frac
from .tableaux import gen_column_tableaux, row_blocks, weight_sum


@lru_cache(maxsize=None)
def _table(n: int) -> VariableTable:
    return VariableTable(AlgebraSpec("C", n))


def extend(n: int, a: int, entry):
    """T^(a) for any a in Z from entry(b) = T^(b), 1 <= b <= n: T^(0) = 1,
    T^(n+1) = 0, T^(a) = -T^(N-a), and 0 outside [0, N]."""
    N = 2 * n + 2
    if 1 <= a <= n:
        return entry(a)
    if n + 1 < a <= N:
        return -extend(n, N - a, entry)
    return ONE if a == 0 else ZERO


@lru_cache(maxsize=None)
def fundamental_poly(n: int, a: int) -> LaurentPoly:
    """Extended fundamental character T^(a)_1(u), a in Z: the admissible
    column sum for 1 <= a <= n, any other index by ``extend``."""
    if not 1 <= a <= n:
        return extend(n, a, partial(fundamental_poly, n))
    # stagger: k-th letter at u + (a - 2k)/2 relative to base u
    return weight_sum([(gen_column_tableaux(n, a),)], _table(n),
                      [a - 2 * k for k in range(1, a + 1)])


def _row_halves(m: int) -> list:
    """Where the letters of T^(1)_m(u) stand: the k-th at argument
    u + (2k - m - 2)/2."""
    return [2 * k - m - 2 for k in range(1, m + 1)]


@lru_cache(maxsize=None)
def row_poly(n: int, m: int) -> LaurentPoly:
    """T^(1)_m(u): sum over the length-m row tableaux, built from their
    blocks, letters placed by ``_row_halves``."""
    if m < 0:
        return ZERO
    return weight_sum(row_blocks(n, m), _table(n), _row_halves(m))


# --- hook family via the first-order recursion ------------------------

def hook_step(n: int, i: int, fund, prev):
    """H^(i)_{k+1}(u) = -T^(i)_1(u) H^(N-1)_k(u+(N+1-i)/2) - H^(i-1)_k(u+1/2)
    in any ring, from fund = T^(i)_1(u) and prev(j, h) = H^(j)_k(u+h/2);
    the H^(-1) term is zero."""
    N = 2 * n + 2
    out = -(fund * prev(N - 1, N + 1 - i))
    return out - prev(i - 1, 1) if i else out


def hook_rows(n: int, k_max: int, fund) -> list:
    """[[H^(i)_k(u) for i < N] for k <= k_max] by ``hook_step``, bottom-up
    from fund(a) = T^(a)_1(u) in any ring whose elements have ``.shift``:
    fund = partial(fundamental_poly, n) gives the hooks on Y."""
    N = 2 * n + 2
    funds, rows = [fund(i) for i in range(N)], [[ONE] + [ZERO] * (N - 1)]
    for _ in range(k_max):
        prev = rows[-1]
        rows.append([hook_step(n, i, funds[i], lambda j, h: prev[j].shift(h))
                     for i in range(N)])
    return rows


def _t(n: int, a: int, h: int) -> LaurentPoly:
    """t_a(h), the free symbol for T^(a)_1(u + h/2), any a by ``extend``."""
    return extend(n, a, lambda b: LaurentPoly.var(T_FAM, b, h))


# --- determinants and Pfaffians over the ring -------------------------

def det(mat: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant by column-subset dynamic programming."""
    msize = len(mat)
    if msize == 0:
        return ONE
    minors = {frozenset(): ONE}
    for j in range(msize):
        parts: dict = {}
        for cols, val in minors.items():
            free = [c for c in range(msize) if c not in cols]
            for pos, c in enumerate(free):
                parts.setdefault(cols | {c}, []).append(
                    (-1 if pos % 2 else 1, mat[j][c], val))
        minors = {cols: product_sum(triples)
                  for cols, triples in parts.items()}
    (val,) = minors.values()
    return val


def pfaffian(mat: list, total=product_sum, one=ONE):
    """Pfaffian of an antisymmetric even-size matrix by memoized first-row
    expansion; ``total`` sums (sign, a, b) as sign * a * b, ``one`` is 1."""
    if len(mat) % 2 != 0:
        raise ValueError("pfaffian needs even size")
    return _pfaffian_minor(mat, total, {(): one}, tuple(range(len(mat))))


def _pfaffian_minor(mat: list, total, memo: dict, idx: tuple):
    """The Pfaffian of ``mat`` on the rows and columns ``idx``, memoized in
    ``memo``; a module function, so that no closure refers to itself and
    the memo is freed with its last reference."""
    if idx not in memo:
        i0, rest = idx[0], idx[1:]
        memo[idx] = total(
            (-1 if pos % 2 else 1, mat[i0][j],
             _pfaffian_minor(mat, total, memo,
                             tuple(x for x in rest if x != j)))
            for pos, j in enumerate(rest))
    return memo[idx]


def jt_array(cols: list, half: int, entry) -> list:
    """The dual Jacobi-Trudi array [T^(c_j-j+l)(u + (half+j+l-c_j)/2)]_{j,l}
    of entry(a, h) = T^(a)_1(u + h/2), for column lengths ``cols``."""
    size = range(1, len(cols) + 1)
    return [[entry(c - j + l, half + j + l - c) for l in size]
            for j, c in zip(size, cols)]


def rectangle(n: int, a: int, m: int, entry, det, total, one):
    """T^(a)_m(u), 1 <= a <= n, from entry(b, h) = T^(b)_1(u + h/2): ``det``
    of the dual Jacobi-Trudi array (a < n), or (-1)^m ``pfaffian(mat, total,
    one)`` of mat = [T^(n+1-j+l)(u + (j+l+1-2m)/2)]_{j,l<2m} (a = n)."""
    if a < n:
        return det(jt_array([a] * m, a - m - 1, entry))
    if m < 1:
        raise ValueError("m must be >= 1")
    size = range(2 * m)
    mat = [[entry(n + 1 - j + l, j + l + 1 - 2 * m) for l in size]
           for j in size]
    if any(mat[j][l] != -mat[l][j] for j in size for l in size):
        raise ValueError("fundamental array is not antisymmetric")
    pf = pfaffian(mat, total, one)
    return pf if m % 2 == 0 else -pf


class CharacterValues:
    """Memoized exact values hook(i, k, half) of H^(i)_k and rect(a, m, half)
    of T^(a)_m (a <= n) at u0 + half/2 from fund(a, half), the value of
    T^(a)_1(u0 + half/2) for any a, by ``hook_step`` and ``rectangle``, as
    evaluation is a ring map commuting with shifts; plain dict memos."""

    def __init__(self, n: int, fund):
        self.n, self.fund, self._hooks, self._rects = n, fund, {}, {}

    def hook(self, i: int, k: int, half: int) -> Fraction:
        key = i, k, half
        if key not in self._hooks:
            self._hooks[key] = Fraction(i == 0) if k == 0 else hook_step(
                self.n, i, self.fund(i, half),
                lambda j, h: self.hook(j, k - 1, half + h))
        return self._hooks[key]

    def rect(self, a: int, m: int, half: int) -> Fraction:
        key = a, m, half
        if key not in self._rects:
            self._rects[key] = rectangle(
                self.n, a, m, lambda b, h: self.fund(b, half + h), det_frac,
                lambda triples: sum(s * x * y for s, x, y in triples), 1)
        return self._rects[key]


@lru_cache(maxsize=None)
def rect_poly(n: int, a: int, m: int) -> LaurentPoly:
    """T^(a)_m(u) for 0 <= a <= n, m >= 0: the row sum (a=1), else
    ``rectangle``'s determinant (a<n) or Pfaffian (a=n)."""
    if a == 0 or m == 0:
        return ONE
    if a == 1:
        return row_poly(n, m)
    return rectangle(n, a, m, lambda b, h: fundamental_poly(n, b).shift(h),
                     det, product_sum, ONE)


# --- functional-relation verification ---------------------------------

class RelationReport(PointReport):
    """A ``PointReport`` whose checks carry an empty ``"detail"``."""

    def add(self, name: str, ok: bool):
        self.checks.append({"identity": name, "ok": bool(ok), "detail": ""})


def _bilinear_zero(sums) -> list[bool]:
    """``sums_vanish``, under the one name that the relation checks call
    and that tests and ``bench/tracer.py`` patch."""
    return sums_vanish(sums)


def _operator_premises(n: int, top: int) -> list:
    """For m = 0..top, whether tt-tq's two convolutions hold at every m'
    <= m, read from L_z = ``build_L_C(n, "zFactored")``: with T^(1)_k(u
    + k/2) at D^k, they are L_z^-1 L_z = 1 and L_z L_z^-1 = 1 at D^m'.  So
    they hold if, for every a, k <= m, (i) L_z's D^a coefficient is (-1)^a
    T^(a)_1(u + a/2) and (ii) ``row_blocks(n, k)``, ``_row_halves(k)``
    moved by k half units, are the words of L_z^-1 at D^k, letter p at u
    + p - 1.  L_z^-1 inverts the (1 - c D^d) of ``diffop._z_factors`` in
    reverse order, c = z_{w_1}(u) ... z_{w_d}(u + d - 1) for a word w, and
    (1 - c D^d)^-1 = sum_j c(u) c(u + d) ... c(u + (j-1)d) D^{dj}: a run of
    degree-1 factors gives the weakly increasing runs over its letters, a
    factor of degree d > 1 gives w^j.  (ii) compares lists only."""
    L, z, parts = diffop.build_L_C(n, "zFactored"), _table(n).z, []
    for d, c in reversed(diffop._z_factors(n)):
        word = next((w for w in product(range(1, 2 * n + 1), repeat=d)
                     if c == prod((z(l, 2 * i) for i, l in enumerate(w)),
                                  start=ONE)), None)
        if word is None:  # L_z^-1 is no word sum: nothing is certified
            return [False] * (top + 1)
        if d > 1 or not parts or parts[-1][0] > 1:
            parts.append((d, list(word)))
        else:  # one more letter of a run of degree-1 factors
            parts[-1][1].append(*word)
    words = lambda d, w, s: (list(combinations_with_replacement(w, s))
                             if d == 1 else [tuple(w) * (s // d)])
    lengths = lambda block: [len(w) for run in block for w in run[:1]]

    def holds(m):  # (i) at a = m and (ii) at k = m
        splits = [split for split in product(*(range(0, m + 1, d)
                                               for d, _ in parts))
                  if sum(split) == m]  # in the order of their lengths
        return (L.coeff(m) == (-1) ** m * fundamental_poly(n, m).shift(m)
                and [h + m for h in _row_halves(m)] == list(range(0, 2 * m, 2))
                and sorted(row_blocks(n, m), key=lengths) == [
                    tuple(words(d, w, s) for (d, w), s in zip(parts, split))
                    for split in splits])
    return list(accumulate(map(holds, range(top + 1)), and_))


def verify_tsystem(n: int, m_max: int, pf_max: int) -> RelationReport:
    """Exact symbolic check of the four discrete-Toda relation families
    with determinant/Pfaffian values, in the symbols t_b(h).

    ``m_max`` bounds the relation index at the bulk nodes; ``pf_max``
    bounds the largest long-node index T^(n)_m entering a relation.
    T^(a)_m(u + h/2) enters as (T^(a)_m(u), h): ``rectangle`` for a > 1,
    a row F_m = -sum_{b>=1} (-1)^b t_b(m-b) F_{m-b}(u - b/2), F_0 = 1.
    A relation holds iff it vanishes formally, in one frame with all the
    others, and the ``_operator_premises`` hold up to its largest row.
    """
    rep = RelationReport()
    t = partial(_t, n)
    used, relations = [], []  # row indices; (name, triples, largest one)
    # plain memos, rows built bottom-up: an lru_cache'd R calling itself
    # would form a cycle and hold every value until the next collection
    rows, rects = [ONE], {}  # F_0, F_1, ...; (a, m) -> T^(a)_m(u), a > 1

    def R(a, m):
        if a == 0 or m == 0:
            return ONE
        if a > 1:
            if (a, m) not in rects:
                rects[a, m] = rectangle(n, a, m, t, det, product_sum, ONE)
            return rects[a, m]
        for k in range(len(rows), m + 1):
            rows.append(product_sum(((-1) ** (b + 1), t(b, k - b),
                                     rows[k - b].shift(-b))
                                    for b in range(1, k + 1)))
        return rows[m]

    def T(a, m, h):
        if a == 1:
            used.append(m)
        return R(a, m), h

    def add(name, triples):
        relations.append((name, triples, max(used, default=0)))
        used.clear()

    def long_term(k, j, p, i, q):
        # -T^(n-2)_k(u) T^(n)_j(u + p/2) T^(n)_i(u + q/2)
        (low, _), (pf, _) = T(n - 2, k, 0), T(n, j, 0)
        return -1, low * pf.shift(p), T(n, i, q)

    for a in range(1, n - 1):
        for m in range(1, m_max + 1):
            add(f"bulk relation a={a} m={m}", [
                (1, T(a, m, -1), T(a, m, 1)),
                (-1, T(a, m + 1, 0), T(a, m - 1, 0)),
                (-1, T(a - 1, m, 0), T(a + 1, m, 0)),
            ])
    for m in range(1, pf_max + 1):
        add(f"even row relation at a=n-1, m={m}", [
            (1, T(n - 1, 2 * m, -1), T(n - 1, 2 * m, 1)),
            (-1, T(n - 1, 2 * m + 1, 0), T(n - 1, 2 * m - 1, 0)),
            long_term(2 * m, m, -1, m, 1),
        ])
    for m in range(0, pf_max):
        add(f"odd row relation at a=n-1, m={m}", [
            (1, T(n - 1, 2 * m + 1, -1), T(n - 1, 2 * m + 1, 1)),
            (-1, T(n - 1, 2 * m + 2, 0), T(n - 1, 2 * m, 0)),
            long_term(2 * m + 1, m, 0, m + 1, 0),
        ])
    for m in range(1, pf_max):
        add(f"long-node relation m={m}", [
            (1, T(n, m, -2), T(n, m, 2)),
            (-1, T(n, m + 1, 0), T(n, m - 1, 0)),
            (-1, T(n - 1, 2 * m, 0), ONE),
        ])
    bridge = _operator_premises(n, max([0] + [top for *_, top in relations]))
    formal = _bilinear_zero([triples for _, triples, _ in relations])
    for (name, _, top), ok in zip(relations, formal):
        rep.add(name, ok and bridge[top])
    return rep


def verify_tt_tq(n: int, m_max: int) -> RelationReport:
    """The two bilinear convolutions between rows and fundamentals,
    sum_a (-1)^a T^(1)_{m-a}(u - a/2) T^(a)_1(u + (m-a)/2) = [m = 0] and
    sum_a (-1)^a T^(a)_1(u + a/2) T^(1)_{m-a}(u + (m+a)/2) = [m = 0],
    from ``_operator_premises``, and the Baxter-function relation."""
    rep = RelationReport()
    cartan = CartanData(AlgebraSpec("C", n))
    for m, ok in enumerate(_operator_premises(n, m_max)):
        rep.add(f"first convolution m={m}", ok)
        rep.add(f"second convolution m={m}", ok)
    rep.add("Baxter-function relation", _bilinear_zero([[
        ((-1) ** a, Qv(1, 2 * a), (f.to_q(cartan), a))  # Q_1(u+a)
        for a in range(2 * n + 3)
        if not (f := fundamental_poly(n, a)).is_zero]])[0])
    return rep


def companion_matrix(n: int, half: int, entry) -> list[list[LaurentPoly]]:
    """N x N one-step transfer matrix at u + half/2 from entry(a, h) =
    T^(a)_1(u + h/2): subdiagonal 1's and a last column of signed shifted
    fundamentals."""
    N = 2 * n + 2
    return [[(-1) ** i * entry(i, half + i) if j == N - 1
             else ONE if j == i - 1 else ZERO for j in range(N)]
            for i in range(N)]


def _mat_mul(A, B):
    size = range(len(A))
    return [[product_sum((1, A[i][k], B[k][j]) for k in size
                         if not A[i][k].is_zero and not B[k][j].is_zero)
             for j in size] for i in size]


def verify_product_formula(n: int, k_max: int) -> list[bool]:
    """For k = 1..k_max, whether the ordered product of k one-step
    transfer matrices equals the k-step hook matrix [(-1)^i H^(i)_{k+j}(u
    + i/2)]_{i,j<N}, in the symbols t_a(h): one running product, the
    hooks from ``hook_rows``."""
    N, t = 2 * n + 2, partial(_t, n)
    hooks = hook_rows(n, k_max + N - 1, partial(t, h=0))
    prod, out = companion_matrix(n, 0, t), []
    for k in range(1, k_max + 1):
        if k > 1:
            prod = _mat_mul(prod, companion_matrix(n, 2 * k - 2, t))
        out.append(prod == [[(-1) ** i * hooks[k + j][i].shift(i)
                             for j in range(N)] for i in range(N)])
    return out


def highest_weight_key(n: int, i: int, k: int) -> dict:
    """Expected leading monomial of sigma_i H^(i)_k(u+i/2), as an
    exponent dict: Y_{min(i,N-i)}(u+i/2) times a string of Y_1 factors,
    with the i = n+1 case starting its string one step later from
    Y_n(u+(n+2)/2)."""
    N = 2 * n + 2
    exps: dict = {}

    def bump(idx, half):
        if idx == 0:
            return
        key = vk(Y_FAM, idx, half)
        exps[key] = exps.get(key, 0) + 1

    if i == n + 1:
        bump(n, n + 2)
        start = 2
    else:
        bump(min(i, N - i), i)
        start = 1
    for j in range(start, k - N + 1):
        bump(1, N + 2 * j - 1)
    return exps


def verify_highest_weight(n: int, k_min: int, k_max: int) -> RelationReport:
    """sigma_i H^(i)_k(u+i/2) contains the expected leading monomial
    with coefficient exactly 1."""
    N = 2 * n + 2
    rep = RelationReport()
    hooks = hook_rows(n, k_max, partial(fundamental_poly, n))
    for k in range(k_min, k_max + 1):
        for i in range(0, N):
            sigma = 1 if i <= n else -1
            p = hooks[k][i].shift(i)
            c = p.coeff_of(highest_weight_key(n, i, k))
            rep.add(f"leading monomial of H^({i})_{k}", sigma * c == 1)
    return rep


def verify_hseries(n: int, k_extra: int = 3, prod_k_max: int | None = None) -> RelationReport:
    """Recursion output equals the hook determinant -det(``jt_array([N-i] +
    [1] * (k-N), N-2-i)``) for N <= k <= N+k_extra, and the ordered product
    of one-step transfer matrices equals the k-step hook matrix, both in
    the symbols t_a(h)."""
    N, t = 2 * n + 2, partial(_t, n)
    rep = RelationReport()
    hooks = hook_rows(n, N + k_extra, partial(t, h=0))
    for k in range(N, N + k_extra + 1):
        for i in range(0, N):
            rep.add(f"hook determinant for H^({i})_{k}", hooks[k][i]
                    == -det(jt_array([N - i] + [1] * (k - N), N - 2 - i, t)))
    if prod_k_max is None:
        prod_k_max = N + 2
    for k, ok in enumerate(verify_product_formula(n, prod_k_max), 1):
        rep.add(f"transfer-matrix product at k={k}", ok)
    return rep
