"""Tableau enumeration and the weight-preserving cancellation bijection.

Letters of the ordered alphabet 1 < ... < n < nbar < ... < 1bar are
encoded as integers 1..2n with bar(a) = 2n+1-a.  The x-alphabet of the
C series is encoded as plain integers 1..N = 2n+2.  Tableaux are plain
tuples of letter codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product
from math import comb

from .ring import (LaurentPoly, VariableTable, AlgebraSpec, Words, bar,
                   is_barred, word_sum)


# --- admissibility ----------------------------------------------------

def _breaking_pairs(t: tuple, n: int):
    """(c, gap) for every pair t_k = c, t_l = cbar (k < l) that breaks
    the column condition n + k - l >= c; gap = l - k - 1 letters lie
    between the two entries."""
    for k, c in enumerate(t):
        if is_barred(c, n):
            continue
        cb = bar(c, n)
        for l in range(k + 1, len(t)):
            if t[l] == cb and n + k - l < c:
                yield c, l - k - 1


def pair_ok(t: tuple, n: int) -> bool:
    """Check the column condition: whenever t_k = c and t_l = cbar
    (k < l), n + k - l >= c must hold."""
    return not any(_breaking_pairs(t, n))


def strictly_increasing(t: tuple) -> bool:
    return all(t[i] < t[i + 1] for i in range(len(t) - 1))


# --- enumeration ------------------------------------------------------

def gen_column_tableaux(n: int, a: int) -> list[tuple]:
    """Strictly increasing admissible columns of length a; their count
    is C(2n,a) - C(2n,a-2)."""
    if not (0 <= a <= n):
        raise ValueError(f"column length out of range: {a}")
    out = [t for t in combinations(range(1, 2 * n + 1), a) if pair_ok(t, n)]
    if len(out) != comb(2 * n, a) - (comb(2 * n, a - 2) if a >= 2 else 0):
        raise AssertionError(
            f"admissible column count wrong for n={n}, a={a}: {len(out)}")
    return out


def row_blocks(n: int, m: int) -> list[tuple]:
    """The length-m rows as blocks (lefts, [(nbar, n)^k], rights), one per
    k and r: lefts are the weakly increasing runs of r plain letters and
    rights those of m - 2k - r barred letters.  This is the word set of
    the inverse of the factorized operator at D^m, as
    ``characters._operator_premises`` checks from its factors:
    T^(1)_m = sum_{r+2k+s=m} h_r(plain) (nbar n)^k h_s(barred), strictly
    smaller than arbitrary (nbar, n) descents from length 3 on."""
    if m < 0:
        raise ValueError("row length must be >= 0")
    nb = bar(n, n)
    plain, barred = ([list(combinations_with_replacement(letters, s))
                      for s in range(m + 1)]
                     for letters in (range(1, n + 1), range(nb, 2 * n + 1)))
    return [(plain[r], [(nb, n) * k], barred[m - 2 * k - r])
            for k in range(m // 2 + 1) for r in range(m - 2 * k + 1)]


def gen_row_tableaux(n: int, m: int) -> list[tuple]:
    """The length-m rows: the words of ``row_blocks(n, m)``, in order."""
    return [left + mid + right for block in row_blocks(n, m)
            for left, mid, right in product(*block)]


def gen_x_tableaux(n: int, a: int) -> list[tuple]:
    """Strictly increasing sequences over the x-alphabet 1..N."""
    N = 2 * n + 2
    if not (0 <= a <= N):
        raise ValueError(f"x-column length out of range: {a}")
    return list(combinations(range(1, N + 1), a))


# --- weights ----------------------------------------------------------

def weight_sum(blocks, table: VariableTable, halves: list,
               convention: str = "Z") -> LaurentPoly:
    """Sum of the product weights of the words of ``blocks``, each of
    length len(halves): the k-th letter (0-based) contributes its template
    at u + halves[k]/2, the ``word_sum`` of their ``Words``.

    Convention 'Z' reads letters from the barred alphabet (Y-variables),
    'X' from the x-alphabet (Q-variables, middle letters signed).
    """
    if convention not in ("Z", "X"):
        raise ValueError(f"unknown convention {convention!r}")
    template, top = ((table.z, 2 * table.n) if convention == "Z"
                     else (table.x, 2 * table.n + 2))
    return word_sum(Words({c: template(c) for c in range(1, top + 1)},
                          halves, blocks))


def tableau_weight(t: tuple, table: VariableTable) -> LaurentPoly:
    """Staggered product weight in the 'Z' convention: the k-th letter
    (1-based) contributes its template at u + 1 - k."""
    return weight_sum([([t],)], table, [-2 * k for k in range(len(t))])


# --- the pair-lowering maps tau_b / sigma_b ---------------------------

def _move_pairs(t: tuple, n: int, c: int, to: int, gap: int) -> tuple:
    """Replace every (c, cbar) pair separated by exactly gap letters
    with (to, tobar)."""
    cb = bar(c, n)
    out = list(t)
    for k in range(len(t) - gap - 1):
        l = k + gap + 1
        if t[k] == c and t[l] == cb:
            out[k], out[l] = to, bar(to, n)
    return tuple(out)


def tau_b(t: tuple, n: int, b: int) -> tuple:
    """Lower every (b, bbar) pair at separation n-b+1 to
    (b-1, (b-1)bar); identity when no pair matches."""
    if not (2 <= b <= n):
        raise ValueError(f"b out of range: {b}")
    return _move_pairs(t, n, b, b - 1, n - b + 1)


def sigma_b(t: tuple, n: int, b: int) -> tuple:
    """Raise every (b-1, (b-1)bar) pair at separation n-b+1 back to
    (b, bbar); inverse step of tau_b."""
    if not (3 <= b <= n):
        raise ValueError(f"b out of range: {b}")
    return _move_pairs(t, n, b - 1, b, n - b + 1)


# --- the sets V and W -------------------------------------------------

def gen_V(n: int, a: int) -> list[tuple]:
    """Arrays (i_1 < ... < i_k <= n, n, nbar, j_1 < ... < j_{a-2-k})
    with plain prefix and barred suffix."""
    nb = bar(n, n)
    out = set()
    for k in range(0, a - 1):
        for pre in combinations(range(1, n + 1), k):
            for suf in combinations(range(nb, 2 * n + 1), a - 2 - k):
                out.add(pre + (n, nb) + suf)
    return sorted(out)


def gen_W(n: int, a: int) -> list[tuple]:
    """Strictly increasing arrays breaking the column condition."""
    return [t for t in combinations(range(1, 2 * n + 1), a)
            if not pair_ok(t, n)]


def in_V(t: tuple, n: int) -> bool:
    t = tuple(t)
    k = sum(not is_barred(c, n) for c in t)  # t[:k] plain, t[k:] barred
    return (all(is_barred(c, n) for c in t[k:]) and t[k - 1:k] == (n,)
            and t[k:k + 1] == (bar(n, n),) and strictly_increasing(t[:k - 1])
            and strictly_increasing(t[k + 1:]))


def in_W(t: tuple, n: int) -> bool:
    return strictly_increasing(t) and not pair_ok(t, n)


# --- the full descent map and its inverse -----------------------------

def tau_full(t: tuple, n: int) -> tuple[tuple, int]:
    """Apply tau_n, tau_{n-1}, ... until a step acts trivially; returns
    the image (which lies in W) and the stopping index p."""
    chain, p = descent_chain(t, n)
    return chain[-1], p


def descent_chain(t: tuple, n: int) -> tuple[list[tuple], int]:
    """All intermediate tableaux of the descent map, starting from t,
    one entry per nontrivial step, plus the stopping index p."""
    if not in_V(t, n):
        raise ValueError(f"tableau not in V: {t}")
    chain = [t]
    cur = t
    for d in range(n, 1, -1):
        nxt = tau_b(cur, n, d)
        if nxt == cur:
            return chain, d
        chain.append(nxt)
        cur = nxt
    raise AssertionError(f"descent did not terminate for {t}")


def maximal_breaking_pair(t: tuple, n: int) -> tuple[int, int]:
    """Largest q whose (q, qbar) pair breaks the column condition, and
    the letter count between the two entries."""
    if not in_W(t, n):
        raise ValueError(f"tableau not in W: {t}")
    return max(_breaking_pairs(t, n))


def sigma_full(s: tuple, n: int) -> tuple:
    """Inverse of tau_full: raise from the maximal breaking pair back
    up to (n, nbar)."""
    p, _ = maximal_breaking_pair(s, n)
    cur = s
    for b in range(p + 1, n + 1):
        cur = sigma_b(cur, n, b)
    return cur


# --- cancellation verification ----------------------------------------

@dataclass
class CancellationReport:
    admissible_count: int = 0
    x_equals_admissible: bool = False
    mixed_groups_cancel: bool = False
    bijection_ok: bool = True
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.x_equals_admissible and self.mixed_groups_cancel
                and self.bijection_ok)


def verify_cancellation(n: int, a: int) -> CancellationReport:
    """Three independent confirmations that the signed x-sum collapses
    to the admissible column sum."""
    if not (1 <= a <= n):
        raise ValueError(f"a out of range: {a}")
    rep = CancellationReport()
    table = VariableTable(AlgebraSpec("C", n))
    cartan = table.cartan

    # (i) signed x-sum equals the admissible z-sum, in Q-representation
    halves = [-2 * k for k in range(a)]
    xs = gen_x_tableaux(n, a)
    xsum = weight_sum([(xs,)], table, halves, "X")
    one_middle = [t for t in xs if ((n + 1) in t) != ((n + 2) in t)]
    mixed = weight_sum([(one_middle,)], table, halves, "X")
    columns = gen_column_tableaux(n, a)
    zsum_q = weight_sum([(columns,)], table, halves).to_q(cartan)
    rep.admissible_count = len(columns)
    rep.x_equals_admissible = xsum == zsum_q
    if not rep.x_equals_admissible:
        rep.failures.append("signed x-sum != admissible z-sum")

    # (ii) the two mixed groups (exactly one middle letter) cancel
    rep.mixed_groups_cancel = mixed.is_zero
    if not rep.mixed_groups_cancel:
        rep.failures.append("mixed middle-letter groups do not cancel")

    # (iii) the descent map is a weight-preserving bijection V -> W
    if a >= 3:
        V = gen_V(n, a)
        W = gen_W(n, a)
        images = {}
        for t in V:
            img, p = tau_full(t, n)
            wt_t = tableau_weight(t, table)
            wt_i = tableau_weight(img, table)
            if wt_t != wt_i:
                rep.bijection_ok = False
                rep.failures.append(f"weight changed: {t} -> {img}")
            if not in_W(img, n):
                rep.bijection_ok = False
                rep.failures.append(f"image not in W: {t} -> {img}")
                continue  # sigma_full and the breaking pair need W
            if sigma_full(img, n) != t:
                rep.bijection_ok = False
                rep.failures.append(f"inverse failed at {t}")
            q, gap = maximal_breaking_pair(img, n)
            if q != p or gap != n - q:
                rep.bijection_ok = False
                rep.failures.append(
                    f"breaking pair mismatch at {img}: ({q}, gap {gap})")
            images[img] = t
        if len(images) != len(V) or set(images) != set(W):
            rep.bijection_ok = False
            rep.failures.append("descent map is not a bijection onto W")
        for s in W:
            back = sigma_full(s, n)
            if not in_V(back, n) or tau_full(back, n)[0] != s:
                rep.bijection_ok = False
                rep.failures.append(f"raise map failed at {s}")
    else:
        # length < 3: W is empty and V sums telescope directly
        vsum = weight_sum([(gen_V(n, a),)], table, halves)
        wsum = weight_sum([(gen_W(n, a),)], table, halves)
        if vsum != wsum:
            rep.bijection_ok = False
            rep.failures.append("V-sum != W-sum at small length")
    return rep
