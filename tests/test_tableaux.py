"""Column/row tableau generation, the descent map, and cancellation."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qchar import tableaux
from qchar.ring import AlgebraSpec, VariableTable, bar, is_barred
from qchar.tableaux import (pair_ok, gen_column_tableaux, gen_row_tableaux,
                            gen_x_tableaux, tableau_weight, gen_V, gen_W,
                            in_V, in_W, tau_full, sigma_full, tau_b, sigma_b,
                            descent_chain, maximal_breaking_pair,
                            verify_cancellation)


@pytest.mark.parametrize("n,a", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3)])
def test_column_count(n, a):
    cols = gen_column_tableaux(n, a)
    lower = comb(2 * n, a - 2) if a >= 2 else 0
    assert len(cols) == comb(2 * n, a) - lower
    assert all(len(t) == a and all(1 <= c <= 2 * n for c in t) for t in cols)
    assert all(pair_ok(t, n) for t in cols)


def test_column_condition_rejects_close_pairs():
    # (q, qbar) with too few letters in between breaks admissibility
    n = 2
    assert not pair_ok((2, bar(2, 2)), n)
    assert pair_ok((1, bar(1, 2)), n)


def test_row_block_structure():
    n, m = 2, 3
    rows = gen_row_tableaux(n, m)
    nb = bar(n, n)
    for t in rows:
        # plains, then (nbar, n) pairs, then bars, each weakly increasing
        i = 0
        while i < len(t) and t[i] <= n and (i == 0 or t[i - 1] <= t[i]):
            i += 1
        j = i
        while j + 1 < len(t) and (t[j], t[j + 1]) == (nb, n):
            j += 2
        rest = t[j:]
        assert all(c >= nb for c in rest)
        assert all(rest[k] <= rest[k + 1] for k in range(len(rest) - 1))
    assert len(rows) == len(set(rows))


def test_row_count_matches_operator_inverse():
    # the m-th inverse coefficient of the factorized operator counts
    # exactly the admitted words (n=2, m=3: 24, not the 26 that a purely
    # local adjacency condition would give)
    assert len(gen_row_tableaux(2, 3)) == 24


def _weak(length, lo, hi):
    """The recursion gen_row_tableaux used before
    combinations_with_replacement: weakly increasing words over
    [lo, hi]."""
    if length == 0:
        yield ()
        return
    for c in range(lo, hi + 1):
        for rest in _weak(length - 1, c, hi):
            yield (c,) + rest


def _recursive_rows(n, m):
    nb = bar(n, n)
    return [left + (nb, n) * k + right
            for k in range(0, m // 2 + 1)
            for r in range(0, m - 2 * k + 1)
            for left in _weak(r, 1, n)
            for right in _weak(m - 2 * k - r, nb, 2 * n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rows_match_recursive_enumeration(n):
    # same words in the same order, which fixes the term order of every
    # row character built from them
    for m in range(0, 10):
        assert gen_row_tableaux(n, m) == _recursive_rows(n, m), (n, m)


def test_x_tableaux_are_strict_words():
    xs = gen_x_tableaux(2, 2)
    assert all(len(t) == 2 for t in xs)
    assert len(xs) == len(set(xs))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4))
def test_weight_is_monomial(n, a):
    a = min(a, n)
    table = VariableTable(AlgebraSpec("C", n))
    for t in gen_column_tableaux(n, a)[:10]:
        w = tableau_weight(t, table)
        assert w.n_terms == 1


def test_tau_sigma_single_step_inverse():
    n = 3
    for a in range(3, n + 1):
        for t in gen_V(n, a):
            img, p = tau_full(t, n)
            assert in_W(img, n)
            assert sigma_full(img, n) == t


def test_descent_chain_reproduces_known_case():
    # n = a = 9 worked example: five nontrivial steps, stop at p = 4
    start = (3, 5, 7, 9, 9, 10, 11, 12, 16)
    chain, p = descent_chain(start, 9)
    assert p == 4
    assert chain == [
        (3, 5, 7, 9, 9, 10, 11, 12, 16),
        (3, 5, 7, 8, 9, 11, 11, 12, 16),
        (3, 5, 7, 7, 9, 11, 12, 12, 16),
        (3, 5, 6, 6, 9, 11, 13, 13, 16),
        (3, 5, 5, 6, 9, 11, 13, 14, 16),
        (3, 4, 5, 6, 9, 11, 13, 15, 16),
    ]
    q, gap = maximal_breaking_pair(chain[-1], 9)
    assert (q, gap) == (4, 9 - 4)


def test_breaking_pair_gap_rule():
    # the maximal breaking pair (q, qbar) always has exactly n-q letters
    # in between
    n = 4
    for a in range(3, n + 1):
        for s in gen_W(n, a):
            q, gap = maximal_breaking_pair(s, n)
            assert gap == n - q


def test_v_w_membership_predicates():
    n = 3
    V = set(gen_V(n, 3))
    W = set(gen_W(n, 3))
    assert all(in_V(t, n) for t in V)
    assert all(in_W(t, n) for t in W)


@pytest.mark.parametrize("n", [2, 3])
def test_cancellation_small_ranks(n):
    for a in range(1, n + 1):
        rep = verify_cancellation(n, a)
        assert rep.ok, rep.failures
        assert rep.x_equals_admissible and rep.mixed_groups_cancel


# Reference loops: each rule written out with its own scan, independent
# of the library's shared `_breaking_pairs` scan and `_move_pairs` move.

def pair_ok_oracle(t, n):
    for k in range(len(t)):
        if is_barred(t[k], n):
            continue
        c = t[k]
        cb = bar(c, n)
        for l in range(k + 1, len(t)):
            if t[l] == cb and n + (k + 1) - (l + 1) < c:
                return False
    return True


def maximal_breaking_pair_oracle(t, n):
    best = None
    for k in range(len(t)):
        c = t[k]
        if is_barred(c, n):
            continue
        cb = bar(c, n)
        for l in range(k + 1, len(t)):
            if t[l] == cb and n + (k + 1) - (l + 1) < c:
                if best is None or c > best[0]:
                    best = (c, l - k - 1)
    return best


def _matched_pairs(t, n, c, gap):
    cb = bar(c, n)
    out = []
    for k, v in enumerate(t):
        l = k + gap + 1
        if v == c and l < len(t) and t[l] == cb:
            out.append((k, l))
    return out


def _replace_pairs(t, n, pairs, to):
    out = list(t)
    for k, l in pairs:
        out[k] = to
        out[l] = bar(to, n)
    return tuple(out)


def tau_b_oracle(t, n, b):
    return _replace_pairs(t, n, _matched_pairs(t, n, b, n - b + 1), b - 1)


def sigma_b_oracle(t, n, b):
    return _replace_pairs(t, n, _matched_pairs(t, n, b - 1, n - b + 1), b)


def _oracle_words(n):
    """Every strictly increasing word over 1..2n (the words of V and W
    among them) and every descent-chain step from V."""
    words = set()
    for a in range(2 * n + 1):
        words.update(combinations(range(1, 2 * n + 1), a))
    for a in range(1, n + 1):
        for t in gen_V(n, a):
            words.update(descent_chain(t, n)[0])
    return sorted(words)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_shared_rules_match_reference_loops(n):
    for t in _oracle_words(n):
        assert pair_ok(t, n) == pair_ok_oracle(t, n), t
        if in_W(t, n):
            assert maximal_breaking_pair(t, n) == \
                maximal_breaking_pair_oracle(t, n), t
        for b in range(2, n + 1):
            assert tau_b(t, n, b) == tau_b_oracle(t, n, b), (t, b)
        for b in range(3, n + 1):
            assert sigma_b(t, n, b) == sigma_b_oracle(t, n, b), (t, b)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bijection_check_catches_a_misplaced_pair_move(n, monkeypatch):
    # moving pairs one letter too far apart must break the descent
    # bijection that verify_cancellation certifies
    move = tableaux._move_pairs
    monkeypatch.setattr(tableaux, "_move_pairs",
                        lambda t, rank, c, to, gap:
                        move(t, rank, c, to, gap + 1))
    assert any(not verify_cancellation(n, a).bijection_ok
               for a in range(3, n + 1))
