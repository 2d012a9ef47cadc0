"""Character families: fundamentals, rows, rectangles, hook series."""

import functools
import gc
import operator
import os
import subprocess
import sys
from itertools import accumulate
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qchar import characters, diffop, ring
from qchar.ring import (AlgebraSpec, CartanData, LaurentPoly, VariableTable,
                        Words, Y, vk, Y_FAM, ONE, ZERO, poly_sum,
                        product_sum, sums_vanish, word_sum)
from qchar.characters import (_row_halves, fundamental_poly, row_poly, h_poly,
                              jacobi_trudi, det, pfaffian, rect_poly,
                              verify_tsystem, verify_tt_tq,
                              verify_hseries, verify_highest_weight,
                              verify_product_formula, highest_weight_key)
from qchar.diffop import build_L_C
from qchar.tableaux import (gen_column_tableaux, gen_row_tableaux, gen_W,
                            gen_x_tableaux, row_blocks, tableau_weight,
                            weight_sum)
from test_mutants import MUTANTS, _clear_caches, _middle_z_n_at_u


def product_sum_vanishes(triples):
    """Whether one sum of (sign, A, B) triples vanishes: the tests'
    shorthand for its verdict in a batch of one."""
    return sums_vanish([triples])[0]


def per_letter_weight(t, template, halves):
    """The product weight as it was built before word_sum: one
    polynomial product per letter."""
    w = ONE
    for c, h in zip(t, halves):
        w = w * template(c, h)
    return w


def test_known_fundamentals_rank2():
    f1 = fundamental_poly(2, 1)
    assert f1.n_terms == 4
    assert f1 == (Y(1, 0) + Y(2, 1) * Y(1, 2, -1)
                  + Y(1, 4) * Y(2, 5, -1) + Y(1, 6, -1))
    f2 = fundamental_poly(2, 2)
    assert f2.n_terms == 5
    assert f2 == (Y(2, 0) + Y(1, 1) * Y(1, 3) * Y(2, 4, -1)
                  + Y(1, 1) * Y(1, 5, -1)
                  + Y(2, 2) * Y(1, 3, -1) * Y(1, 5, -1) + Y(2, 6, -1))


def test_extended_fundamental_indices():
    n = 2
    N = 6
    assert fundamental_poly(n, 0) == ONE
    assert fundamental_poly(n, n + 1) == ZERO
    assert fundamental_poly(n, -1) == ZERO
    assert fundamental_poly(n, N + 1) == ZERO
    for a in range(1, n + 1):
        assert fundamental_poly(n, N - a) == -fundamental_poly(n, a)


def test_highest_weight_flags():
    assert fundamental_poly(2, 1).coeff_of({vk(Y_FAM, 1, 0): 1}) == 1
    assert fundamental_poly(2, 1).coeff_of({vk(Y_FAM, 2, 0): 1}) != 1


@pytest.mark.parametrize("n", [2, 3])
def test_rows_match_operator_inverse(n):
    cartan = CartanData(AlgebraSpec("C", n))
    L = build_L_C(n, "xFactored")
    inv = L.inverse_series(5)
    for m in range(0, 6):
        assert -inv.coeff(m) == row_poly(n, m).shift(m).to_q(cartan)


def test_det_and_pfaffian_consistency():
    mat = [[ZERO, Y(1, 0), Y(2, 0), Y(1, 2)],
           [-Y(1, 0), ZERO, Y(1, 4), Y(2, 4)],
           [-Y(2, 0), -Y(1, 4), ZERO, Y(1, 6)],
           [-Y(1, 2), -Y(2, 4), -Y(1, 6), ZERO]]
    pf = pfaffian(mat)
    assert det(mat) == pf * pf


def _det_oracle(mat):
    """Laplace expansion along the first row, each product built with
    * and negated before poly_sum adds them."""
    if not mat:
        return ONE
    terms = []
    for c in range(len(mat)):
        term = mat[0][c] * _det_oracle([row[:c] + row[c + 1:]
                                        for row in mat[1:]])
        terms.append(-term if c % 2 else term)
    return poly_sum(terms)


def _pfaffian_oracle(mat, idx):
    if not idx:
        return ONE
    terms = []
    for pos, j in enumerate(idx[1:]):
        term = mat[idx[0]][j] * _pfaffian_oracle(
            mat, [x for x in idx[1:] if x != j])
        terms.append(-term if pos % 2 else term)
    return poly_sum(terms)


# a later draw of a variable replaces an earlier one, so no draw is
# retried for a duplicate key, as the unique keys of st.dictionaries are
_entries = st.lists(st.tuples(
    st.sampled_from([c for c in range(-3, 4) if c]),
    st.lists(st.tuples(st.tuples(st.integers(1, 2), st.integers(-3, 3)),
                       st.sampled_from([e for e in range(-2, 3) if e])),
             max_size=2).map(dict)),
    max_size=3).map(lambda terms: poly_sum(LaurentPoly.monomial(
        c, {vk(Y_FAM, a, h): e for (a, h), e in exps.items()})
        for c, exps in terms))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(_entries, min_size=k, max_size=k),
                       min_size=k, max_size=k)))
def test_det_and_pfaffian_match_expansion_oracle(mat):
    k = len(mat)
    assert det(mat) == _det_oracle(mat)
    # the strict upper triangle of mat, made antisymmetric
    anti = [[mat[i][j] if i < j else -mat[j][i] if i > j else ZERO
             for j in range(k)] for i in range(k)]
    if k % 2:
        with pytest.raises(ValueError):
            pfaffian(anti)
    else:
        assert pfaffian(anti) == _pfaffian_oracle(anti, list(range(k)))


def test_rectangles_match_rows_at_width_one():
    # the a=1 rectangle determinant reproduces the tableau row sum
    for m in range(1, 4):
        assert jacobi_trudi(2, [1] * m, -m) == row_poly(2, m)


def test_rect_poly_dispatch():
    assert rect_poly(2, 1, 2) == jacobi_trudi(2, [1, 1], -2)
    # T^(n)_m = (-1)^m Pf [T^(n+1-j+l)(u + (j+l+1-2m)/2)]_{j,l<2m}, n = m = 2
    assert rect_poly(2, 2, 2) == pfaffian(
        [[fundamental_poly(2, 3 - j + l).shift(j + l - 3) for l in range(4)]
         for j in range(4)])
    assert rect_poly(3, 2, 1) == fundamental_poly(3, 2)


def test_hook_recursion_seeds():
    n = 2
    N = 6
    for i in range(0, N):
        for k in range(0, N):
            want = ((-1) ** i) * ONE if i == k else ZERO
            assert h_poly(n, i, k) == want
    for i in range(0, N):
        assert h_poly(n, i, N) == fundamental_poly(n, i)


def test_hook_determinant_matches_recursion():
    n = 2
    N = 6
    for k in (N, N + 1):
        for i in range(0, N):
            assert h_poly(n, i, k) == -jacobi_trudi(
                n, [N - i] + [1] * (k - N), N - 2 - i)


def test_tsystem_rank2():
    rep = verify_tsystem(2, 2, 2)
    assert rep.ok, [c for c in rep.checks if not c["ok"]]


def test_tsystem_rank4():
    # far past any size on Y: T^(3)_5 alone has 829,866 terms there
    rep = verify_tsystem(4, 4, 3)
    assert rep.ok and len(rep.checks) == 16, [
        c for c in rep.checks if not c["ok"]]


def test_tsystem_leaves_no_cycles():
    # the formal rectangles, rows and Pfaffian minors of a call are held
    # by nothing that refers back to itself, so all of them are freed
    # when the call returns, not at the next cyclic collection.  A first
    # call fills the module's caches, which outlive it by design.
    assert verify_tsystem(2, 5, 5).ok
    gc.collect()
    gc.disable()
    try:
        assert verify_tsystem(2, 5, 5).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pfaffian_leaves_no_cycles():
    mat = [[ZERO, Y(1), Y(2), ONE], [-Y(1), ZERO, Y(3), Y(1, 2)],
           [-Y(2), -Y(3), ZERO, Y(2, 1)], [-ONE, -Y(1, 2), -Y(2, 1), ZERO]]
    gc.collect()
    gc.disable()
    try:
        assert pfaffian(mat) == Y(1) * Y(2, 1) - Y(2) * Y(1, 2) + Y(3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _drop_first_term(p):
    mono, c = next(p.terms())
    return p - LaurentPoly.monomial(c, dict(mono))


def _at(operand):
    """(x, half) of a zero-test operand: x, or (x, half) for x shifted by
    half, x a polynomial or Words."""
    return operand if type(operand) is tuple else (operand, 0)


def _poly(operand):
    """The polynomial a zero-test operand stands for, Words built by
    word_sum."""
    x, half = _at(operand)
    return (word_sum(x) if isinstance(x, Words) else x).shift(half)


def _shifted(operand, d):
    """The operand shifted by d half-units more."""
    x, half = _at(operand)
    return x, half + d


def _row_operands(n):
    """row(m): T^(1)_m(u) as a zero-test operand, the ``Words`` of
    ``row_blocks(n, m)`` over the letter templates at u, placed by
    ``_row_halves``, one object per m: no row is built or decoded."""
    z = {c: characters._table(n).z(c) for c in range(1, 2 * n + 1)}
    return functools.lru_cache(maxsize=None)(lambda m: Words(
        z, characters._row_halves(m), characters.row_blocks(n, m)))


def _convolution(n, top, s=1):
    """The oracle on Y: whether tt-tq's first (s = 1) or second (s = -1)
    convolution holds at m = 0..top, in one frame: sum_a (-1)^a
    T^(1)_{m-a}(u - a/2) T^(a)_1(u + (m-a)/2) = [m = 0], or with
    T^(1)_{m-a}(u + (m+a)/2) T^(a)_1(u + a/2).  The sum at m is shifted by
    m or -2m half units (a ring automorphism fixing 1), so row k stands
    at u + s*k/2 in all."""
    row = _row_operands(n)
    return characters._bilinear_zero(
        [[((-1) ** a, (row(m - a), s * (m - a)), (f, s * (2 * m - a)))
          for a in range(m + 1)
          if not (f := characters.fundamental_poly(n, a)).is_zero]
         + [(-1, ONE, ONE)] * (m == 0) for m in range(top + 1)])


def _relations(n, *args):
    """Every relation's formal (sign, A, B) triples of verify_tsystem(n,
    *args), recorded instead of tested, with the names of its checks; the
    bridge, the operator's premises, is taken to hold."""
    relations = []

    def record(sums):
        relations.extend(map(list, sums))
        return [True] * len(relations)

    with mock.patch.object(characters, "_bilinear_zero", record), \
            mock.patch.object(characters, "_operator_premises",
                              lambda n, top: [True] * (top + 1)):
        checks = verify_tsystem(n, *args).checks
    assert len(relations) == len(checks) > 0
    return [c["identity"] for c in checks], relations


def _y_relations(n, m_max, pf_max):
    """The oracle: the relations of verify_tsystem(n, m_max, pf_max) on Y,
    (the names of its checks, each relation's (sign, A, B) triples).  A
    row T^(1)_m(u + h/2) enters as its words (``_row_operands``), any
    other T^(a)_m(u + h/2) as (rect_poly(n, a, m), h); where T^(n-2) is a
    row (n = 3), the long term multiplies the two Pfaffians instead."""
    row, R = _row_operands(n), lambda a, m: rect_poly(n, a, m)
    T = lambda a, m, h: (row(m) if a == 1 else R(a, m), h)

    def long_term(k, j, p, i, q):
        # -T^(n-2)_k(u) T^(n)_j(u + p/2) T^(n)_i(u + q/2)
        if n == 3:
            return (-1, row(k), (R(n, j) * R(n, i).shift(q - p), p))
        return (-1, (R(n - 2, k).shift(-p) * R(n, j), p), T(n, i, q))

    names, relations = [], []
    for a in range(1, n - 1):
        for m in range(1, m_max + 1):
            names.append(f"bulk relation a={a} m={m}")
            relations.append([(1, T(a, m, -1), T(a, m, 1)),
                              (-1, T(a, m + 1, 0), T(a, m - 1, 0)),
                              (-1, T(a - 1, m, 0), T(a + 1, m, 0))])
    for m in range(1, pf_max + 1):
        names.append(f"even row relation at a=n-1, m={m}")
        relations.append([(1, T(n - 1, 2 * m, -1), T(n - 1, 2 * m, 1)),
                          (-1, T(n - 1, 2 * m + 1, 0), T(n - 1, 2 * m - 1, 0)),
                          long_term(2 * m, m, -1, m, 1)])
    for m in range(0, pf_max):
        names.append(f"odd row relation at a=n-1, m={m}")
        relations.append([(1, T(n - 1, 2 * m + 1, -1), T(n - 1, 2 * m + 1, 1)),
                          (-1, T(n - 1, 2 * m + 2, 0), T(n - 1, 2 * m, 0)),
                          long_term(2 * m + 1, m, 0, m + 1, 0)])
    for m in range(1, pf_max):
        names.append(f"long-node relation m={m}")
        relations.append([(1, T(n, m, -2), T(n, m, 2)),
                          (-1, T(n, m + 1, 0), T(n, m - 1, 0)),
                          (-1, T(n - 1, 2 * m, 0), ONE)])
    return names, relations


def _largest_row(triples):
    """The largest row index among a Y relation's ``Words`` operands."""
    return max((len(x.halves) for _, *ops in triples
                for x, _ in map(_at, ops) if isinstance(x, Words)), default=0)


@pytest.mark.parametrize("n, m_max", [(2, 3), (3, 1)])
def test_tsystem_mutants_fail(n, m_max):
    for name, triples in zip(*_relations(n, m_max, m_max)):
        (s0, a0, b0), (s1, a1, b1) = triples[:2]
        mutants = {
            "half-unit shift": [(s0, _shifted(a0, 1), b0)] + triples[1:],
            "dropped term": [(s0, a0, (_drop_first_term(_poly(b0)), 0))]
                            + triples[1:],
            "flipped sign": [triples[0], (-s1, a1, b1)] + triples[2:],
        }
        assert product_sum_vanishes(triples), name
        assert product_sum((s, _poly(a), _poly(b))
                           for s, a, b in triples).is_zero, name
        for kind, bad in mutants.items():
            assert not product_sum_vanishes(bad), (name, kind)
            assert not product_sum((s, _poly(a), _poly(b))
                                   for s, a, b in bad).is_zero, (name, kind)


def _phi(n, operand):
    """A formal operand, p or (p, h), mapped to Y by the ring map t_a(v) ->
    fundamental_poly(n, a).shift(v), then shifted by h."""
    p, h = (operand, 0) if isinstance(operand, LaurentPoly) else operand
    terms = []
    for mono, c in p.terms():
        term = LaurentPoly.const(c)
        for (fam, a, v), e in mono:
            assert fam == ring.T_FAM and e > 0, (fam, e)
            for _ in range(e):
                term = term * fundamental_poly(n, a).shift(v)
        terms.append(term)
    return poly_sum(terms).shift(h)


def _y_operand(n, operand):
    """An oracle operand as a polynomial, a row built by row_poly."""
    if not isinstance(operand, Words):
        return _poly(operand)
    m = len(operand.halves)
    return row_poly(n, m).shift(operand.halves[0] + m if m else 0)


@pytest.mark.parametrize("n, args", [(2, (3, 3)), (3, (3, 1))])
def test_tsystem_formal_operands_map_to_y_operands(n, args):
    # t_a(h) -> T^(a)_1(u + h/2) sends each formal operand, formal rows
    # included, to the oracle's operand on Y; at rank 3 the oracle factors
    # the long term otherwise, so there the products are compared
    names, formal = _relations(n, *args)
    y_names, oracle = _y_relations(n, *args)
    assert names == y_names
    for name, triples, y_triples in zip(names, formal, oracle):
        assert len(triples) == len(y_triples) == 3, name
        for k, ((s, a, b), (s_y, a_y, b_y)) in enumerate(zip(triples,
                                                             y_triples)):
            assert s == s_y, name
            a, b = _phi(n, a), _phi(n, b)
            a_y, b_y = _y_operand(n, a_y), _y_operand(n, b_y)
            if n == 3 and k == 2 and "row relation" in name:
                assert a * b == a_y * b_y, name
            else:
                assert (a, b) == (a_y, b_y), (name, k)


@pytest.mark.parametrize("n", [2, 3])
def test_tsystem_builds_no_row(n):
    # no character is built on Y on verify_tsystem's path: its rows are
    # formal in the relations and words in the bridge, and neither
    # row_poly nor rect_poly is called
    def rect(k, a, m):
        assert a != 1, (a, m)
        return rect_poly(k, a, m)

    def row(*args):
        raise AssertionError(f"row_poly{args} called")

    with mock.patch.object(characters, "rect_poly", rect), \
            mock.patch.object(characters, "row_poly", row):
        assert verify_tsystem(n, 3, 1).ok


def _dropped_word(blocks, length):
    """row_blocks with the first barred run of the first block of the
    length-``length`` rows dropped: one word less in that row."""
    def gen(n, m):
        out = blocks(n, m)
        if m == length:
            lefts, mid, rights = out[0]
            out[0] = (lefts, mid, rights[1:])
        return out
    return gen


@pytest.mark.parametrize("n, args", [(2, (3, 3)), (3, (3, 1))])
def test_tsystem_bridge_fails_relations_that_use_a_broken_row(n, args,
                                                              monkeypatch):
    # a row with one word dropped breaks the first convolution on Y at its
    # length m, which no formal zero-test sees: exactly the relations
    # whose largest row index is at least m fail
    names, relations = _y_relations(n, *args)
    top = [_largest_row(triples) for triples in relations]
    assert verify_tsystem(n, *args).ok
    for length in range(1, max(top) + 1):
        with monkeypatch.context() as mp:
            mp.setattr(characters, "row_blocks",
                       _dropped_word(characters.row_blocks, length))
            failed = [c["identity"] for c in verify_tsystem(n, *args).checks
                      if not c["ok"]]
        assert failed == [x for x, m in zip(names, top) if m >= length]
        assert failed, length


@pytest.mark.parametrize("n, m_max", [(2, 4), (3, 3)])
def test_tt_tq_mutants_fail(n, m_max, monkeypatch):
    rep = verify_tt_tq(n, m_max)
    assert rep.ok and len(rep.checks) == 2 * m_max + 3
    funds, rows = characters.fundamental_poly, characters.row_blocks
    halves = characters._row_halves
    mutants = {
        "dropped term of T^(2)": (
            characters, "fundamental_poly", lambda k, a: (
                _drop_first_term(funds(k, a)) if a == 2 else funds(k, a))),
        "flipped sign of T^(1)": (
            characters, "fundamental_poly", lambda k, a: (
                -funds(k, a) if a == 1 else funds(k, a))),
        "half-unit shift of T^(1)": (
            characters, "fundamental_poly", lambda k, a: (
                funds(k, a).shift(1) if a == 1 else funds(k, a))),
        "dropped row word": (characters, "row_blocks",
                             _dropped_word(rows, 2)),
        "rows shifted a half unit": (characters, "_row_halves", lambda m: [
            h + 1 for h in halves(m)]),
        "middle factor's z_n at u": (diffop, "_z_factors",
                                      _middle_z_n_at_u(diffop._z_factors)),
    }
    for kind, (module, attr, patched) in mutants.items():
        with monkeypatch.context() as mp:
            mp.setattr(module, attr, patched)
            checks = verify_tt_tq(n, m_max).checks
        assert not all(c["ok"] for c in checks
                       if "convolution" in c["identity"]), kind


def _convolutions_one_by_one(n, top, s):
    """The oracle: tt-tq's first (s = 1) or second (s = -1) convolution at
    each m <= top as it is stated, unshifted, each sum decided in a frame
    of its own."""
    row = _row_operands(n)
    return [product_sum_vanishes(
        [((-1) ** a, (row(m - a), -a if s > 0 else m + a),
          (f, m - a if s > 0 else a)) for a in range(m + 1)
         if not (f := characters.fundamental_poly(n, a)).is_zero]
        + [(-1, ONE, ONE)] * (m == 0)) for m in range(top + 1)]


# the tt-tq mutants that the oracle on Y reads; the operator's factors
# are no part of the identity on Y
Y_MUTANTS = {name: m for name, m in MUTANTS["tt-tq"][1].items()
             if m[0] is characters}


@pytest.mark.parametrize("n, top", [(2, 6), (3, 5)])
def test_shifted_convolutions_match_unshifted_ones(n, top, monkeypatch):
    # the oracle shifts each family's sums so that they share their rows,
    # and a shift is a ring automorphism: its verdict at every m is that
    # of the convolution as stated, on a clean run and under every tt-tq
    # mutant of the suite that it reads, each of which fails both families
    for kind, mutant in {"clean": None, **Y_MUTANTS}.items():
        with monkeypatch.context() as mp:
            if mutant:
                module, attr, mutate = mutant
                mp.setattr(module, attr, mutate(getattr(module, attr)))
            for s in (1, -1):
                got = _convolution(n, top, s)
                assert got == _convolutions_one_by_one(n, top, s), (kind, s)
                assert all(got) == (mutant is None), (kind, s)
        _clear_caches()


def _running(verdicts):
    """Whether the verdicts up to m all hold, for each m."""
    return list(accumulate(verdicts, operator.and_))


@pytest.mark.parametrize("n, top, mutants", [
    (2, 12, Y_MUTANTS), (3, 16, Y_MUTANTS), (4, 10, {})],
    ids=["rank2", "rank3", "rank4-clean"])
def test_operator_premises_match_the_oracle(n, top, mutants, monkeypatch):
    # the premises at m certify both convolutions at every m' <= m: the
    # verdict at each m is the oracle's on Y, both families held up to m,
    # on a clean run and under every tt-tq mutant that the oracle reads.
    # A per-m verdict could differ: a row broken at length k enters the
    # convolution at m = k + n + 1 only through T^(n+1) = 0.
    for kind, mutant in {"clean": None, **mutants}.items():
        _clear_caches()
        with monkeypatch.context() as mp:
            if mutant:
                module, attr, mutate = mutant
                mp.setattr(module, attr, mutate(getattr(module, attr)))
            got = characters._operator_premises(n, top)
            assert got == _running(_convolution(n, top, 1)), kind
            assert got == _running(_convolution(n, top, -1)), kind
            assert all(got) == (mutant is None), kind
    _clear_caches()


@pytest.mark.parametrize("n", [2, 3])
def test_operator_premises_fail_a_broken_factor(n, monkeypatch):
    # a middle factor z_nbar(u) z_n(u) is no word at u, u + 1: the premises
    # fail at every m, and so does premise (i) alone, the D^2 coefficient
    # of the operator; the rows and fundamentals are untouched, so the
    # oracle on Y still holds
    monkeypatch.setattr(diffop, "_z_factors",
                        _middle_z_n_at_u(diffop._z_factors))
    assert characters._operator_premises(n, 6) == [False] * 7
    assert (build_L_C(n, "zFactored").coeff(2)
            != fundamental_poly(n, 2).shift(2))
    assert all(_convolution(n, 6)) and all(_convolution(n, 6, -1))


def test_tt_tq_packs_each_row_once_per_family(monkeypatch):
    # the oracle stands T^(1)_k at the same half in every sum of a family,
    # so a row is packed once per family: 2 * 12 rows at rank 3 up to m =
    # 11, where a frame per m packed 128.  Each row is held here, so that
    # no later list reuses the id of one that its family has dropped.
    rows, packs = {}, []
    blocks, words = characters.row_blocks, ring._words_into

    def row_blocks(n, m):
        out = blocks(n, m)
        rows[id(out)] = out
        return out

    monkeypatch.setattr(characters, "row_blocks", row_blocks)
    monkeypatch.setattr(ring, "_words_into", lambda keys, coeffs, bs: (
        packs.append(rows.get(id(bs)) is bs) or words(keys, coeffs, bs)))
    assert all(_convolution(3, 11) + _convolution(3, 11, -1))
    assert sum(packs) == 24


def test_tt_tq_rank4_runs_every_check():
    # the default bound of the CLI at rank 4, m <= 2N = 20: 43 checks
    rep = verify_tt_tq(4, 20)
    assert rep.ok and len(rep.checks) == 43


def test_tt_tq_rank2():
    rep = verify_tt_tq(2, 6)
    assert rep.ok, [c for c in rep.checks if not c["ok"]]


def test_product_formula_small():
    # the running product and hook window against each k from scratch:
    # k companion matrices multiplied out, the k-step hook matrix built
    n, N = 2, 6
    scratch = []
    for k in range(1, 7):
        prod = characters.companion_matrix(n, 0)
        for s in range(1, k):
            prod = characters._mat_mul(prod,
                                       characters.companion_matrix(n, 2 * s))
        scratch.append(prod == [[(-1) ** i * h_poly(n, i, k + j).shift(i)
                                 for j in range(N)] for i in range(N)])
    assert verify_product_formula(n, 6) == scratch == [True] * 6
    assert verify_product_formula(n, 0) == []


def test_hseries_wrapper_counts():
    rep = verify_hseries(2, k_extra=0, prod_k_max=2)
    assert rep.ok and len(rep.checks) == 6 + 2


def test_leading_monomials():
    rep = verify_highest_weight(2, 7, 8)
    assert rep.ok, [c for c in rep.checks if not c["ok"]]
    # the i = n+1 slot starts its tail one step later
    k7 = highest_weight_key(2, 3, 7)
    assert k7 == {vk(Y_FAM, 2, 4): 1}


@pytest.mark.parametrize("n", [2, 3])
def test_builders_match_per_letter_products(n):
    table = VariableTable(AlgebraSpec("C", n))
    for m in range(0, 6):
        halves = [2 * k - m - 2 for k in range(1, m + 1)]
        assert row_poly(n, m) == poly_sum(
            per_letter_weight(t, table.z, halves)
            for t in gen_row_tableaux(n, m))
    for a in range(1, n + 1):
        cols = gen_column_tableaux(n, a)
        assert fundamental_poly(n, a) == poly_sum(
            per_letter_weight(t, table.z, [a - 2 * k for k in range(1, a + 1)])
            for t in cols)
        for base in (-1, 0, 3):
            halves = [base + 2 * (1 - k) for k in range(1, a + 1)]
            for t in cols + gen_W(n, a):
                assert (weight_sum([([t],)], table, halves)
                        == per_letter_weight(t, table.z, halves))
                if base == 0:
                    assert (tableau_weight(t, table)
                            == per_letter_weight(t, table.z, halves))
            for t in gen_x_tableaux(n, a):
                assert (weight_sum([([t],)], table, halves, "X")
                        == per_letter_weight(t, table.x, halves))
    with pytest.raises(ValueError, match="convention"):
        weight_sum([([(1,)],)], table, [0], "W")


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6), st.integers(-6, 8))
def test_shifted_rows_built_directly(n, m, h):
    # a row built in a frame from templates at u, repacked at each
    # position's shift, equals row_poly(n, m).shift(h) repacked there
    z = {c: characters._table(n).z(c) for c in range(1, 2 * n + 1)}
    row = Words(z, _row_halves(m), row_blocks(n, m)), h
    built = row_poly(n, m)  # before the patch: word_sum counts too
    # the zero-test pairs one residue class of each row at a time with
    # ONE, packed as the keys [0]; a row's coefficients are positive, so
    # the sign of a block's multiplier is the triple's, and the union of
    # a row's class slices, each key with its |multiplier|, is the row.
    # Every row word is a distinct monomial: the slices built from the
    # blocks hold each key once, one key per word.
    packed = {1: {}, -1: {}}
    count = ring._count_blocks

    def record(blocks):
        for mult, bucket in blocks.items():
            side = packed[1 if mult > 0 else -1]
            for xs, ys in bucket:
                part = xs if ys == [0] else ys
                assert len(set(part)) == len(part)
                assert side.keys().isdisjoint(part)
                side.update(dict.fromkeys(part, abs(mult)))
        return count(blocks)

    with mock.patch.object(ring, "_count_blocks", record):
        assert product_sum_vanishes([(1, row, ONE), (-1, (built, h), ONE)])
    assert packed[1] == packed[-1]
    assert sorted(packed[1].values()) == sorted(built._t.values())
    assert len(packed[1]) == len(gen_row_tableaux(n, m))
    assert product_sum_vanishes([(1, row, ONE), (-1, built.shift(h), ONE)])
    if m:
        assert not product_sum_vanishes([(1, row, ONE),
                                         (-1, (built, h + 1), ONE)])


_KEY_BITS = """
import sys
from qchar import characters, ring
if sys.argv[1] == "busy":
    for i in range(300):
        ring.Y(1, 1000 + i)
# only the products inside the zero-tests count
inside, top = [False], [0]
count, zero_test = ring._count_blocks, characters.sums_vanish

def record(blocks):
    if inside[0]:
        top[0] = max([top[0]] + [k.bit_length() for bucket in blocks.values()
                                 for xs, ys in bucket for k in (*xs, *ys)])
    return count(blocks)

def tested(sums):
    inside[0] = True
    try:
        return zero_test(sums)
    finally:
        inside[0] = False

ring._count_blocks, characters.sums_vanish = record, tested
assert characters.verify_tt_tq(3, 4).ok
from test_characters import _convolution  # the rows' frames, on Y
assert all(_convolution(3, 4) + _convolution(3, 4, -1))
print(top[0])
"""


def test_tt_tq_keys_independent_of_process_history():
    # a fresh process, and one that met 300 unrelated variables first:
    # on global keys the second would carry 16 bits for each of them
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    bits = [int(subprocess.run([sys.executable, "-c", _KEY_BITS, state],
                               env=env, capture_output=True, text=True,
                               check=True).stdout)
            for state in ("fresh", "busy")]
    assert bits[0] == bits[1] and 0 < bits[0] < 16 * 300
