"""Exact-rational minor identities on the triangular solution basis."""

import gc
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qchar import casorati, characters, classical, diffop, ring
from qchar.classical import ClassicalPoint, clear_row, det_frac
from qchar.ring import (AlgebraSpec, CartanData, LaurentPoly, Qv,
                        VariableTable, Y, Y_FAM, poly_sum, vk)
from qchar.diffop import build_Lj_C
from qchar.casorati import (QAssignment, build_grid, mu_from_indices,
                            transpose, skew_ssyt, run_suite,
                            default_index_sets, verify_free_skew_lemma,
                            GridReport)
from test_characters import h_poly


@pytest.fixture(scope="module")
def basis2():
    return build_grid(2, seed=7, imax=24)


def test_assignment_determinism():
    a = QAssignment(2, seed=3)
    b = QAssignment(2, seed=3)
    c = QAssignment(2, seed=4)
    vals_a = [a.value(i, h) for i in (1, 2) for h in range(-3, 4)]
    vals_b = [b.value(i, h) for i in (1, 2) for h in range(-3, 4)]
    assert vals_a == vals_b
    assert vals_a != [c.value(i, h) for i in (1, 2) for h in range(-3, 4)]
    assert all(isinstance(v, Fraction) and v > 0 for v in vals_a)


def test_eval_reads_shifted_values():
    qa = QAssignment(2, seed=5)
    p = Qv(1, 1) * Qv(2, -3, -2) - 3 * Qv(1, 4, 2) + 2
    for half in (-2, 0, 3):
        assign = {(fam, idx, h): qa.value(idx, h + half)
                  for key, _ in p.terms() for (fam, idx, h), _ in key}
        assert qa.eval(p, half) == p.eval_rational(assign)
    assert qa.eval(p.shift(4)) == qa.eval(p, 4)


def test_basis_solves_recurrence(basis2):
    # each basis column is annihilated by its own operator order; the
    # full-window casoratian is nonzero by construction
    assert basis2.casorati(tuple(range(6)), 0) != 0
    assert basis2.casorati((), 0) == 1


@pytest.mark.parametrize("n, seed, imax", [(2, 7, 24), (3, 11, 27),
                                            (4, 5, 14)])
def test_basis_rows_are_killed_by_their_expanded_partial_products(n, seed,
                                                                  imax):
    # the oracle expands L_m = build_Lj_C(n, m), which the basis never
    # does: sum_j L_m[j](u0 + t) w_m(u0 + t + j) = 0 over the solved range,
    # and w_m(u0 + i) = delta_{i, m-1} on the initial window
    qa = QAssignment(n, seed)
    basis = casorati.TriangularBasis(n, qa, imax)
    assert len(basis.w) == basis.N
    for m, (row, den) in enumerate(zip(basis.w, basis.den), start=1):
        w = [Fraction(v, den) for v in row]
        assert len(w) == imax + 1
        assert w[:m] == [int(i == m - 1) for i in range(m)], m
        op = build_Lj_C(n, m)
        steps = range(imax - m + 1)
        coeffs = [qa.eval_many(op.coeff(j), [2 * t for t in steps])
                  for j in range(m + 1)]
        assert coeffs[m] == [1] * len(steps)  # L_m is monic
        assert all(sum(cv[t] * w[t + j] for j, cv in enumerate(coeffs)) == 0
                   for t in steps), m


@pytest.mark.parametrize("n", [2, 3])
def test_suite_builds_no_operator_product(n, monkeypatch):
    # the basis is solved through the first-order factors alone
    calls = []
    for owner, name in ((diffop, "build_Lj_C"), (diffop, "build_L_C"),
                        (diffop, "prod"), (diffop.DiffOp, "__mul__")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, name=name, real=real: (
            calls.append(name) or real(*a)))
    assert run_suite(n, seed=11).ok
    assert calls == []


def test_eval_decodes_each_key_once_per_polynomial(monkeypatch):
    # repeated evaluations of one polynomial reuse its decoded keys
    calls = []
    real = ring._digits
    monkeypatch.setattr(ring, "_digits", lambda k: calls.append(k) or real(k))
    qa = QAssignment(3, seed=11)
    p = 1 * characters.fundamental_poly(3, 2)  # a copy with no plan yet
    vals = [qa.eval(p, h) for h in range(-3, 4)]
    assert vals == qa.eval_many(p, range(-3, 4))
    assert sorted(calls) == sorted(p._t)
    # the guards still run at every point of every later call
    q = 1 * (Y(1, 0) * 2 + Y(2, 1, -1))
    good = {vk(Y_FAM, 1, 0): Fraction(3, 2), vk(Y_FAM, 2, 1): Fraction(4)}
    assert q.eval_points([good]) == [Fraction(13, 4)]
    with pytest.raises(KeyError):
        q.eval_points([good, {vk(Y_FAM, 1, 0): 1}])
    with pytest.raises(ZeroDivisionError):
        q.eval_points([good, {**good, vk(Y_FAM, 2, 1): 0}])
    assert q.eval_points([good]) == [Fraction(13, 4)]
    assert len(calls) == p.n_terms + q.n_terms


def test_casorati_negative_shift_guarded(basis2):
    with pytest.raises(IndexError):
        basis2.casorati((0, 1), -50)
    # a refused window is never remembered as a minor, and a window just
    # below the range is refused rather than wrapped to the far end, on
    # the basis and on a free table alike
    table = [[Fraction(j + 1, i + 2) for j in range(5)] for i in range(2)]
    free = casorati.MinorTable(*zip(*map(clear_row, table)))
    for cas in (basis2.casorati, free):
        for shift in (-50, -1, -50, -1):
            with pytest.raises(IndexError):
                cas((0, 1), shift)
    assert free((0, 1), 0) == det_frac([row[:2] for row in table])


def test_eval_many_matches_one_point_calls():
    qa = QAssignment(2, seed=5)
    p = Qv(1, 1) * Qv(2, -3, -2) - 3 * Qv(1, 4, 2) + 2
    hs = [-2, 0, 3, 3, 8]
    assert qa.eval_many(p, hs) == [qa.eval(p, h) for h in hs]
    assert qa.eval_many(p, []) == []


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_y_polynomial_evaluates_as_its_q_image(n, data):
    # Y_a(v) reads as Q_a(v - t)/Q_a(v + t); the long node a = n has
    # t = 2, the others t = 1
    terms = data.draw(st.lists(st.tuples(
        st.sampled_from([c for c in range(-5, 6) if c]),
        st.lists(st.tuples(st.tuples(st.integers(1, n), st.integers(-6, 6)),
                           st.sampled_from([e for e in range(-3, 4) if e])),
                 max_size=4).map(dict)),  # no retries for duplicate keys
        max_size=6))
    hs = data.draw(st.lists(st.integers(-6, 6), max_size=4))
    p = poly_sum(LaurentPoly.monomial(
        c, {vk(Y_FAM, a, h): e for (a, h), e in exps.items()})
        for c, exps in terms)
    qa = QAssignment(n, seed=data.draw(st.integers(0, 99)))
    cartan = CartanData(AlgebraSpec("C", n))
    assert qa.eval_many(p, hs) == qa.eval_many(p.to_q(cartan), hs)
    # a node above the rank is refused, as to_q refuses it
    with pytest.raises(ValueError):
        Y(n + 1).to_q(cartan)
    with pytest.raises(ValueError):
        qa.eval_many(Y(n + 1, 3), [0])


def test_memoized_minors_match_raw_windows(basis2, monkeypatch):
    sets = [(0,), (0, 2), (1, 3, 4), tuple(range(6)), tuple(range(1, 7)),
            *default_index_sets(2)]
    for idx in sets:
        for g in (0, 1, 3):
            raw = det_frac([[Fraction(basis2.w[j][g + i], basis2.den[j])
                             for i in idx] for j in range(len(idx))])
            assert basis2.casorati(idx, g) == raw
            assert basis2.casorati(list(idx), g) == raw
    # [1..N] at g and [0..N-1] at g + 1 name the same columns: one
    # determinant serves both, on a basis whose table starts empty
    calls = []
    real = casorati.det_int
    monkeypatch.setattr(casorati, "det_int",
                        lambda rows: calls.append(rows) or real(rows))
    basis = casorati.TriangularBasis(2, basis2.qa, basis2.imax)
    N = basis.N
    for g in (0, 1, 3):
        raw = det_frac([[Fraction(basis.w[j][g + i], basis.den[j])
                         for i in range(1, N + 1)] for j in range(N)])
        calls.clear()
        assert basis.casorati(tuple(range(1, N + 1)), g) == raw
        assert basis.casorati(tuple(range(N)), g + 1) == raw
        assert len(calls) == 1


@pytest.mark.parametrize("n,determinants", [(2, 360), (3, 444)])
def test_suite_takes_one_determinant_per_column_set(n, determinants,
                                                    monkeypatch):
    # every table of the suite, basis and free alike, runs det_int once
    # per distinct column tuple it is asked for
    tables, calls = [], []
    real = casorati.det_int
    monkeypatch.setattr(casorati, "det_int",
                        lambda rows: calls.append(rows) or real(rows))

    class Recorded(casorati.MinorTable):
        def __init__(self, rows, dens):
            super().__init__(rows, dens)
            tables.append(self)

    monkeypatch.setattr(casorati, "MinorTable", Recorded)
    assert run_suite(n, seed=11).ok
    assert len(calls) == sum(len(t._minors) for t in tables) == determinants


def _assignment_values(n, qa):
    """The suite's character values at ``qa``, from the fundamentals that
    ``characters`` binds when a value is first read."""
    return characters.CharacterValues(n, lambda a, half: qa.eval(
        characters.fundamental_poly(n, a), half))


@pytest.mark.parametrize("n,beta", [(2, False), (3, False), (2, True),
                                    (3, True)],
                         ids=["2", "3", "classical-2", "classical-3"])
def test_character_values_match_built_characters(n, beta):
    # each hook and rectangle value from the fundamental values against
    # the built character evaluated at the same points: the halves that
    # the suite reads, and -1 besides.  Under beta, which forgets shifts,
    # each hook at half 0 from the fundamentals' values at torus points
    # against the built hook's image there
    N = 2 * n + 2
    if beta:
        rng = random.Random(11)
        pts = [ClassicalPoint.random(n, rng) for _ in range(5)]
        chars = [characters.CharacterValues(n, lambda a, _, v=v: v[a])
                 for v in zip(*(characters.fundamental_poly(n, a)
                                .eval_points(pts) for a in range(N)))]
        for i, k in itertools.product(range(N), range(N, N + 4)):
            assert [c.hook(i, k, 0) for c in chars] == h_poly(
                n, i, k).eval_points(pts), (i, k)
        return
    qa = QAssignment(n, seed=11)
    chars = _assignment_values(n, qa)
    for i in range(N):
        halves = [i - 1] + [i + 2 * g for g in range(3)]
        for k in range(N, N + 4):
            assert [chars.hook(i, k, h) for h in halves] == qa.eval_many(
                h_poly(n, i, k), halves), (i, k)
    halves = range(-1, 2 * N + 1)
    for a in range(1, n + 1):
        for m in range(1, 4):
            assert [chars.rect(a, m, h) for h in halves] == qa.eval_many(
                characters.rect_poly(n, a, m), halves), (a, m)


@pytest.mark.parametrize("n", [2, 3])
def test_suite_builds_no_hook_or_rectangle(n):
    # hooks and rectangles enter the suite and the classical hook
    # contents as values only: the hook contents evaluate nothing larger
    # than a fundamental
    calls, sizes = [], []

    def spy(name):
        real = getattr(characters, name)

        def record(*args):
            calls.append((name, args))
            return real(*args)
        return record
    real_eval = LaurentPoly.eval_points

    def eval_points(p, assigns):
        sizes.append(p.n_terms)
        return real_eval(p, assigns)
    names = ("hook_rows", "rect_poly", "row_poly")
    with mock.patch.multiple(characters, **{a: spy(a) for a in names}):
        assert run_suite(n, seed=11).ok
        with mock.patch.object(LaurentPoly, "eval_points", eval_points):
            assert classical.verify_hook_decomposition(
                n, 2 * n + 3, 2 * n + 5, 11).ok
    assert calls == []
    assert sizes and max(sizes) <= max(
        characters.fundamental_poly(n, a).n_terms for a in range(1, n + 1))


def test_suite_and_hook_contents_leave_no_cycles():
    # the memos of character values are plain dicts and the skew fillings
    # recurse through a module function, so nothing a call builds refers
    # back to itself and all of it is freed when the call returns.  A
    # first call fills the module's caches, which outlive it by design.
    run = lambda: (run_suite(2, seed=11).ok
                   and classical.verify_hook_decomposition(2, 7, 9, 11).ok)
    assert run()
    gc.collect()
    gc.disable()
    try:
        assert run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_skew_suite_is_the_skew_part_of_the_full_suite():
    full = run_suite(2, seed=11).checks
    assert run_suite(2, seed=11, skew_only=True).checks == [
        c for c in full if "skew" in c["identity"]]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 99), st.data())
def test_y_values_are_q_ratios_once_per_argument(n, seed, data):
    qa = QAssignment(n, seed)
    cartan = CartanData(AlgebraSpec("C", n))
    reads = data.draw(st.lists(st.tuples(st.integers(1, n),
                                         st.integers(-6, 6)), min_size=1))
    for a, half in reads + reads:  # the second pass reads the cache
        t = cartan.pair2(a, a) // 2
        y = qa.y_value(a, half)
        assert y == qa.value(a, half - t) / qa.value(a, half + t)
        assert y is qa.y_value(a, half)
    # a warm cache still refuses a node above the rank, every time
    for _ in range(2):
        with pytest.raises(ValueError):
            qa.y_value(n + 1, reads[0][1])
        with pytest.raises(ValueError):
            qa.eval_many(Y(n + 1, reads[0][1]), [0])


def _o_ssyt_sum(N, width, mu, letter_value):
    """The skew tableau sum filling by filling in Fraction arithmetic,
    every cell read."""
    total = Fraction(0)
    for t in skew_ssyt(N, width, mu):
        prod = Fraction(1)
        for (r, c), v in t.items():
            prod *= letter_value(v, N - r + c - 1)
        total += prod
    return total


def _o_e_sum(N, a, base, letter_value):
    if a < 0 or a > N:
        return Fraction(0)
    total = Fraction(0)
    for combo in itertools.combinations(range(1, N + 1), a):
        prod = Fraction(1)
        for k, i in enumerate(combo, start=1):
            prod *= letter_value(i, base + 1 - k)
        total += prod
    return total


def _recorded_letters(data, N, shifts):
    """(letter_value, reads): values drawn once per (letter, shift), as
    ints or Fractions, zeros and negatives included, and a few reads
    that raise ZeroDivisionError as a singular x-ratio does."""
    pairs = st.tuples(st.integers(1, N), st.sampled_from(shifts))
    bad = data.draw(st.sets(pairs, max_size=2))
    values = st.one_of(st.integers(-3, 3), st.builds(
        Fraction, st.integers(-5, 5), st.integers(1, 5)))
    table: dict = {}
    reads = []

    def letter_value(v, shift):
        reads.append((v, shift))
        if (v, shift) in bad:
            raise ZeroDivisionError("singular minor")
        if (v, shift) not in table:
            table[v, shift] = data.draw(values)
        return table[v, shift]
    return letter_value, reads


def _same_sum_and_first_reads(fast, oracle, reads):
    """fast() equals oracle(), or both raise ZeroDivisionError, and fast
    reads each value once, in the order of the oracle's first reads."""
    try:
        want = oracle()
    except ZeroDivisionError:
        want = ZeroDivisionError
    oracle_reads = list(dict.fromkeys(reads))
    reads.clear()
    if want is ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fast()
    else:
        got = fast()
        assert isinstance(got, Fraction) and got == want
    assert reads == oracle_reads


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_ssyt_sum_matches_filling_oracle(N, width, data):
    mu = data.draw(st.sampled_from(list(_box_partitions(N, width))))
    letter_value, reads = _recorded_letters(data, N, range(N + width))
    _same_sum_and_first_reads(
        lambda: casorati._ssyt_sum(N, width, mu, letter_value),
        lambda: _o_ssyt_sum(N, width, mu, letter_value),
        reads)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(-1, 6), st.integers(-2, 4),
       st.data())
def test_e_sum_matches_combination_oracle(N, a, base, data):
    letter_value, reads = _recorded_letters(
        data, N, range(base - N, base + 1))
    _same_sum_and_first_reads(
        lambda: casorati._e_sum(N, a, base, letter_value),
        lambda: _o_e_sum(N, a, base, letter_value),
        reads)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_cleared_table_minors_match_det_frac(N, data):
    # the integer minors of a MinorTable, as _free_skew_holds and
    # TriangularBasis read them, against det_frac of the Fraction window,
    # zero and negative entries included; a window read again at one
    # shift less with every index one more names the same columns
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    width = N + 3
    table = [data.draw(st.lists(entry, min_size=width, max_size=width))
             for _ in range(N)]
    cas = casorati.MinorTable(*zip(*map(clear_row, table)))
    for _ in range(3):
        idx = tuple(sorted(data.draw(st.sets(
            st.integers(0, N + 1), min_size=1, max_size=N))))
        shift = data.draw(st.integers(0, width - 1 - idx[-1]))
        want = det_frac(
            [[table[j][shift + i] for i in idx] for j in range(len(idx))])
        assert cas(idx, shift) == want
        if shift:
            assert cas(tuple(i + 1 for i in idx), shift - 1) == want


def test_mu_and_transpose():
    # indices (0,1,3,4,6,7) at N=6 encode the (2,2,1,1) shape
    mu = mu_from_indices((0, 1, 3, 4, 6, 7))
    assert mu == [2, 2, 1, 1, 0, 0]
    assert transpose(mu) == [4, 2]
    assert transpose([0]) == []


def test_skew_ssyt_enumeration():
    # two-row free shape with empty inner shape: weakly increasing rows,
    # strictly increasing columns
    # full 2x2 shape with entries 1..2 admits exactly one filling
    assert len(list(skew_ssyt(2, 2, [0, 0]))) == 1
    # removing one inner cell admits two
    shapes = list(skew_ssyt(2, 2, [1, 0]))
    assert len(shapes) == 2
    for filling in shapes:
        for (r, c), v in filling.items():
            if (r, c - 1) in filling:
                assert filling[(r, c - 1)] <= v
            if (r - 1, c) in filling:
                assert filling[(r - 1, c)] < v


def _skew_ssyt_unpruned(N, width, mu):
    """The enumerator before its entry cap: tries every value up to N
    in every cell, dead branches included."""
    mu = list(mu) + [0] * (N - len(mu))
    rows = [list(range(mu[r], width)) for r in range(N)]
    cells = [(r, c) for r in range(N) for c in rows[r]]
    filling: dict = {}

    def fill(pos: int):
        if pos == len(cells):
            yield dict(filling)
            return
        r, c = cells[pos]
        lo = 1
        if (r, c - 1) in filling:
            lo = max(lo, filling[(r, c - 1)])
        if (r - 1, c) in filling:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for v in range(lo, N + 1):
            filling[(r, c)] = v
            yield from fill(pos + 1)
        filling.pop((r, c), None)

    yield from fill(0)


def _box_partitions(N, width):
    """Every partition with at most N parts, each at most width."""
    if N == 0:
        yield []
        return
    for first in range(width, -1, -1):
        for rest in _box_partitions(N - 1, first):
            yield [first] + rest


def test_pruned_enumerator_matches_unpruned():
    shapes = 0
    for N in range(1, 6):
        for width in range(1, 5):
            for mu in _box_partitions(N, width):
                assert (list(skew_ssyt(N, width, mu))
                        == list(_skew_ssyt_unpruned(N, width, mu))), (
                    N, width, mu)
                shapes += 1
    assert shapes == 451


def test_rank3_filling_counts():
    N = 8
    counts = []
    for indices in default_index_sets(3):
        width = max(indices[-1] - N + 1, 1) + 2
        counts.append(len(list(
            skew_ssyt(N, width, mu_from_indices(indices)))))
    assert counts == [36, 8, 63]


def test_free_skew_lemma_standalone():
    rep = GridReport()
    verify_free_skew_lemma(6, [(0, 1, 3, 4, 6, 7)], seed=5, rep=rep)
    assert rep.ok


def test_free_skew_lemma_redraws_singular_tables(monkeypatch):
    # seed 59 draws a table with a singular denominator minor at rank 2
    sets = default_index_sets(2)
    rep = GridReport()
    verify_free_skew_lemma(6, sets, seed=59, rep=rep)
    assert rep.ok and len(rep.checks) == len(sets)
    monkeypatch.setattr(casorati, "MAX_DRAWS", 1)
    with pytest.raises(RuntimeError):
        verify_free_skew_lemma(6, sets, seed=59, rep=GridReport())


def test_suite_rank2():
    rep = run_suite(2, seed=11)
    assert rep.ok, [c for c in rep.checks if not c["ok"]]
    assert len(rep.checks) > 80


def test_suite_deterministic():
    a = run_suite(2, seed=11).checks
    b = run_suite(2, seed=11).checks
    assert a == b


# -- mutants: a wrong character or alphabet must fail its batched check ----

def _outer_only(orig, mutate):
    """orig, with mutate applied to what outside callers get; the calls
    orig makes to itself through its module still get orig's values."""
    depth = [0]

    def wrapper(*args):
        depth[0] += 1
        try:
            p = orig(*args)
        finally:
            depth[0] -= 1
        return p if depth[0] else mutate(p)
    return wrapper


def _drop_first_term(p):
    for key, c in p.terms():
        return p - LaurentPoly.monomial(c, dict(key))
    return p


MUTANTS = {"drop-term": _drop_first_term, "move-shift": lambda p: p.shift(1)}


def _checks(verify, *args):
    rep = GridReport()
    verify(*args, rep)
    return rep.checks


def _mutate_fundamentals(monkeypatch, basis, mutate):
    """Patch fundamental_poly to its mutant and give ``basis`` a fresh
    memo of character values, which reads the mutant."""
    monkeypatch.setattr(characters, "fundamental_poly",
                        _outer_only(characters.fundamental_poly, mutate))
    monkeypatch.setattr(basis, "chars", _assignment_values(basis.n, basis.qa))


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS)
def test_hook_ratio_fails_on_mutated_hooks(basis2, monkeypatch, mutate):
    args = (casorati.verify_hook_ratio, 2, 9, basis2, range(3))
    assert all(c["ok"] for c in _checks(*args))
    rows = lambda: characters.hook_rows(  # reads the patched fundamentals
        2, 9, lambda a: characters.fundamental_poly(2, a))
    hooks = rows()
    _mutate_fundamentals(monkeypatch, basis2, mutate)
    # a mutant that leaves a hook unchanged (zero, or constant under a
    # shift) cannot fail its check
    unchanged = {f"hook minor ratio i={i} k={k}" for k, (row, old) in
                 enumerate(zip(rows(), hooks)) if k >= 6
                 for i in range(6) if row[i] == old[i]}
    assert len(unchanged) <= 2
    assert {c["identity"] for c in _checks(*args) if c["ok"]} == unchanged


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS)
def test_toda_fails_on_mutated_rectangles(basis2, monkeypatch, mutate):
    args = (casorati.verify_toda_solution, 2, 2, basis2, range(3))
    assert all(c["ok"] for c in _checks(*args))
    _mutate_fundamentals(monkeypatch, basis2, mutate)
    checks = _checks(*args)
    assert any(c["identity"].startswith("bulk minor ratio") for c in checks)
    assert not any(c["ok"] for c in checks)


@pytest.mark.parametrize("letter", (1, 6))
@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS)
def test_skew_on_basis_fails_on_mutated_alphabet(basis2, monkeypatch,
                                                 mutate, letter):
    args = (casorati.verify_skew_on_basis, 2, default_index_sets(2), basis2,
            range(3))
    assert all(c["ok"] for c in _checks(*args))
    x = VariableTable.x

    def mutant(self, i, half=0):
        p = x(self, i, half)
        return mutate(p) if i == letter else p
    monkeypatch.setattr(VariableTable, "x", mutant)
    checks = _checks(*args)
    assert checks and not any(c["ok"] for c in checks)


def test_x_ratio_fails_on_a_zero_denominator(basis2, monkeypatch):
    args = (casorati.verify_x_ratio, 2, basis2, range(3))
    assert [c["ok"] for c in _checks(*args)] == [True] * 6
    real = basis2.casorati

    def singular(indices, shift=0):
        return Fraction(0) if indices == (1, 2, 3) else real(indices, shift)
    # [1, 2, 3] is a denominator minor of m = 3 and of m = 4 only
    monkeypatch.setattr(basis2, "casorati", singular)
    assert [c["ok"] for c in _checks(*args)] == [m not in (3, 4)
                                                 for m in range(1, 7)]


def test_default_index_sets_rank2_includes_remark_shape():
    sets = default_index_sets(2)
    assert (0, 1, 3, 4, 6, 7) in sets
    assert all(tuple(sorted(s)) == s for s in sets)
