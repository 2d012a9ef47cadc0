"""Screening operators: Leibniz action, shift canonicalization, kernels."""

import random
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qchar import ring
from qchar.ring import (AlgebraSpec, CartanData, LaurentPoly, Words, Y, Qv,
                        ONE, word_sum,
                        EXP_MAX, Q_FAM, Y_FAM, poly_sum, screenings_vanish,
                        vk)
from qchar.screening import (a_factor, apply_screening, canonicalize,
                             in_kernel, screen_all, screen_operator,
                             screen_operator_all)
from qchar.diffop import DiffOp, build_L_C
from qchar.characters import fundamental_poly, row_poly, h_poly
from qchar.bd import build_series_L, extract_Ta
from test_bd import _reference, tm_poly, tm_words
from test_ring import letter_templates, word_blocks


@pytest.fixture(scope="module")
def c2():
    return CartanData(AlgebraSpec("C", 2))


def test_action_counts_exponents(c2):
    # S_1 on Y_1(v)^e picks up the multiplicity e
    p = Y(1, 0, 2)
    out = apply_screening(1, p, c2)
    assert set(out) == {0}
    assert out[0] == 2 * p.to_q(c2)


def test_action_ignores_other_families(c2):
    assert apply_screening(1, Y(2, 0), c2) == {}
    assert apply_screening(2, Y(1, 4), c2) == {}


def test_action_rejects_non_y_variables(c2):
    # a Q-variable is refused whether or not its term contains Y_a
    for p in (Y(1, 0) * Qv(1, 2), Y(1, 0) + Qv(2, 0), Y(2, 0) * Qv(1, 0)):
        with pytest.raises(ValueError):
            apply_screening(1, p, c2)


def test_single_variable_not_in_kernel(c2):
    assert not in_kernel(1, Y(1, 0), c2)
    assert not in_kernel(2, Y(2, 3), c2)


@pytest.mark.parametrize("spec", [AlgebraSpec("C", 2), AlgebraSpec("B", 3),
                                  AlgebraSpec("D", 4)])
def test_in_kernel_refuses_nodes_out_of_range(spec):
    cartan = CartanData(spec)
    for p in (ONE, Y(1, 0)):
        for a in (0, spec.n + 1):
            with pytest.raises(ValueError, match="node out of range"):
                in_kernel(a, p, cartan)


def test_canonicalize_telescopes_across_period(c2):
    # Y_1(v) + A-factor-adjusted partner cancels after canonicalization
    t = c2.pair2(1, 1)
    (mono, _), = a_factor(c2, 1, t // 2).terms()  # its inverse negates
    sym = {0: ONE, t: -LaurentPoly.monomial(1, {v: -e for v, e in mono})}
    # entries in the same residue class combine via the chain product
    out = canonicalize(1, sym, c2)
    assert out == {}


@pytest.mark.parametrize("n", [2, 3])
def test_operator_in_kernel(n):
    cartan = CartanData(AlgebraSpec("C", n))
    L = build_L_C(n, "zFactored")
    for a in range(1, n + 1):
        rep = screen_operator(a, L, cartan)
        assert rep.zero
        assert rep.failing == []


@pytest.mark.parametrize("n", [2, 3])
def test_fundamentals_in_kernel(n):
    cartan = CartanData(AlgebraSpec("C", n))
    for b in range(1, n + 1):
        p = fundamental_poly(n, b)
        for a in range(1, n + 1):
            assert in_kernel(a, p, cartan)


def test_rows_in_kernel():
    cartan = CartanData(AlgebraSpec("C", 2))
    for m in range(1, 5):
        p = row_poly(2, m)
        for a in (1, 2):
            assert in_kernel(a, p, cartan)


def test_hook_family_in_kernel():
    cartan = CartanData(AlgebraSpec("C", 2))
    p = h_poly(2, 1, 7)
    for a in (1, 2):
        assert in_kernel(a, p, cartan)


def test_broken_polynomial_detected():
    # dropping one monomial from a fundamental breaks kernel membership
    from qchar.ring import LaurentPoly
    cartan = CartanData(AlgebraSpec("C", 2))
    p = fundamental_poly(2, 1)
    key, c = next(iter(p.terms()))
    broken = p - LaurentPoly.monomial(c, dict(key))
    assert not in_kernel(1, broken, cartan)


# -- the per-node Euler parts, kept as an oracle --

def _o_euler_parts(p, idx):
    """{half: x * d/dx of p} for every x = Y_idx(half) that occurs: one
    pass over p per node, as ``LaurentPoly.euler_parts`` computed it."""
    out = {}
    for key, c in p.terms():
        for (f, i, h), e in key:
            if f != Y_FAM:
                raise ValueError("expected Y-variables only")
            if i == idx:
                out.setdefault(h, []).append(
                    LaurentPoly.monomial(e * c, dict(key)))
    return {h: poly_sum(ts) for h, ts in out.items()}


def y_polys():
    var = st.tuples(st.integers(1, 3), st.integers(-6, 6))
    exp = st.sampled_from([e for e in range(-3, 4) if e])
    # a later draw of a variable replaces an earlier one, so no draw is
    # retried for a duplicate key, as the unique keys of st.dictionaries are
    mono = st.lists(st.tuples(var, exp), max_size=4).map(dict)
    coeff = st.sampled_from([c for c in range(-5, 6) if c])
    term = st.tuples(coeff, mono).map(
        lambda t: LaurentPoly.monomial(
            t[0], {(Y_FAM, i, h): e for (i, h), e in t[1].items()}))
    return st.lists(term, max_size=6).map(poly_sum)


@settings(max_examples=150, deadline=None)
@given(y_polys(), y_polys(), st.sampled_from(("C", "B", "D")))
def test_screen_all_matches_oracle_on_random_polys(a, b, series):
    cartan = CartanData(AlgebraSpec(series, 3))
    # products and differences make colliding monomials cancel
    for p in (a, a * b, a * b - a, a - a):
        assert screen_all(p, cartan) == _o_verdicts(p, cartan)


def test_screening_within_term_cancellation(c2):
    # Y_1(u) Y_1(u+1): the two Q images share Q_1(u+1/2), which cancels
    p = Y(1, 0) * Y(1, 2) - 3 * Y(1, 0, 2) * Y(2, 5, -1)
    sym = apply_screening(1, p, c2)
    assert set(sym) == {0, 2} and set(apply_screening(2, p, c2)) == {5}
    assert sym[0] == Qv(1, -1) * Qv(1, 3, -1) + (-6) * (
        Y(1, 0, 2) * Y(2, 5, -1)).to_q(c2)
    assert screen_all(p, c2) == _o_verdicts(p, c2) == {1: False, 2: False}


def test_screening_frame_is_sized_from_decoded_exponents(c2):
    # p carries the bound 5 of its product, but its exponents are 0 and 1,
    # so the Q images the frame holds have exponents up to 2
    p = Y(1, 0, 3) * Y(1, 0, -2) + Y(2, 1)
    assert p._b == 5
    with mock.patch.object(ring, "_screening_frame",
                           wraps=ring._screening_frame) as frame:
        assert screen_all(p, c2) == _o_verdicts(p, c2)
    assert [call.args[1] for call in frame.call_args_list] == [2]


def test_screening_rejects_non_y_variables(c2):
    for p in (Y(1, 0) * Qv(1, 2), Y(1, 0) + Qv(2, 0), Qv(1, 0)):
        with pytest.raises(ValueError):
            screen_all(p, c2)
        for a in (1, 2):
            with pytest.raises(ValueError):
                apply_screening(a, p, c2)


def test_screening_exponents_past_digit_range_raise_overflow():
    cartan = CartanData(AlgebraSpec("C", 3))
    # at the edge the doubled exponent still fits, one past it does not
    half = EXP_MAX // 2
    for e in (20000, half + 1):
        with pytest.raises(OverflowError):
            screen_all(Y(1, 0, e), cartan)
        with pytest.raises(OverflowError):
            apply_screening(1, Y(1, 0, e), cartan)
    edge = Y(1, 0, half)
    assert apply_screening(1, edge, cartan) == {0: half * edge.to_q(cartan)}
    assert screen_all(edge, cartan) == {1: False, 2: True, 3: True}
    # a loose bound is replaced by the exact one before any refusal
    loose = (Y(1, 0, 20000) + Y(2, 1)) - Y(1, 0, 20000)
    assert screen_all(loose, cartan) == _o_verdicts(Y(2, 1), cartan) == {
        1: True, 2: False, 3: True}


def _kernel_cases():
    """(cartan, kernel polynomials) for C, B and D."""
    out = []
    for n in (2, 3):
        polys = [fundamental_poly(n, b) for b in range(1, n + 1)]
        out.append((CartanData(AlgebraSpec("C", n)), polys + [row_poly(n, 2)]))
    for series, n in (("B", 3), ("D", 4)):
        spec = AlgebraSpec(series, n)
        L = build_series_L(spec, 6)
        inv = L.inverse_series(6)
        polys = (list(extract_Ta(L).values())
                 + [inv.coeff(j).shift(-j) for j in sorted(inv.coeffs) if j])
        out.append((CartanData(spec), polys))
    return out


@pytest.mark.parametrize("cartan,polys", _kernel_cases(),
                         ids=("C2", "C3", "B3", "D4"))
def test_screen_all_matches_per_node_screening(cartan, polys):
    n = cartan.algebra.n
    key, c = max(polys[0].terms())
    broken = polys[0] - LaurentPoly.monomial(c, dict(key))
    for p in polys + [broken]:
        res = screen_all(p, cartan)
        assert list(res) == list(range(1, n + 1))
        want = _o_screen_all(p, cartan)
        for a in res:
            assert res[a] == (not want[a])
            assert res[a] == (not canonicalize(
                a, apply_screening(a, p, cartan), cartan))
            assert res[a] == in_kernel(a, p, cartan)
    # the kernel polynomials screen to zero at every node, the broken one
    # does not: the all-node path cannot pass vacuously
    assert all(all(screen_all(p, cartan).values()) for p in polys)
    assert not all(screen_all(broken, cartan).values())


@pytest.mark.parametrize("spec", [AlgebraSpec("C", 2), AlgebraSpec("B", 2),
                                  AlgebraSpec("D", 3)])
def test_screen_operator_all_matches_per_node(spec, monkeypatch):
    cartan = CartanData(spec)
    if spec.series == "C":
        L = build_L_C(spec.n, "zFactored")
    else:
        L = build_series_L(spec, 8)
    # S_1 fails at D^2 only
    L = DiffOp({**L.coeffs, 2: L.coeff(2) + Y(1, 0)}, L.order)
    reps = screen_operator_all(L, cartan)
    assert [r.node_a for r in reps] == list(range(1, spec.n + 1))
    for rep in reps:
        assert rep.failing == screen_operator(rep.node_a, L, cartan).failing
    assert [r.failing for r in reps] == [[2]] + [[]] * (spec.n - 1)
    assert not reps[0].zero
    # an out-of-range node is refused before any coefficient is screened
    calls = []
    monkeypatch.setattr("qchar.screening.screen_all",
                        lambda p, c: calls.append(p) or screen_all(p, c))
    for a in (0, spec.n + 1):
        with pytest.raises(ValueError):
            screen_operator(a, L, cartan)
    assert calls == []
    assert screen_operator(1, L, cartan).failing == reps[0].failing
    assert len(calls) == len(L.coeffs)


def _shifted(sym, h):
    """{v + h: q.shift(h)}: every argument and coefficient moved by h."""
    return {v + h: q.shift(h) for v, q in sym.items()}


def _weighted(sym):
    """Distinct integer weights per argument, so classes do not cancel."""
    return {v: (i + 2) * q for i, (v, q) in enumerate(sorted(sym.items()))}


@pytest.mark.parametrize("series,n", [("B", 2), ("B", 3), ("D", 3),
                                      ("D", 4)])
def test_screening_commutes_with_shifts(series, n):
    # the B/D suite screens T^a(u+a) and T_m(u+m) in place of T^a(u) and
    # T_m(u); that is sound because a shift moves the screened
    # coefficients along
    cartan = CartanData(AlgebraSpec(series, n))
    L = build_series_L(cartan.algebra, 6)
    inv = L.inverse_series(6)
    polys = [op.coeff(j) for op in (L, inv) for j in sorted(op.coeffs) if j]
    assert len(polys) == 6
    key, c = max(polys[-1].terms())
    broken = polys[-1] - LaurentPoly.monomial(c, dict(key))
    for p in polys + [broken]:
        res = screen_all(p, cartan)
        for h in (-7, -4, -1, 2, 5):
            assert screen_all(p.shift(h), cartan) == res, (p, h)
            for a in res:
                sym = apply_screening(a, p, cartan)
                assert apply_screening(a, p.shift(h), cartan) == \
                    _shifted(sym, h)
                # after the classes recombine, and before (with weights
                # that keep a kernel member's classes from cancelling)
                for f in (dict, _weighted):
                    assert canonicalize(a, f(_shifted(sym, h)), cartan) \
                        == _shifted(canonicalize(a, f(sym), cartan), h)
    assert all(all(screen_all(p, cartan).values()) for p in polys)
    assert not all(screen_all(broken, cartan).values())


# -- the per-argument A_a chain canonicalize replaced, kept as an oracle --

def _o_canonicalize(a, sym, cartan):
    """``canonicalize`` with the chain of every argument rebuilt from 1."""
    t = cartan.pair2(a, a)
    classes = {}
    for half in sym:
        classes.setdefault(half % t, []).append(half)
    out = {}
    for halves in classes.values():
        v0 = min(halves)
        acc = LaurentPoly.zero()
        for v in halves:
            chain = LaurentPoly.one()
            for s in range((v - v0) // t):
                chain = chain * a_factor(cartan, a, v0 + s * t + t // 2)
            acc = acc + sym[v] * chain
        if not acc.is_zero:
            out[v0] = acc
    return out


@pytest.mark.parametrize("cartan,polys", _kernel_cases(),
                         ids=("C2", "C3", "B3", "D4"))
def test_canonicalize_matches_per_argument_chain(cartan, polys):
    key, c = max(polys[0].terms())
    broken = polys[0] - LaurentPoly.monomial(c, dict(key))
    nonzero = 0
    for p in polys + [broken]:
        for a in range(1, cartan.algebra.n + 1):
            sym = apply_screening(a, p, cartan)
            for s in (sym, _weighted(sym)):
                got = canonicalize(a, s, cartan)
                assert got == _o_canonicalize(a, s, cartan), (p, a)
                nonzero += bool(got)
    assert nonzero > len(polys)


# -- screen_all decides on call-local keys; the global route is the oracle --

def _o_screen_all(p, cartan):
    """Every node's canonicalized screening from the per-node Euler parts
    and the per-argument chains."""
    return {a: _o_canonicalize(a, {h: q.to_q(cartan) for h, q in
                                   _o_euler_parts(p, a).items()}, cartan)
            for a in range(1, cartan.algebra.n + 1)}


def _o_verdicts(p, cartan):
    """{a: whether S_a p vanishes}, read from ``_o_screen_all``."""
    return {a: not r for a, r in _o_screen_all(p, cartan).items()}


def _broken_variants(p):
    """p with each of its first five terms dropped, with one term negated
    and with one term doubled."""
    terms = [LaurentPoly.monomial(c, dict(key)) for key, c in p.terms()]
    return ([p - t for t in terms[:5]]
            + [p - 2 * terms[-1], p + terms[len(terms) // 2]])


@pytest.mark.parametrize("cartan,polys", _kernel_cases(),
                         ids=("C2", "C3", "B3", "D4"))
def test_screen_all_matches_oracle_on_broken_variants(cartan, polys):
    negative = False
    for p in polys:
        variants = _broken_variants(p)
        # moved far down, so that classes start at negative arguments
        variants += [v.shift(-41) for v in variants[:2]]
        op = DiffOp({2 * j: v for j, v in enumerate(variants)})
        failing = {rep.node_a: rep.failing
                   for rep in screen_operator_all(op, cartan)}
        assert all(screenings_vanish(p, cartan,
                                     partial(a_factor, cartan)).values())
        for j, v in enumerate(variants):
            want = _o_screen_all(v, cartan)
            verdicts = screen_all(v, cartan)
            assert verdicts == {a: not r for a, r in want.items()}, (p, j)
            assert not all(verdicts.values()), (p, j)
            assert screenings_vanish(v, cartan,
                                     partial(a_factor, cartan)) == verdicts
            for a, ok in verdicts.items():
                assert (2 * j in failing[a]) == (not ok)
            negative |= any(v0 < 0 for res in want.values() for v0 in res)
    assert negative


def test_screen_all_independent_of_interning_order():
    # Every variable of a copy shifted far away is met after 300
    # unrelated ones, so its global keys carry 16 bits for each of them;
    # the frame numbers its own slots, and the results do not move.
    cases = [(cartan, polys + _broken_variants(polys[0])[:1])
             for cartan, polys in _kernel_cases()]
    before = [[screen_all(p, cartan) for p in polys]
              for cartan, polys in cases]
    for i in range(300):
        Y(1, 10 ** 6 + i)
    h = 2 * 10 ** 6
    for (cartan, polys), want in zip(cases, before):
        # the kernel members screen to zero, the broken one does not
        assert [all(res.values()) for res in want] == [True] * (
            len(polys) - 1) + [False]
        assert [screen_all(p.shift(h), cartan) for p in polys] == want
        assert want[-1] == _o_verdicts(polys[-1], cartan)


WINDOW = range(-4, 5)  # the arguments v of the screening symbols Y_a(v)


def _assert_frame_injective(cartan, factor, b=2):
    """A screening sums a term's Q image and a symbol's class and chain in
    the frame; two (monomial, Y_a(v)) pairs get the same frame key only
    if their class and Q image times chain agree as global monomials.
    The monomials are 300 random ones, and every Y_a(v)^-e Y_a(v + t)^e,
    e = +-b, whose Q image has the digit 2e at Q_a(v + t/2): the frame's
    bound q = 2b exactly."""
    n = cartan.algebra.n
    ys = [(Y_FAM, a, v) for a in range(1, n + 1) for v in WINDOW]
    frame = ring._screening_frame(set(ys), 2 * b, cartan, factor)
    assert set(frame) == set(ys)

    chains = {}  # Y_a(v) -> the factors from its class's lowest argument
    for y in sorted(ys):
        _, a, v = y
        t = cartan.pair2(a, a)
        below = (Y_FAM, a, v - t)
        chains[y] = (chains[below] * factor(a, v - t // 2) if below in chains
                     else ONE)
    rng = random.Random(n)
    monomials = [{y: rng.choice((-b, -1, 1, b)) for y in rng.sample(ys, 3)}
                 for _ in range(300)]
    for _, a, v in ys:
        up = (Y_FAM, a, v + cartan.pair2(a, a))
        if up in frame:
            monomials += [{(Y_FAM, a, v): -e, up: e} for e in (b, -b)]
    seen: dict = {}  # frame key -> (class, global monomial)
    for exps in monomials:
        image = LaurentPoly.monomial(1, exps).to_q(cartan)
        key = sum(e * frame[y][0] for y, e in exps.items())
        for y in ys:
            _, a, v = y
            glob = ((a, v % cartan.pair2(a, a)),
                    next((image * chains[y]).terms())[0])
            assert seen.setdefault(key + frame[y][2], glob) == glob
    assert len(set(seen.values())) == len(seen)


@pytest.mark.parametrize("rank", [2, 3])
def test_screening_frame_is_injective(rank):
    cartan = CartanData(AlgebraSpec("C", rank))
    _assert_frame_injective(cartan, partial(a_factor, cartan))


def _steered_factor(cartan, b):
    """A single-term factor whose chains take opposite extreme exponents
    at one slot.  In each class, with lowest argument v0 in WINDOW and Qk =
    Q_a(v0 + k t/2), the chain is Q1^-b Q3^-b Q5^(1-b) at v0 + t and Q1^b
    Q3^b Q5^b from v0 + 2t on.  So the frame's bound is B = 3b for q = 2b,
    and Y_a(v0 + t)^-+b Y_a(v0 + 2t)^+-b, at v0 + 2t and at v0 + t, take
    the digits B and -B at Q3 and differ by 1 at Q5, Q3's neighbouring
    slot: in radix 2B these two keys would be equal."""
    def factor(a, h):
        t = cartan.pair2(a, a)
        w = h - t // 2  # the step runs from w to w + t
        v0 = WINDOW[0] + (w - WINDOW[0]) % t
        q1, q3, q5 = (vk(Q_FAM, a, v0 + k * t // 2) for k in (1, 3, 5))
        first = {q1: -b, q3: -b, q5: 1 - b}
        steps = [first, {x: b - e for x, e in first.items()}]
        k = (w - v0) // t
        return LaurentPoly.monomial(1, steps[k] if k < 2 else {})
    return factor


@pytest.mark.parametrize("series, rank",
                         [("C", 2), ("C", 3), ("B", 3), ("D", 4)])
def test_screening_frame_is_injective_at_its_bound(series, rank):
    # every digit of a frame key lies in [-B, B], B the images' bound q
    # plus the largest chain exponent, so a slot needs radix 2B + 1.  A_a
    # chains are Q images, so two pairs' keys differ by a Q image as well,
    # whose line sums vanish; at these ranks no alias of radix 2B has that
    # form, and the steered chains, which are not Q images, reach it
    cartan = CartanData(AlgebraSpec(series, rank))
    for b in (1, 2):
        _assert_frame_injective(cartan, partial(a_factor, cartan), b)
        _assert_frame_injective(cartan, _steered_factor(cartan, b), b)


def test_screen_all_keeps_classes_apart(c2):
    # one term, two screening symbols with opposite multiplicities and
    # the same Q image and chain: in different classes of node 1, and at
    # different nodes; neither pair cancels
    for p, want in ((Y(1, 0) * Y(1, 1, -1), {1: False, 2: True}),
                    (3 * Y(1, 0) * Y(2, 0, -1), {1: False, 2: False})):
        assert screenings_vanish(p, c2, partial(a_factor, c2)) == want
        assert screen_all(p, c2) == _o_verdicts(p, c2) == want


@pytest.mark.parametrize("cartan,polys", _kernel_cases()[2:],
                         ids=("B3", "D4"))
def test_screen_all_carries_the_factor_coefficient(cartan, polys,
                                                   monkeypatch):
    # with -A_a in place of A_a a chain of odd length changes sign, so
    # the kernel members fail where their classes span an odd number of
    # steps; both routes must see the same factor
    monkeypatch.setattr("qchar.screening.a_factor",
                        lambda c, a, half: -a_factor(c, a, half))
    failed = 0
    for p in polys:
        res = screen_all(p, cartan)
        assert res == {a: not canonicalize(a, apply_screening(a, p, cartan),
                                           cartan) for a in res}
        failed += not all(res.values())
    assert failed
    # and so do the built T_m
    failed = 0
    for m in (2, 3):
        row = tm_poly(cartan.algebra, m)
        res = screen_all(row, cartan)
        assert res == _reference(row, cartan)
        failed += not all(res.values())
    assert failed


# -- word sums are screened as built; the reference route is the oracle --

def _cancelled(row):
    """row's blocks that have letters, each with a copy whose words carry
    one negated letter, the first of each partial word of the block's
    first factor with letters: every word meets its negative."""
    twins = {c + 10: -t for c, t in row.templates.items()}
    blocks = []
    for block in row.blocks:
        g = next((i for i, f in enumerate(block) if f and f[0]), None)
        if g is not None:
            blocks += [block, (*block[:g], [(w[0] + 10, *w[1:])
                                            for w in block[g]], *block[g + 1:])]
    return Words({**row.templates, **twins}, row.halves, blocks)


@settings(max_examples=150, deadline=None)
@given(letter_templates((1, -1, 2, -3)),
       st.lists(st.integers(-3, 3), max_size=4),
       st.sampled_from(("C", "B", "D")), st.data())
def test_built_word_sum_screening_matches_the_reference(templates, halves,
                                                         series, data):
    # blocks with empty factors, repeated words and, through the signed
    # coefficients, words that cancel
    cartan = CartanData(AlgebraSpec(series, 3))
    row = Words(templates, halves,
                data.draw(word_blocks(sorted(templates), len(halves))))
    built = word_sum(row)
    verdicts = screen_all(built, cartan)
    assert list(verdicts) == [1, 2, 3]
    assert verdicts == _reference(built, cartan)
    zero = _cancelled(row)
    assert word_sum(zero).is_zero


@pytest.mark.parametrize("series,n", [("B", 3), ("D", 4)])
def test_built_word_sum_screening_of_tm_sees_a_dropped_word_and_a_moved_factor(
        series, n, monkeypatch):
    spec = AlgebraSpec(series, n)
    cartan = CartanData(spec)
    for m in (1, 2, 3):
        assert screen_all(tm_poly(spec, m), cartan) == dict.fromkeys(
            range(1, n + 1), True)
        row = tm_words(spec, m)
        lefts, mid, rights = row.blocks[0]
        dropped = word_sum(row._replace(blocks=[(lefts, mid, rights[1:]),
                                                *row.blocks[1:]]))
        verdicts = screen_all(dropped, cartan)
        assert not all(verdicts.values())
        assert verdicts == _reference(dropped, cartan)
    monkeypatch.setattr("qchar.screening.a_factor",
                        lambda c, a, half: a_factor(c, a, half + 2))
    failed = 0
    for m in (2, 3):
        verdicts = screen_all(tm_poly(spec, m), cartan)
        assert verdicts == _reference(tm_poly(spec, m), cartan)
        failed += not all(verdicts.values())
    assert failed


def test_built_word_sum_screening_guards_its_exponents():
    cartan = CartanData(AlgebraSpec("C", 3))
    half = EXP_MAX // 2
    # a built word sum at the edge fits; the Q images double its bound
    edge = word_sum(Words({1: Y(1, 0, half), 2: Y(2, 3)}, [0],
                          [([(1,), (2,)],)]))
    assert screen_all(edge, cartan) == _reference(edge, cartan)
    for row in (Words({1: Y(1, 0, half + 1)}, [0], [([(1,)],)]),
                Words({1: Y(1, 0, 8192)}, [0, 0], [([(1,)], [(1,)])])):
        with pytest.raises(OverflowError):
            screen_all(word_sum(row), cartan)
    # a built word sum is screened by the exponents decoded, not by its
    # carried bound: apart, the two letters' exponents never meet
    apart = Words({1: Y(1, 0, 8192)}, [0, 5], [([(1,)], [(1,)])])
    assert screen_all(word_sum(apart), cartan) == {1: False, 2: True, 3: True}
    for bad in (Qv(1, 0), Y(1, 0) * Qv(2, 1)):
        with pytest.raises(ValueError):
            screen_all(word_sum(Words({1: Y(1, 0), 2: bad}, [0],
                                      [([(2,)],)])), cartan)
    # no word, or only the empty word: nothing to screen
    for row in (Words({}, [], [([()],)]), Words({1: Y(1)}, [0], [([],)])):
        assert screen_all(word_sum(row), cartan) == dict.fromkeys(
            (1, 2, 3), True)
