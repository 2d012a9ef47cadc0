"""Ring axioms and representation maps for the sparse Laurent ring."""

import gc
import json
import time
from collections import Counter
from copy import deepcopy
from fractions import Fraction
from itertools import chain, product
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qchar import characters, ring, screening
from qchar.casorati import QAssignment
from qchar.ring import (LaurentPoly, AlgebraSpec, CartanData, VariableTable,
                        Y, Qv, vk, Y_FAM, acc_product, ONE, ZERO)
from qchar.ring import (EXP_MAX, Q_FAM, Words, _format_shift, poly_sum,
                        product_sum, sums_vanish, word_sum)
from test_characters import (_convolution, _poly, _row_operands,
                             _y_relations, product_sum_vanishes)


def small_polys():
    mono = st.builds(
        Y,
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=-4, max_value=4),
        st.sampled_from([-2, -1, 1, 2]))
    coeffs = st.integers(min_value=-5, max_value=5)
    term = st.tuples(coeffs, mono).map(lambda t: t[1] * t[0])
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: sum(ts, ZERO))


@settings(max_examples=120, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), st.integers(-4, 4))
def test_shift_is_ring_hom(a, b, d):
    assert (a + b).shift(d) == a.shift(d) + b.shift(d)
    assert (a * b).shift(d) == a.shift(d) * b.shift(d)
    assert a.shift(d).shift(-d) == a


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_to_q_is_ring_hom(a, b):
    cartan = CartanData(AlgebraSpec("C", 3))
    assert (a * b).to_q(cartan) == a.to_q(cartan) * b.to_q(cartan)
    assert (a + b).to_q(cartan) == a.to_q(cartan) + b.to_q(cartan)


def test_monomial_unit_inverse():
    # the inverse of a monomial negates its exponents, and so its key
    m = Y(1, 2) * Y(2, -1, -1)
    (mono, c), = m.terms()
    inverse = LaurentPoly.monomial(c, {v: -e for v, e in mono})
    assert inverse * m == m * inverse == ONE
    assert inverse._t == {-k: c for k in m._t}


def test_eval_rational():
    p = Y(1, 0) * 2 + Y(2, 1, -1)
    assign = {vk(Y_FAM, 1, 0): Fraction(3, 2), vk(Y_FAM, 2, 1): Fraction(4)}
    assert p.eval_rational(assign) == Fraction(3) + Fraction(1, 4)
    with pytest.raises(KeyError) as err:
        p.eval_rational({vk(Y_FAM, 1, 0): Fraction(1)})
    assert err.value.args == ("no assignment for Y[2](u+1/2)",)
    with pytest.raises(ZeroDivisionError):
        p.eval_rational({**assign, vk(Y_FAM, 2, 1): 0})
    # a zero under a positive exponent is an ordinary value
    assert p.eval_rational({**assign, vk(Y_FAM, 1, 0): 0}) == Fraction(1, 4)
    assert ZERO.eval_rational({}) == 0 and ONE.eval_rational({}) == 1


def test_acc_product_matches_mul():
    a = Y(1, 0) + Y(2, 1, -1)
    b = Y(1, 2) - Y(2, -1)
    acc: dict = {}
    acc_product(acc, a, b, 1)
    acc_product(acc, a, a, -1)
    want = a * b - a * a
    assert acc == want._t


def test_text_rendering_uses_half_units():
    assert Y(1, 3).text() == "1 * Y[1](u+3/2)"
    assert Y(2, -4).text() == "1 * Y[2](u-2)"
    assert Qv(1, 2).text() == "1 * Q[1](u+1)"


def test_t_family_is_named_and_refused_by_the_q_maps():
    # the free symbols t_a(h) of the formal T-system render and serialize
    # under their own family name, and the maps defined on Y alone refuse
    # them with the ValueError of any other non-Y variable: the Q image,
    # the screening and the evaluation at Q values, which reads a Y
    # variable as its Q image
    p = LaurentPoly.var(ring.T_FAM, 2, -3) * Y(1, 1)
    assert p.text() == "1 * Y[1](u+1/2) * T[2](u-3/2)"
    assert p.to_json() == [{"coeff": "1", "vars": [
        {"fam": "Y", "idx": 1, "half_shift": 1, "exp": 1},
        {"fam": "T", "idx": 2, "half_shift": -3, "exp": 1}]}]
    cartan = CartanData(AlgebraSpec("C", 2))
    factor = lambda a, h: screening.a_factor(cartan, a, h)
    for x in (p, LaurentPoly.var(ring.T_FAM, 1)):
        with pytest.raises(ValueError, match="Y-variables only, found T"):
            x.to_q(cartan)
        with pytest.raises(ValueError, match="Y-variables only, found T"):
            ring.screenings_vanish(x, cartan, factor)
        with pytest.raises(ValueError, match="Y-variables only, found T"):
            QAssignment(2, seed=5).eval(x)


def test_variable_table_column_letters():
    table = VariableTable(AlgebraSpec("C", 2))
    # plain letter a: Y_a(u+a/2) / Y_{a-1}(u+(a+1)/2)
    z1 = table.z(1)
    assert z1 == Y(1, 1)
    z2 = table.z(2)
    assert z2 == Y(2, 2) * Y(1, 3, -1)
    # barred letters invert the families
    z2b = table.z(3)
    assert z2b == Y(1, 5) * Y(2, 6, -1)
    z1b = table.z(4)
    assert z1b == Y(1, 7, -1)


def _o_z(table, code, half):
    """Oracle: the letters written out per series, one branch per range
    of codes, as ``VariableTable.z`` stated them before the letters away
    from node n shared one formula."""
    n = table.n
    s = table.algebra.series
    if s == "C":
        if code <= n:
            a = code
            e = {vk(Y_FAM, a, half + a): 1}
            if a > 1:
                e[vk(Y_FAM, a - 1, half + a + 1)] = -1
        else:
            a = 2 * n + 1 - code
            e = {vk(Y_FAM, a, half + 2 * n - a + 4): -1}
            if a > 1:
                e[vk(Y_FAM, a - 1, half + 2 * n - a + 3)] = 1
    elif s == "B":
        if code <= n - 1:
            a = code
            e = {vk(Y_FAM, a, half + 2 * a): 1}
            if a > 1:
                e[vk(Y_FAM, a - 1, half + 2 * a + 2)] = -1
        elif code == n:
            e = {vk(Y_FAM, n, half + 2 * n + 1): 1,
                 vk(Y_FAM, n, half + 2 * n - 1): 1,
                 vk(Y_FAM, n - 1, half + 2 * n + 2): -1}
        elif code == n + 1:  # nbar
            e = {vk(Y_FAM, n, half + 2 * n + 3): -1,
                 vk(Y_FAM, n, half + 2 * n + 1): -1,
                 vk(Y_FAM, n - 1, half + 2 * n): 1}
        else:
            a = 2 * n + 1 - code
            e = {vk(Y_FAM, a, half + 2 * (2 * n - a + 1)): -1}
            if a > 1:
                e[vk(Y_FAM, a - 1, half + 2 * (2 * n - a))] = 1
    else:
        if code <= n - 2:
            a = code
            e = {vk(Y_FAM, a, half + 2 * a): 1}
            if a > 1:
                e[vk(Y_FAM, a - 1, half + 2 * a + 2)] = -1
        elif code == n - 1:
            e = {vk(Y_FAM, n, half + 2 * n - 2): 1,
                 vk(Y_FAM, n - 1, half + 2 * n - 2): 1,
                 vk(Y_FAM, n - 2, half + 2 * n): -1}
        elif code == n:
            e = {vk(Y_FAM, n, half + 2 * n - 2): 1,
                 vk(Y_FAM, n - 1, half + 2 * n + 2): -1}
        elif code == n + 1:  # nbar
            e = {vk(Y_FAM, n - 1, half + 2 * n - 2): 1,
                 vk(Y_FAM, n, half + 2 * n + 2): -1}
        elif code == n + 2:  # (n-1)bar
            e = {vk(Y_FAM, n - 2, half + 2 * n): 1,
                 vk(Y_FAM, n, half + 2 * n + 2): -1,
                 vk(Y_FAM, n - 1, half + 2 * n + 2): -1}
        else:
            a = 2 * n + 1 - code
            e = {vk(Y_FAM, a, half + 2 * (2 * n - a)): -1}
            if a > 1:
                e[vk(Y_FAM, a - 1, half + 2 * (2 * n - a - 1))] = 1
    return LaurentPoly.monomial(1, e)


@pytest.mark.parametrize("series,ranks", [("C", range(2, 7)),
                                          ("B", range(2, 7)),
                                          ("D", range(3, 7))])
def test_letters_match_per_series_oracle(series, ranks):
    for n in ranks:
        table = VariableTable(AlgebraSpec(series, n))
        for half in range(-3, 4):
            for code in range(1, 2 * n + 1):
                assert table.z(code, half) == _o_z(table, code, half), (
                    n, code, half)
            if series == "B":
                assert table.z0(half) == LaurentPoly.monomial(
                    1, {vk(Y_FAM, n, half + 2 * n - 1): 1,
                        vk(Y_FAM, n, half + 2 * n + 3): -1})
        for code in (0, 2 * n + 1):
            with pytest.raises(ValueError):
                table.z(code)


def test_algebra_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec("C", 1)
    with pytest.raises(ValueError):
        AlgebraSpec("D", 2)
    with pytest.raises(ValueError):
        AlgebraSpec("E", 3)
    assert AlgebraSpec("C", 2).N == 6


# -- the tuple-key kernel the packed keys replaced, kept as an oracle ------
#
# A tuple-key polynomial is a {monomial: coefficient} dict whose monomial
# is the sorted tuple of ((family, index, half), exponent) pairs, exactly
# what LaurentPoly.terms() yields.

def _o_mul(ta, tb, acc=None, sign=1):
    out = {} if acc is None else acc
    for k1, c1 in ta.items():
        d1 = dict(k1)
        for k2, c2 in tb.items():
            m = dict(d1)
            for var, e in k2:
                s = m.get(var, 0) + e
                if s:
                    m[var] = s
                else:
                    del m[var]
            key = tuple(sorted(m.items()))
            s = out.get(key, 0) + sign * c1 * c2
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _o_shift(t, d):
    return {tuple(((f, i, h + d), e) for (f, i, h), e in key): c
            for key, c in t.items()}


def _o_to_q(t, cartan):
    out = {}
    for key, c in t.items():
        term = {(): c}
        for (f, i, h), e in key:
            th = cartan.pair2(i, i) // 2
            q = tuple(sorted({(Q_FAM, i, h - th): e,
                              (Q_FAM, i, h + th): -e}.items()))
            term = _o_mul(term, {q: 1})
        _o_mul(term, {(): 1}, acc=out)
    return out


def _o_text(t):
    if not t:
        return "0"
    parts = []
    for key, c in sorted(t.items()):
        factors = [str(c)]
        for (f, i, h), e in key:
            name = f"{'YQ'[f]}[{i}]({_format_shift(h)})"
            factors.append(name if e == 1 else f"{name}^{e}")
        parts.append(" * ".join(factors))
    return "  +  ".join(parts)


def _o_json(t):
    return [{"coeff": str(c),
             "vars": [{"fam": "YQ"[f], "idx": i, "half_shift": h, "exp": e}
                      for (f, i, h), e in key]}
            for key, c in sorted(t.items())]


def _canonical(terms):
    out = {}
    for exps, c in terms:
        _o_mul({tuple(sorted(exps.items())): c}, {(): 1}, acc=out)
    return out


def tuple_polys(families=(Y_FAM, Q_FAM), min_size=0):
    var = st.tuples(st.sampled_from(families), st.integers(1, 3),
                    st.integers(-6, 6))
    # a later draw of a variable replaces an earlier one, so no draw is
    # retried for a duplicate key, as the unique keys of st.dictionaries are
    exp = st.sampled_from([e for e in range(-3, 4) if e])
    mono = st.lists(st.tuples(var, exp), max_size=4).map(dict)
    coeff = st.sampled_from([c for c in range(-5, 6) if c])
    return st.lists(st.tuples(mono, coeff), min_size=min_size,
                    max_size=6).map(_canonical)


def packed(t):
    return poly_sum(LaurentPoly.monomial(c, dict(key)) for key, c in t.items())


def unpacked(p):
    return dict(p.terms())


@settings(max_examples=150, deadline=None)
@given(tuple_polys(), tuple_polys())
def test_packed_product_matches_oracle(a, b):
    assert unpacked(packed(a) * packed(b)) == _o_mul(a, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1)), tuple_polys(),
                          tuple_polys()), max_size=4))
def test_packed_accumulation_matches_oracle(triples):
    acc, want = {}, {}
    for sign, a, b in triples:
        acc_product(acc, packed(a), packed(b), sign)
        _o_mul(a, b, acc=want, sign=sign)
    assert unpacked(LaurentPoly._make(acc, ring._exact_bound(acc))) == want


@settings(max_examples=100, deadline=None)
@given(tuple_polys(), st.integers(-9, 9))
def test_packed_shift_matches_oracle(a, d):
    p = packed(a)
    assert unpacked(p.shift(d)) == _o_shift(a, d)
    assert p.shift(d).shift(-d) == p


@settings(max_examples=100, deadline=None)
@given(tuple_polys(families=(Y_FAM,)), st.sampled_from(("C", "B", "D")))
def test_packed_to_q_matches_oracle(a, series):
    cartan = CartanData(AlgebraSpec(series, 3))
    assert unpacked(packed(a).to_q(cartan)) == _o_to_q(a, cartan)


@settings(max_examples=150, deadline=None)
@given(tuple_polys())
def test_packed_terms_and_rendering_match_oracle(a):
    p = packed(a)
    assert list(p.terms()) == sorted(a.items())
    assert p.text() == _o_text(a)
    assert (json.dumps(p.to_json(), sort_keys=True)
            == json.dumps(_o_json(a), sort_keys=True))


def _o_eval(t, assign):
    """Per-term Fraction evaluation, as eval_rational did before it
    moved to one common denominator."""
    total = Fraction(0)
    for key, c in t.items():
        val = Fraction(c)
        for var, e in key:
            val *= Fraction(assign[var]) ** e
        total += val
    return total


@settings(max_examples=200, deadline=None)
@given(tuple_polys(), st.data())
def test_eval_rational_matches_per_term_oracle(a, data):
    values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    assign = {var: data.draw(values)
              for key in a for var, _ in key}
    try:
        want = _o_eval(a, assign)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            packed(a).eval_rational(assign)
    else:
        got = packed(a).eval_rational(assign)
        assert isinstance(got, Fraction) and got == want


@settings(max_examples=200, deadline=None)
@given(tuple_polys(), st.data())
def test_eval_points_matches_per_term_oracle(a, data):
    values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    variables = sorted({var for key in a for var, _ in key})

    def point():
        assign = {var: data.draw(values) for var in variables}
        if variables and data.draw(st.integers(0, 4)) == 0:
            del assign[data.draw(st.sampled_from(variables))]
        return assign

    assigns = [point() for _ in range(data.draw(st.integers(1, 4)))]
    p = packed(a)
    first_error = None
    want = []
    for assign in assigns:
        try:
            want.append(p.eval_rational(assign))
        except (KeyError, ZeroDivisionError) as err:
            first_error = first_error or err
            with pytest.raises((KeyError, ZeroDivisionError)):
                _o_eval(a, assign)
        else:
            assert want[-1] == _o_eval(a, assign)
    if first_error is None:
        got = p.eval_points(assigns)
        assert got == want and all(isinstance(v, Fraction) for v in got)
    else:
        # the first bad point raises what its one-point call raised
        with pytest.raises(type(first_error)) as err:
            p.eval_points(assigns)
        assert err.value.args == first_error.args


def _o_first_use(p, assign):
    """p at ``assign`` term by term in Fraction arithmetic, each term's
    variables read in slot order: the value, or (error kind, variable)
    of the first read that fails."""
    total = Fraction(0)
    for key, c in p._t.items():
        val = Fraction(c)
        for s, e in zip(*ring._digits(key)):
            var = ring._VAR[s]
            if var not in assign:
                return KeyError, var
            x = Fraction(assign[var])
            if e < 0 and not x:
                return ZeroDivisionError, var
            val *= x ** e
        total += val
    return total


@settings(max_examples=200, deadline=None)
@given(tuple_polys(), st.data())
def test_eval_points_matches_first_use_oracle(a, data):
    # ints, Fractions, negative values and zeros at several points; the
    # first point that fails raises at the read a term-by-term pass
    # fails at first
    values = st.one_of(st.integers(-4, 4), st.builds(
        Fraction, st.integers(-9, 9), st.integers(1, 9)))
    variables = sorted({var for key in a for var, _ in key})

    def point():
        assign = {var: data.draw(values) for var in variables}
        for var in data.draw(st.lists(st.sampled_from(variables), max_size=2)
                             if variables else st.just([])):
            assign.pop(var, None)
        return assign

    assigns = [point() for _ in range(data.draw(st.integers(1, 4)))]
    p = packed(a)
    want = [_o_first_use(p, assign) for assign in assigns]
    bad = next((w for w in want if isinstance(w, tuple)), None)
    if bad is None:
        got = p.eval_points(assigns)
        assert got == want and all(isinstance(v, Fraction) for v in got)
        return
    kind, (f, i, h) = bad
    name = f"{ring.FAM_NAMES[f]}[{i}]({_format_shift(h)})"
    with pytest.raises(kind) as err:
        p.eval_points(assigns)
    assert err.value.args == ((f"no assignment for {name}",)
                              if kind is KeyError else
                              (f"{name} = 0 under a negative exponent",))


def test_eval_points_guards_every_point():
    p = Y(1, 0) * 2 + Y(2, 1, -1)
    good = {vk(Y_FAM, 1, 0): Fraction(3, 2), vk(Y_FAM, 2, 1): Fraction(4)}
    assert p.eval_points([good, good]) == [Fraction(13, 4)] * 2
    assert p.eval_points([]) == [] and ZERO.eval_points([{}, {}]) == [0, 0]
    with pytest.raises(KeyError) as err:
        p.eval_points([good, {vk(Y_FAM, 1, 0): Fraction(1)}])
    assert err.value.args == ("no assignment for Y[2](u+1/2)",)
    with pytest.raises(ZeroDivisionError):
        p.eval_points([good, {**good, vk(Y_FAM, 2, 1): 0}])
    assert p.eval_points([good, {**good, vk(Y_FAM, 1, 0): 0}]) == [
        Fraction(13, 4), Fraction(1, 4)]


def test_exponent_past_digit_range_raises_overflow():
    cartan = CartanData(AlgebraSpec("C", 3))
    top = Y(1, 0, EXP_MAX)
    # the extreme digits decode exactly, next to a neighbouring slot
    assert Y(1, 0, 16383) * Y(1, 0, 16384) == top
    edge = LaurentPoly.monomial(1, {vk(Y_FAM, 1, 0): -EXP_MAX,
                                    vk(Y_FAM, 2, 0): EXP_MAX})
    assert unpacked(edge) == {(((Y_FAM, 1, 0), -EXP_MAX),
                               ((Y_FAM, 2, 0), EXP_MAX)): 1}
    with pytest.raises(OverflowError):
        Y(1, 0, EXP_MAX + 1)
    with pytest.raises(OverflowError):
        top * Y(1, 0)
    with pytest.raises(OverflowError):
        acc_product({}, Y(2, 1), top)
    with pytest.raises(OverflowError):
        Y(1, 0, 20000).to_q(cartan)
    # a loose bound is replaced by the exact one before any refusal
    loose = (Y(1, 0, 20000) + ONE) - Y(1, 0, 20000)
    assert loose * Y(1, 0, 20000) == Y(1, 0, 20000)


def _o_word_sum(templates, halves, words):
    """The per-letter products word_sum replaced: one polynomial product
    per letter, the template shifted to its position, and one polynomial
    sum per word."""
    total = ZERO
    for w in words:
        p = ONE
        for h, letter in zip(halves, w):
            p = p * templates[letter].shift(h)
        total = total + p
    return total


def letter_templates(coeffs=(1, -1)):
    # few variables and small exponents, so that words often collide
    # and, with signs, cancel
    mono = st.builds(lambda c, i, h, e, f: c * Y(i, h, e) * Y(1, 0, f),
                     st.sampled_from(coeffs), st.integers(1, 2),
                     st.integers(-2, 2), st.integers(-2, 2),
                     st.integers(-1, 1))
    # a later draw of a letter replaces an earlier one: no duplicate retries
    return st.lists(st.tuples(st.integers(0, 2), mono), min_size=1,
                    max_size=3).map(dict)


@settings(max_examples=200, deadline=None)
@given(letter_templates(), st.lists(st.integers(-3, 3), max_size=4),
       st.data())
def test_word_sum_matches_per_letter_products(templates, halves, data):
    word = st.tuples(*[st.sampled_from(sorted(templates))] * len(halves))
    words = data.draw(st.lists(word, max_size=10))
    assert word_sum(Words(templates, halves, [(words,)])) == _o_word_sum(
        templates, halves, words)


def word_blocks(letters, length):
    """Lists of blocks of words of ``length`` over ``letters``: cuts split
    the positions into factors, each a list of partial words that may
    repeat a word or be empty."""
    def block(cuts):
        ends = [0, *sorted(cuts), length]
        return st.tuples(*(st.lists(st.tuples(*[st.sampled_from(letters)]
                                              * (end - start)), max_size=3)
                           for start, end in zip(ends, ends[1:])))
    return st.lists(st.lists(st.integers(0, length), max_size=2).flatmap(
        block), max_size=3)


def split_words(words, length):
    """Blocks whose words are ``words``: the one block ``(words,)``, or
    each word a block of one-word factors, cut at up to two drawn points,
    so that later factors sit at an offset."""
    def block(w, cuts):
        ends = [0, *sorted(cuts), length]
        return tuple([w[start:end]] for start, end in zip(ends, ends[1:]))

    cuts = st.lists(st.lists(st.integers(0, length), max_size=2),
                    min_size=len(words), max_size=len(words))
    return st.one_of(st.just([(words,)]), cuts.map(
        lambda cs: [block(w, c) for w, c in zip(words, cs)]))


@settings(max_examples=150, deadline=None)
@given(letter_templates((1, -1, 2, -3)),
       st.lists(st.integers(-3, 3), max_size=4), st.data())
def test_blocks_match_their_flattening(templates, halves, data):
    blocks = data.draw(word_blocks(sorted(templates), len(halves)))
    words = [tuple(chain.from_iterable(x)) for block in blocks
             for x in product(*block)]
    row, flat = (Words(templates, halves, b) for b in (blocks, [(words,)]))
    built = word_sum(row)
    assert built == word_sum(flat) == _o_word_sum(templates, halves, words)
    assert product_sum_vanishes([(1, row, ONE), (-1, flat, ONE)])
    assert product_sum_vanishes([(1, row, ONE), (-1, built, ONE)])
    assert product_sum_vanishes([(1, row, ONE)]) == built.is_zero
    # one letter more in one partial word of a block that has words
    full = [i for i, block in enumerate(blocks) if block and all(block)]
    if full:
        i = data.draw(st.sampled_from(full))
        j = data.draw(st.integers(0, len(blocks[i]) - 1))
        factor = blocks[i][j]
        bad = list(blocks)
        bad[i] = (*blocks[i][:j], [factor[0] + (min(templates),),
                                   *factor[1:]], *blocks[i][j + 1:])
        bad = Words(templates, halves, bad)
        with pytest.raises(ValueError, match=f"length {len(halves)}"):
            word_sum(bad)
        with pytest.raises(ValueError, match=f"length {len(halves)}"):
            product_sum_vanishes([(1, bad, ONE)])


def test_word_sum_edge_cases():
    def words(blocks, templates={}, halves=()):
        return word_sum(Words(templates, list(halves), blocks))

    assert words([]) == ZERO
    assert words([([],)]) == ZERO
    assert words([([()],)]) == ONE  # the empty word
    assert words([()]) == ONE  # a block of no factors joins it once
    assert words([([(), ()],)]) == LaurentPoly.const(2)
    # letter 4 stands for Y_2(u+1) at the second position
    z = {1: Y(1, 0), 2: -Y(1, 0), 3: Y(1, 0, -1), 4: Y(2, -1)}
    assert words([([(1, 4), (2, 4)],)], z, [0, 2]) == ZERO  # cancelling
    assert words([([(1,), (2,)], [(4,)])], z, [0, 2]) == ZERO
    assert words([([(1, 4), (3, 4), (1, 4)],)], z, [0, 2]) == (
        2 * Y(1, 0) * Y(2, 1) + Y(2, 1) * Y(1, 0, -1))
    assert words([([(1,), (3,), (1,)], [], [(4,)])], z, [0, 2]) == ZERO
    for bad in ([([(1,)],)], [([(1,)], [(1, 1)])],
                [([(1,), (1, 1)], [(1,)])]):  # wrong total, mixed widths
        with pytest.raises(ValueError, match="length 2"):
            words(bad, z, [0, 2])
    with pytest.raises(KeyError):
        words([([(5, 4)],)], z, [0, 2])
    for bad in (Y(1) + Y(2), ZERO):
        with pytest.raises(ValueError, match="not one"):
            words([([(1,)],)], {1: bad}, [0])


def test_word_sum_exponents_past_digit_range_raise_overflow():
    edge = Words({1: Y(1, 0, EXP_MAX)}, [0], [([(1,)],)])
    assert word_sum(edge) == Y(1, 0, EXP_MAX)
    assert word_sum(Words({1: Y(1, 0, 16383)}, [0, 0],
                          [([(1, 1)],)])) == Y(1, 0, 2 * 16383)
    for blocks in ([([(1, 1)],)], [([(1,)], [(1,)])], [([(1,)], [])]):
        with pytest.raises(OverflowError):
            word_sum(Words({1: Y(1, 0, 16384)}, [0, 0], blocks))
    # the bound takes the largest template once per position, used or not
    with pytest.raises(OverflowError):
        word_sum(Words({1: Y(1, 0), 2: Y(2, 0, 20000)}, [0, 2],
                       [([(1, 1)],)]))
    # a loose bound is replaced by the exact one before any refusal
    loose = (Y(1, 0, 20000) + ONE) - Y(1, 0, 20000)
    assert word_sum(Words({1: loose, 2: Y(1, 0, 16383)}, [0, 0],
                          [([(1, 2)],)])) == Y(1, 0, 16383)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1, 3)), small_polys(),
                          small_polys()), max_size=4))
def test_product_sum_matches_signed_products(triples):
    got = product_sum(triples)
    assert got == poly_sum(s * (a * b) for s, a, b in triples)
    # the overflow guard relies on the carried bound covering every term
    assert all(abs(e) <= got._b for key, _ in got.terms() for _, e in key)


def test_product_sum_exponents_past_digit_range_raise_overflow():
    for total in (product_sum, product_sum_vanishes):
        with pytest.raises(OverflowError):
            total([(1, ONE, Y(1, 0)), (-1, Y(2, 1), Y(1, 0, EXP_MAX))])


def vanishing_candidates():
    """Lists of (sign, A, B) triples, several of them built to cancel:
    A*B - B*A and (A + B)*C - A*C - B*C, with any sign and coefficient."""
    sign = st.sampled_from((1, -1, 2, -3))
    poly = st.one_of(small_polys(), tuple_polys().map(packed))
    plain = st.lists(st.tuples(sign, poly, poly), max_size=2)
    swap = st.builds(lambda s, a, b: [(s, a, b), (-s, b, a)], sign, poly, poly)
    spread = st.builds(lambda s, a, b, c: [(s, a + b, c), (-s, a, c),
                                           (-s, b, c)], sign, poly, poly, poly)
    return st.lists(st.one_of(plain, swap, spread), max_size=3).map(
        lambda blocks: sum(blocks, []))


@settings(max_examples=120, deadline=None)
@given(vanishing_candidates())
def test_product_sum_vanishes_matches_product_sum(triples):
    assert product_sum_vanishes(triples) == product_sum(triples).is_zero


@pytest.mark.parametrize("bound", [1, 3, 4, 7, 8, 15, 16])
def test_product_sum_vanishes_at_width_edges(bound):
    def x(e):
        return Y(1, 0, e) if e else ONE

    # the exponent sum of the first product reaches ``bound`` exactly
    half = bound // 2
    k = bound.bit_length()
    for s in (1, -1):
        top = [(1, x(s * (bound - half)), x(s * half))]
        assert product_sum_vanishes(top + [(-1, x(s * bound), ONE)])
        # one bit narrower, x^(s*bound) and this monomial share a key
        alias = LaurentPoly.monomial(
            1, {vk(Y_FAM, 1, 0): s * (bound - 2 ** k), vk(Y_FAM, 2, 0): s})
        assert not product_sum_vanishes(top + [(-1, alias, ONE)])
        assert not product_sum(top + [(-1, alias, ONE)]).is_zero


def _families_swapped(p):
    """p with Y_i(h) and Q_i(h) exchanged in every term."""
    return poly_sum(LaurentPoly.monomial(c, {(1 - f, i, h): e
                                             for (f, i, h), e in key})
                    for key, c in p.terms())


@settings(max_examples=60, deadline=None)
@given(tuple_polys(), tuple_polys())
def test_product_sum_vanishes_keeps_y_and_q_apart(a, b):
    # Y_i(h) and Q_i(h) share index and argument, so a frame keyed
    # without the family would make a*b - a'*b vanish for every a
    a, b = packed(a), packed(b)
    swapped = _families_swapped(a)
    for triples in ([(1, a, b), (-1, swapped, b)],
                    [(1, a + swapped, b), (-1, swapped, b), (-1, b, a)]):
        assert product_sum_vanishes(triples) == (
            product_sum(triples).is_zero)


@pytest.mark.parametrize("rank", [2, 3])
def test_product_sum_vanishes_frame_is_injective(rank, monkeypatch):
    # every pair of single-variable operands v^e * w^f.shift(h) at C2 and
    # C3: each triple is one pair of frame keys, and triple i carries the
    # multiplicity i + 1, so its key sum is the one block _count_blocks
    # sees under m = i + 1; two sums are equal only if the products are
    # the same global monomial
    xs = [LaurentPoly.monomial(1, {vk(fam, a, h): e})
          for fam in (Y_FAM, Q_FAM) for a in range(1, rank + 1)
          for h in (0, 1) for e in (-1, 2)]
    pairs = list(product(xs, xs, (0, 2)))
    triples = [(1, (i + 1) * x, (y, h)) for i, (x, y, h) in enumerate(pairs)]
    sums = {}  # m -> the key sum of its block
    real = ring._count_blocks

    def spy(blocks):
        for m, bucket in blocks.items():
            if m > 0:
                ([k1], [k2]), = bucket  # one key on each side
                sums[m] = k1 + k2
        return real(blocks)

    monkeypatch.setattr(ring, "_count_blocks", spy)
    # each product once more with the opposite sign and the operands
    # swapped, so the sum vanishes and every class is counted
    assert product_sum_vanishes(triples + [(-1, b, a) for _, a, b in triples])
    assert sorted(sums) == list(range(1, len(pairs) + 1))
    seen: dict = {}  # frame key sum -> global monomial
    for i, (x, y, h) in enumerate(pairs):
        glob = next((x * y.shift(h)).terms())[0]
        assert seen.setdefault(sums[i + 1], glob) == glob
    assert len(set(seen.values())) == len(seen)


def test_product_sum_vanishes_edge_cases():
    assert product_sum_vanishes([])
    assert product_sum_vanishes(iter([(1, ONE, ONE), (-1, ONE, ONE)]))
    assert not product_sum_vanishes([(1, ONE, ONE)])
    assert product_sum_vanishes([(1, ZERO, Y(1, 0)), (5, Y(2, 1), ZERO)])
    assert product_sum_vanishes([(2, Y(1, 0), ONE), (-2, ONE, Y(1, 0))])
    assert not product_sum_vanishes([(2, Y(1, 0), ONE), (-1, ONE, Y(1, 0))])
    y, q = Y(1, 0), Qv(1, 0)  # one index and argument, two families
    assert not product_sum_vanishes([(1, y, ONE), (-1, q, ONE)])
    assert product_sum_vanishes([(1, y + q, y - q), (-1, y, y), (1, q, q)])
    assert not product_sum_vanishes([(1, y * Qv(2, 1, -1), q),
                                     (-1, q * Y(2, 1, -1), y)])



@settings(max_examples=150, deadline=None)
@given(letter_templates(), st.lists(st.integers(-3, 3), max_size=4),
       small_polys(), st.integers(-3, 3), st.data())
def test_words_operands_match_shifted_word_sums(templates, halves, b, d,
                                                data):
    word = st.tuples(*(st.sampled_from(sorted(templates)) for _ in halves))
    words = data.draw(st.lists(word, max_size=10))
    row = Words(templates, halves, data.draw(split_words(words, len(halves))))
    built = word_sum(row)
    assert built == _o_word_sum(templates, halves, words)
    assert product_sum_vanishes([(1, row, ONE), (-1, built, ONE)])
    assert product_sum_vanishes([(2, row, (b, d)), (-2, b.shift(d), built)])
    # one operand the other way round decides like product_sum
    other = product_sum([(1, built, b.shift(d)), (-1, built, b)])
    assert product_sum_vanishes([(1, row, (b, d)), (-1, built, b)]) == (
        other.is_zero)


def test_words_operand_edges():
    assert product_sum_vanishes([(1, Words({}, [], [([()],)]), ONE),
                                 (-1, ONE, ONE)])  # the empty word is 1
    assert not product_sum_vanishes([(1, Words({1: Y(1)}, [0], [([(1,)],)]),
                                      ONE)])
    with pytest.raises(ValueError, match="not one"):
        product_sum_vanishes([(1, Words({1: Y(1) + Y(2)}, [0], [([(1,)],)]),
                               ONE)])
    with pytest.raises(ValueError, match="length 2"):
        product_sum_vanishes([(1, Words({1: Y(1)}, [0, 1], [([(1,)],)]),
                               ONE)])
    # the bound is the row's, from its templates, plus the partner's
    for blocks in ([([(1, 1)],)], [([(1,)], [(1,)])], [([(1,)], [])]):
        row = Words({1: Y(1, 0, 16384)}, [0, 2], blocks)
        with pytest.raises(OverflowError):
            product_sum_vanishes([(1, row, ONE)])
    edge = Words({1: Y(1, 0, 16383)}, [0], [([(1,)],)])
    assert product_sum_vanishes([(1, edge, Y(1, 0, 16384)),
                                 (-1, Y(1, 0, EXP_MAX), ONE)])
    with pytest.raises(OverflowError):
        product_sum_vanishes([(1, edge, (Y(2, 0, 16385), 3))])


# -- one residue class of frame keys at a time ----------------------------

def _modulus_spy(moduli: list):
    """A stand-in for ring._modulus that appends each sum's class count
    to ``moduli``."""
    modulus = ring._modulus

    def spy(pairs, radices):
        moduli.append(modulus(pairs, radices))
        return moduli[-1]
    return spy


def _classes_counted(triples):
    """product_sum_vanishes(triples), the sum's class count p, and for
    each call of _count_blocks the classes alpha + beta mod p of the
    operand slices it pairs, where every slice must hold keys of one
    class alpha (or beta) only."""
    calls, moduli = [], []
    count = ring._count_blocks

    def record(blocks):
        p, gammas = moduli[-1], set()
        for bucket in blocks.values():
            for xs, ys in bucket:
                (alpha,), (beta,) = ({k % p for k in keys}
                                     for keys in (xs, ys))
                gammas.add((alpha + beta) % p)
        calls.append(gammas)
        return count(blocks)

    with mock.patch.object(ring, "_count_blocks", record), \
            mock.patch.object(ring, "_modulus", _modulus_spy(moduli)):
        verdict = product_sum_vanishes(triples)
    (p,) = moduli
    return verdict, p, calls


@st.composite
def operands(draw):
    """(operand, the LaurentPoly it stands for): a polynomial or a Words
    row, whose blocks may split its words, either of them shifted or
    not."""
    words, shifted = draw(st.booleans()), draw(st.booleans())
    if words:
        templates = draw(letter_templates())
        halves = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
        word = st.tuples(*(st.sampled_from(sorted(templates))
                           for _ in halves))
        words = draw(st.lists(word, min_size=1, max_size=6))
        x = Words(templates, halves, draw(split_words(words, len(halves))))
        p = _o_word_sum(templates, halves, words)
    else:
        x = p = packed(draw(tuple_polys(min_size=1)))
    if not shifted:
        return x, p
    h = draw(st.integers(-4, 4))
    return (x, h), p.shift(h)


def class_candidates():
    """Blocks of (sign, operand, operand) triples, some built to cancel:
    A*B - B*A, and a Words row against the polynomial it stands for."""
    sign = st.sampled_from((1, -1, 2, -3))
    plain = st.lists(st.tuples(sign, operands(), operands()), min_size=1,
                     max_size=2)
    swap = st.builds(lambda s, a, b: [(s, a, b), (-s, b, a)],
                     sign, operands(), operands())
    built = st.builds(lambda s, a, b: [(s, a, b), (-s, (a[1], a[1]), b)],
                      sign, operands(), operands())
    return st.lists(st.one_of(plain, swap, built), min_size=1,
                    max_size=3).map(lambda blocks: sum(blocks, []))


@settings(max_examples=100, deadline=None)
@given(class_candidates())
def test_product_sum_vanishes_decides_class_by_class(triples):
    # at a budget of -1 every sum goes class by class, even one with no
    # term pairs, in CLASSES classes; at a budget of 1 every sum of two
    # pairs or more does, in as many classes as the rule picks for it
    want = product_sum([(s, a, b) for s, (_, a), (_, b) in triples]).is_zero
    for budget in (-1, 1):
        with mock.patch.object(ring, "BUDGET", budget):
            verdict, p, calls = _classes_counted([(s, a, b) for s, (a, _),
                                                  (b, _) in triples])
        assert verdict == want
        assert p == ring.CLASSES or budget > 0
        # each count pairs the slices of one class gamma, each gamma
        # once, and a sum vanishes only once each of its p classes has
        # been counted
        assert all(len(gammas) <= 1 for gammas in calls)
        gammas = [g for gammas in calls for g in gammas]
        assert len(gammas) == len(set(gammas))
        assert len(calls) == p or not verdict


@st.composite
def shared_sums(draw):
    """Sums of (sign, (operand, the LaurentPoly it stands for), ...)
    triples over one small pool of objects, ZERO and ONE among them, so
    that an object, a polynomial or Words, recurs across sums and within
    one sum, at one half or at several, some blocks built to cancel."""
    pool = [(ZERO, ZERO), (ONE, ONE)] + draw(st.lists(operands().filter(
        lambda x: isinstance(x[0], (Words, LaurentPoly))), max_size=3))

    def use(i, half):
        x, p = pool[i]
        if half is None:
            return x, p
        return (x, half), p.shift(half)

    sign = st.sampled_from((1, -1, 2, -3))
    op = st.builds(use, st.integers(0, len(pool) - 1),
                   st.one_of(st.none(), st.integers(-3, 3)))
    plain = st.lists(st.tuples(sign, op, op), min_size=1, max_size=2)
    swap = st.builds(lambda s, a, b: [(s, a, b), (-s, b, a)], sign, op, op)
    one_sum = st.lists(st.one_of(plain, swap), max_size=2).map(
        lambda blocks: sum(blocks, []))
    return draw(st.lists(one_sum, max_size=4))


@settings(max_examples=100, deadline=None)
@given(shared_sums())
def test_sums_vanish_matches_product_sum(sums):
    # one frame for every sum, each distinct operand (the same object at
    # the same half) packed once by _words_into, however many triples and
    # sums use it
    packs = []
    real = ring._words_into
    with mock.patch.object(ring, "_words_into",
                           lambda *args: packs.append(1) or real(*args)):
        got = sums_vanish([[(s, a, b) for s, (a, _), (b, _) in t]
                           for t in sums])
    assert got == [product_sum([(s, a, b) for s, (_, a), (_, b) in t]).is_zero
                   for t in sums]
    assert len(packs) == len({ring._identity(x) for t in sums
                              for _, *ops in t for x, _ in ops})


def test_product_sum_vanishes_finds_a_residue_in_one_class():
    # a * b spans many classes; taking back a * b less c * M leaves the
    # residue c * M, which lies in the one class of M's frame key.  As e
    # runs, M = Y_1(u)^e * Y_2(u+1)^(+-1) meets every class, with frame
    # keys of either sign.
    a = 2 * Y(1, 0) - 3 * Y(2, 1, -1) + Y(1, 0, -2) * Y(3, 2)
    x = Y(1, 0) + 5 * Y(2, 1) - Y(3, -1, 2) + 1
    b = x * x
    found = []  # the frame key of each residue
    count = ring._count_blocks
    last = {}  # positive less negative count of the last class decided

    def record(blocks):
        plus, minus = sides = count(blocks)
        last.clear()
        last.update({k: plus[k] - minus[k] for k in {*plus, *minus}
                     if plus[k] != minus[k]})
        return sides

    for e in range(-100, 100):
        m = Y(1, 0, e) * Y(2, 1, 1 if e % 2 else -1)
        triples = [(1, a, b), (-1, a * b - 3 * m, ONE)]
        assert not product_sum(triples).is_zero
        with mock.patch.object(ring, "_count_blocks", record):
            assert not product_sum_vanishes(triples)
        assert list(last.values()) == [3]
        (key,) = last
        found.append(key)
        assert product_sum_vanishes(triples + [(-3, m, ONE)])
    assert {k % ring.CLASSES for k in found} == set(range(ring.CLASSES))
    assert min(found) < 0 < max(found)


def _largest_tsystem_relation():
    """The relation of verify_tsystem(2, 5, 5) on Y with the most term
    pairs, from the oracle that decides it there: the even row relation
    at m = 5."""
    return max(_y_relations(2, 5, 5)[1], key=lambda t: sum(
        _poly(a).n_terms * _poly(b).n_terms for _, a, b in t))


def test_product_sum_vanishes_holds_one_class_at_a_time():
    # the largest relation of verify_tsystem(2, 5, 5) on Y: the two
    # counts of one class may not hold more than a quarter of the terms
    # of its first product between them, as counts of every class would
    triples = _largest_tsystem_relation()
    _, a, b = triples[0]
    first = (_poly(a) * _poly(b)).n_terms
    top = 0
    count = ring._count_blocks

    def record(blocks):
        nonlocal top
        plus, minus = sides = count(blocks)
        top = max(top, len(plus) + len(minus))
        return sides

    with mock.patch.object(ring, "_count_blocks", record):
        assert product_sum_vanishes(triples)
    assert 0 < top <= first // 4


def test_product_sum_vanishes_keys_fit_in_64_bits():
    # the largest relation of verify_tsystem(2, 5, 5) on Y packs 27
    # slots, and no product exponent in it passes |2|; each slot's digit
    # spans only its own range, so every key and key sum that
    # _count_blocks receives stays below 2^64 (one width for every slot
    # took them to 2^156)
    triples = _largest_tsystem_relation()
    top = []  # the largest |key| and |key sum| of each block
    count = ring._count_blocks

    def record(blocks):
        for xs, ys in chain.from_iterable(blocks.values()):
            top.append(max(map(abs, xs + ys)))
            top.append(max(max(xs) + max(ys), -min(xs) - min(ys)))
        return count(blocks)

    with mock.patch.object(ring, "_count_blocks", record):
        assert product_sum_vanishes(triples)
    assert top and max(top) < 2 ** 64


def test_product_sum_vanishes_words_ranges_keep_both_sides():
    # a Words slot's range is summed over positions from each position's
    # least and largest template exponent, 0 included where a template
    # lacks the slot, and the box takes 0 as well; a range without its
    # negative side or without either 0 leaves a monomial outside the
    # box, where it shares a key with another and the difference seems
    # to vanish
    cases = [
        # Y_1(u)^-1 only, and Y_2(u)^-1 beside it
        (Words({1: Y(1, 0, -1), 2: Y(2, 0)}, [0], [([(1,)],)]),
         Y(2, 0, -1)),
        # Y_1(u) takes +1 at the first position and -1 at the second,
        # each from a template that the others lack
        (Words({1: Y(1, 0), 2: Y(2, 0), 3: Y(1, -2, -1)}, [0, 2],
               [([(1, 1)],)]), Y(1, 2, 2)),
        # every template holds Y_1(u), so the row's range there is [1, 1],
        # and the partner's product has exponent 0 there
        (Words({1: Y(1, 0), 2: Y(1, 0) * Y(2, 0)}, [0], [([(1,)],)]),
         Y(2, 0)),
    ]
    for row, other in cases:
        built = word_sum(row)
        assert built != other
        for triples in ([(1, row, ONE), (-1, other, ONE)],
                        [(1, ONE, row), (-1, ONE, other)]):
            assert not product_sum_vanishes(triples)
            assert product_sum_vanishes(triples + [(1, other - built, ONE)])


def test_class_modulus_splits_every_frame_width():
    # A frame slot's unit is its radix times the unit before it, so no
    # radix may be 0 mod p, which sends every unit above it to class 0,
    # or 1 mod p, which gives a unit the class of the unit below it;
    # with radix 1 mod p throughout, keys would be classed by their
    # total degree alone, and a tt-tq row, a product of degree-0
    # letters, would barely split.  The rule picks no such p below the
    # cap, and at the cap 2 has order CLASSES - 1, so it generates the
    # units mod CLASSES and no radix from 2 to CLASSES - 1 is 1 mod
    # CLASSES.  The sums of tt-tq's oracle on Y whose bound B has 2^3 <=
    # B < 2^4 are checked to split evenly in the frame of their family,
    # which all of its sums share, each sum in its own p classes at the
    # default budget and in CLASSES classes at a budget of -1.
    assert all(pow(2, k, ring.CLASSES) != 1
               for k in range(1, ring.CLASSES - 1))
    families = []

    def recorded(sums):
        families.append([list(t) for t in sums])
        return [True] * len(families[-1])

    with mock.patch.object(characters, "_bilinear_zero", recorded):
        _convolution(3, 8)
        _convolution(3, 8, -1)

    def bound(x):  # _span's bound of an operand, in its _operand form
        return ring._span(ring._operand(x))[0]

    count, wide = ring._count_blocks, 0
    for sums, budget in product(families, (-1, ring.BUDGET)):
        pairs, moduli = [], []  # the term pairs of each class; each p

        def record(blocks):
            pairs.append(sum(len(xs) * len(ys) for bucket in blocks.values()
                             for xs, ys in bucket))
            return count(blocks)

        with mock.patch.object(ring, "_count_blocks", record), \
                mock.patch.object(ring, "_modulus", _modulus_spy(moduli)), \
                mock.patch.object(ring, "BUDGET", budget):
            assert all(sums_vanish(sums))
        # a sum that vanishes is counted in each of its classes, in turn
        assert len(moduli) == len(sums) and len(pairs) == sum(moduli)
        splits = iter(pairs)
        for triples, p in zip(sums, moduli):
            split = [next(splits) for _ in range(p)]
            if max(bound(a) + bound(b)
                   for _, a, b in triples).bit_length() + 1 == 5:
                wide += 1
                assert p > 1 and max(split) <= 2 * sum(split) / p
    assert wide


def _pairs(x) -> int:
    """The term pairs an operand x or (x, half) brings to a product: a
    polynomial's terms, or the words of ``Words`` with multiplicity."""
    x = x[0] if type(x) is tuple else x
    if isinstance(x, Words):
        return sum(prod(map(len, block)) for block in x.blocks)
    return x.n_terms


@pytest.mark.parametrize("budget", [0, 4, ring.BUDGET, float("inf")],
                         ids=["zero", "four", "default", "unbounded"])
@settings(max_examples=100, deadline=None)
@given(shared_sums())
def test_sums_vanish_matches_product_sum_at_any_budget(budget, sums):
    # a sum of at most BUDGET term pairs is counted at once, a larger one
    # class by class; at a budget of 4 one call does both, over shared
    # operands.  Each sum is followed by a copy with its first triple
    # doubled, which seldom vanishes.
    sums = sums + [t + t[:1] for t in sums if t]
    with mock.patch.object(ring, "BUDGET", budget):
        got = sums_vanish([[(s, a, b) for s, (a, _), (b, _) in t]
                           for t in sums])
    assert got == [product_sum([(s, a, b) for s, (_, a), (_, b) in t]).is_zero
                   for t in sums]


def _counts(sums):
    """sums_vanish(sums), the term pairs of each _count_blocks call with
    the classes mod p of its key sums (None for a pairing of keys from
    more than one class), where p is the class count of its sum, and the
    class count of each sum."""
    calls, moduli = [], []
    count = ring._count_blocks

    def record(blocks):
        p, pairs, gammas = moduli[-1], 0, set()
        for xs, ys in chain.from_iterable(blocks.values()):
            pairs += len(xs) * len(ys)
            alphas, betas = ({k % p for k in ks} for ks in (xs, ys))
            gammas.add((alphas.pop() + betas.pop()) % p
                       if len(alphas) == len(betas) == 1 else None)
        calls.append((pairs, gammas))
        return count(blocks)

    with mock.patch.object(ring, "_count_blocks", record), \
            mock.patch.object(ring, "_modulus", _modulus_spy(moduli)):
        return sums_vanish(sums), calls, moduli


def _budget_sums():
    """Two vanishing sums, of exactly BUDGET term pairs and of one more."""
    def terms(n):  # a polynomial of n terms
        return poly_sum(Y(1, 0, e) for e in range(-(n // 2), n - n // 2))

    half, s = ring.BUDGET // 2, 1 + Y(2, 1)  # s * s has 3 terms
    p, q = terms(half), terms(half - 3)
    return ([(1, p, ONE), (-1, p, ONE)],
            [(1, q, ONE), (-1, q, ONE), (1, s, s), (-1, s * s, ONE)])


def test_sums_vanish_counts_the_budget_at_once():
    # a vanishing sum of exactly BUDGET term pairs, or of none, is one
    # class, counted in one call, and one of a pair more is split into p
    # > 1 classes, counted in p calls, one class each
    exact, over = _budget_sums()
    assert _counts([[(1, ONE, ZERO)]]) == ([True], [(0, set())], [1])
    assert sum(_pairs(a) * _pairs(b) for _, a, b in exact) == ring.BUDGET
    assert sum(_pairs(a) * _pairs(b) for _, a, b in over) == ring.BUDGET + 1
    assert _counts([exact]) == ([True], [(ring.BUDGET, {0})], [1])
    verdicts, calls, (p,) = _counts([over])
    assert verdicts == [True] and p > 1 and len(calls) == p
    assert sum(pairs for pairs, _ in calls) == ring.BUDGET + 1
    assert all(gammas <= {g} for g, (_, gammas) in enumerate(calls))


def test_sums_vanish_leaves_no_cycles():
    # nothing that a call packs refers back to itself, so all of it is
    # freed when the call returns, not at the next cyclic collection
    sums = _budget_sums()
    gc.collect()
    gc.disable()
    try:
        assert sums_vanish(sums) == [True, True]
        assert gc.collect() == 0
    finally:
        gc.enable()


CHECKS = pytest.mark.parametrize("verify", [
    lambda: characters.verify_tsystem(2, 5, 5).ok,
    lambda: all(_convolution(3, 11) + _convolution(3, 11, -1))],
    ids=["tsystem", "tt-tq"])


def _traffic(verify):
    """The term pairs of each sum that ``verify`` decides, each
    _count_blocks call as ``_counts`` gives it, and each sum's class
    count, once ``verify`` has passed."""
    sizes, calls, moduli = [], [], []

    def recorded(sums):
        sums = [list(t) for t in sums]
        sizes.extend(sum(_pairs(a) * _pairs(b) for _, a, b in t)
                     for t in sums)
        verdicts, counted, ps = _counts(sums)
        calls.extend(counted)
        moduli.extend(ps)
        return verdicts

    with mock.patch.object(characters, "_bilinear_zero", recorded):
        assert verify()
    return sizes, calls, moduli


@CHECKS
def test_sums_vanish_counts_at_most_the_budget_at_once(verify):
    # every sum of these checks vanishes.  One of at most BUDGET term
    # pairs is one class, a single _count_blocks call with all its pairs;
    # a larger one is split into p > 1 classes, p calls, call gamma with
    # the pairs of class gamma alone, in even shares.  Both kinds of sum
    # occur.
    sizes, calls, moduli = _traffic(verify)
    assert min(sizes) <= ring.BUDGET < max(sizes)
    calls = iter(calls)
    for size, p in zip(sizes, moduli, strict=True):
        if size <= ring.BUDGET:
            assert p == 1 and next(calls)[0] == size
        else:
            split = [next(calls) for _ in range(p)]
            assert p > 1 and sum(pairs for pairs, _ in split) == size
            assert all(gammas <= {g} for g, (_, gammas) in enumerate(split))
            assert max(pairs for pairs, _ in split) <= 2 * size / p
    assert next(calls, None) is None


@CHECKS
def test_sums_vanish_counts_stay_within_twice_the_budget(verify):
    # a sum of more than BUDGET term pairs takes about pairs / BUDGET
    # classes, so none of its counts holds more than 2 * BUDGET pairs
    # unless the cap binds, for a sum of more than CLASSES * BUDGET
    sizes, calls, moduli = _traffic(verify)
    calls = iter(calls)
    split = False
    for size, p in zip(sizes, moduli, strict=True):
        counts = [pairs for pairs, _ in (next(calls) for _ in range(p))]
        split |= p > 1
        assert (max(counts) <= 2 * ring.BUDGET
                or size > ring.CLASSES * ring.BUDGET)
    assert split


def test_class_count_follows_the_pairs_and_the_radices():
    budget = ring.BUDGET
    # the budget boundary: a sum of at most BUDGET pairs is one class;
    # one more pair needs p >= 2, but every radix is 0 or 1 mod 2 and
    # the radix 3 is 0 mod 3, so radices 2 and 3 leave 5, and radices 2
    # to 5, with 5 = 0 mod 5, leave 7
    assert ring._modulus(0, {2, 3}) == ring._modulus(budget, {2, 3}) == 1
    assert ring._modulus(budget + 1, {2, 3}) == 5
    assert ring._modulus(budget + 1, {2, 3, 4, 5}) == 7
    assert ring._modulus(2 * budget + 1, {2}) == 3
    assert ring._modulus(7 * budget + 1, {2, 3, 4, 5}) == 11
    # radices 2 to 12 rule out every prime up to 11
    assert ring._modulus(budget + 1, set(range(2, 13))) == 13
    # the cap: no prime above CLASSES, and CLASSES once the rule finds
    # none below it
    assert ring._modulus(29 * budget + 1, {2, 3, 4, 5}) == 31
    assert ring._modulus(31 * budget + 1, {2, 3, 4, 5}) == ring.CLASSES
    assert ring._modulus(10 ** 9, {2, 3, 4, 5}) == ring.CLASSES
    assert ring._modulus(budget + 1, set(range(2, 37))) == ring.CLASSES
    # a budget of 0 splits every sum of a pair or more at the cap, and one
    # of -1 every sum, of no pairs too
    with mock.patch.object(ring, "BUDGET", 0):
        assert ring._modulus(0, {2}) == 1
        assert ring._modulus(1, {2}) == ring.CLASSES
    with mock.patch.object(ring, "BUDGET", -1):
        assert ring._modulus(0, {2}) == ring.CLASSES


def test_class_count_skips_a_prime_that_a_radix_is_1_mod():
    # 70 monomials of total degree 0, each exponent in [-2, 1]: p * p
    # takes every exponent in [-4, 2], so every radix is 7, 1 mod 3.
    # The 9,800 term pairs of p * p - p * p would want 3 classes, but
    # mod 3 every unit is 1 and every key of degree 0 lands in class 0;
    # the rule takes 5, where the classes share the pairs evenly.
    exps = [e for e in product(range(-2, 2), repeat=5) if sum(e) == 0]
    p = poly_sum(LaurentPoly.monomial(1, {vk(Y_FAM, i + 1): x
                                          for i, x in enumerate(e)})
                 for e in exps[:70])
    sums = [[(1, p, p), (-1, p, p)]]
    radices = []
    modulus = ring._modulus
    with mock.patch.object(ring, "_modulus", lambda pairs, rs: (
            radices.append(rs) or modulus(pairs, rs))):
        verdicts, calls, moduli = _counts(sums)
    assert radices == [{7}] and -(-9800 // ring.BUDGET) == 3
    assert verdicts == [True] and moduli == [5] and len(calls) == 5
    split = [pairs for pairs, _ in calls]
    assert sum(split) == 9800 and max(split) <= 2 * 9800 / 5


def test_join_leaves_the_partial_keys_as_they_are():
    # _join starts from its first part, so the words of a block of one
    # factor are that factor's memoized partial keys themselves; neither
    # _join nor _words_into may change them.  The first block recurs as
    # the last, where _words_into reads its partial keys from its memo.
    z = {c: VariableTable(AlgebraSpec("C", 2)).z(c) for c in range(1, 5)}
    pairs = [(1, 2), (3, 4), (2, 2)]
    blocks = [(pairs,), ([(1,), (3,)], [(2,), (4,)]), (list(pairs),)]
    seen = []  # (partial keys as joined, a copy taken then)
    join = ring._join

    def record(parts):
        parts = list(parts)
        seen.append((parts, deepcopy(parts)))
        return join(parts)

    with mock.patch.object(ring, "_join", record):
        built = word_sum(Words(z, [0, 2], blocks))
    flat = [sum(w, ()) for block in blocks for w in product(*block)]
    assert built == _o_word_sum(z, [0, 2], flat)
    assert len(seen) == len(blocks)
    assert seen[0][0][0] is seen[-1][0][0]
    assert all(parts == copy for parts, copy in seen)


def test_span_scans_a_polynomial_once():
    # a polynomial paired with Words is bounded exactly from the keys the
    # call decodes, each once for the box and the repack, and its keys are
    # never scanned for a bound of their own
    words = _row_operands(2)(2)
    p = Y(1, 0, 3) * Y(1, 0, -2) + Y(2, 1)
    assert p._b == 5  # the carried bound of the product
    assert product_sum_vanishes([(1, words, p), (-1, p, words)])
    decoded = Counter()
    digits = ring._digits
    with mock.patch.object(ring, "_exact_bound",
                           wraps=ring._exact_bound) as scan, \
            mock.patch.object(ring, "_digits",
                              lambda k: decoded.update([k]) or digits(k)):
        assert ring._span(ring._operand((p, 3)))[0] == 1
        decoded.clear()
        assert product_sum_vanishes([(1, words, (p, 3)), (-1, (p, 3), words)])
    assert all(decoded[k] == 1 for k in p._t)
    assert all(call.args[0] is not p._t for call in scan.call_args_list)


def test_polynomial_bounds_come_from_decoded_exponents():
    # the carried bound 5 of the product is loose: p's exponents are 0
    # and 1, and its zero-test ranges and Q image are sized from those
    p = Y(1, 0, 3) * Y(1, 0, -2) + Y(2, 1)
    assert p._b == 5
    assert ring._span(ring._operand((p, 0))) == (
        1, {(Y_FAM, 1, 0): (0, 1), (Y_FAM, 2, 1): (0, 1)})
    assert ring._span(ring._operand((p, 3)))[1] == {
        (Y_FAM, 1, 3): (0, 1), (Y_FAM, 2, 4): (0, 1)}
    assert p.to_q(CartanData(AlgebraSpec("C", 2)))._b == 2


def test_product_sum_vanishes_counts_multiplicities():
    a, b = Y(1, 0), Y(2, 1)
    # one key: +2 from one pair, -1 from each of two others
    assert product_sum_vanishes([(1, 2 * a, b), (-1, a * b, ONE),
                                 (-1, b, a)])
    assert product_sum_vanishes([(2, a, b), (-1, a * b, ONE), (-1, b, a)])
    assert not product_sum_vanishes([(1, 2 * a, b), (-1, b, a)])
    assert not product_sum_vanishes([(2, a, b), (-1, a * b, ONE)])
    assert product_sum_vanishes([(0, a, b)])
    assert product_sum_vanishes([(3, a, b), (0, b, a), (-3, b, a)])


def test_product_sum_vanishes_cost_does_not_grow_with_coefficients():
    a = poly_sum(Y(1, h) * Y(2, -h, e) for h in range(12) for e in (-1, 2))
    b = poly_sum(Y(3, h, 2) * Y(1, 2 * h) for h in range(-12, 12))

    def seconds(c):
        t = time.perf_counter()
        assert product_sum_vanishes([(c, a, b), (-c, b, a)])
        assert not product_sum_vanishes([(c, a, b), (1 - c, b, a)])
        return time.perf_counter() - t

    unit = min(seconds(1) for _ in range(3))
    assert min(seconds(10 ** 12) for _ in range(3)) < 10 * unit + 0.1
