"""Screening operators: Leibniz action, shift canonicalization, kernels."""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from qchar.ring import (AlgebraSpec, CartanData, LaurentPoly, Y, Qv, ONE,
                        EXP_MAX, Y_FAM, poly_sum, screenings_vanish)
from qchar.screening import (a_factor, apply_screening, canonicalize,
                             in_kernel, screen_all, screen_operator,
                             screen_operator_all, screen_poly)
from qchar.diffop import DiffOp, build_L_C
from qchar.characters import fundamental_poly, row_poly, h_poly
from qchar.bd import build_series_L, extract_Ta, extract_Tm


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


def test_canonicalize_telescopes_across_period(c2):
    # Y_1(v) + A-factor-adjusted partner cancels after canonicalization
    t = c2.pair2(1, 1)
    sym = {0: ONE, t: -a_factor(c2, 1, t // 2) ** -1}
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
        assert all(d["residual_term_count"] == 0 for d in rep.per_degree)


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


# -- the per-node screening pass q_euler_parts replaced, kept as an oracle --

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


def _o_q_euler_parts(p, cartan):
    """Every node's Euler parts, each mapped by its own ``to_q``."""
    out = {}
    for a in range(1, cartan.algebra.n + 1):
        for h, part in _o_euler_parts(p, a).items():
            q = part.to_q(cartan)
            if q:
                out[(a, h)] = q
    return out


def y_polys():
    var = st.tuples(st.integers(1, 3), st.integers(-6, 6))
    mono = st.dictionaries(var, st.integers(-3, 3).filter(bool), max_size=4)
    term = st.tuples(st.integers(-5, 5).filter(bool), mono).map(
        lambda t: LaurentPoly.monomial(
            t[0], {(Y_FAM, i, h): e for (i, h), e in t[1].items()}))
    return st.lists(term, max_size=6).map(poly_sum)


@settings(max_examples=150, deadline=None)
@given(y_polys(), y_polys(), st.sampled_from(("C", "B", "D")))
def test_q_euler_parts_matches_per_node_oracle(a, b, series):
    cartan = CartanData(AlgebraSpec(series, 3))
    # products and differences make colliding monomials cancel
    for p in (a, a * b, a * b - a, a - a):
        assert p.q_euler_parts(cartan) == _o_q_euler_parts(p, cartan)


def test_q_euler_parts_within_term_cancellation(c2):
    # Y_1(u) Y_1(u+1): the two Q images share Q_1(u+1/2), which cancels
    p = Y(1, 0) * Y(1, 2) - 3 * Y(1, 0, 2) * Y(2, 5, -1)
    parts = p.q_euler_parts(c2)
    assert parts == _o_q_euler_parts(p, c2)
    assert set(parts) == {(1, 0), (1, 2), (2, 5)}
    assert parts[(1, 0)] == Qv(1, -1) * Qv(1, 3, -1) + (-6) * (
        Y(1, 0, 2) * Y(2, 5, -1)).to_q(c2)


def test_q_euler_parts_rejects_non_y_variables(c2):
    for p in (Y(1, 0) * Qv(1, 2), Y(1, 0) + Qv(2, 0), Qv(1, 0)):
        with pytest.raises(ValueError):
            p.q_euler_parts(c2)
        with pytest.raises(ValueError):
            screen_all(p, c2)


def test_q_euler_parts_exponents_past_digit_range_raise_overflow():
    cartan = CartanData(AlgebraSpec("C", 3))
    with pytest.raises(OverflowError):
        Y(1, 0, 20000).q_euler_parts(cartan)
    with pytest.raises(OverflowError):
        screen_all(Y(1, 0, 20000), cartan)
    with pytest.raises(OverflowError):
        apply_screening(1, Y(1, 0, 20000), cartan)
    # at the edge the doubled exponent still fits
    half = EXP_MAX // 2
    edge = Y(1, 0, half)
    assert edge.q_euler_parts(cartan) == {(1, 0): half * edge.to_q(cartan)}
    with pytest.raises(OverflowError):
        Y(1, 0, half + 1).q_euler_parts(cartan)
    # a loose bound is replaced by the exact one before any refusal
    loose = (Y(1, 0, 20000) + Y(2, 1)) - Y(1, 0, 20000)
    assert loose.q_euler_parts(cartan) == _o_q_euler_parts(Y(2, 1), cartan)


def _kernel_cases():
    """(cartan, kernel polynomials) for C, B and D."""
    out = []
    for n in (2, 3):
        polys = [fundamental_poly(n, b) for b in range(1, n + 1)]
        out.append((CartanData(AlgebraSpec("C", n)), polys + [row_poly(n, 2)]))
    for series, n in (("B", 3), ("D", 4)):
        spec = AlgebraSpec(series, n)
        L = build_series_L(spec, 6)
        polys = list(extract_Ta(L).values()) + list(extract_Tm(L).values())
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
        parts = _o_q_euler_parts(p, cartan)
        for a in res:
            assert res[a] == screen_poly(a, p, cartan)
            want = canonicalize(
                a, {h: q for (i, h), q in parts.items() if i == a}, cartan)
            assert res[a] == want
            assert (not res[a]) == in_kernel(a, p, cartan)
    # the kernel polynomials screen to zero at every node, the broken one
    # does not: the all-node path cannot pass vacuously
    assert all(not r for p in polys for r in screen_all(p, cartan).values())
    assert any(screen_all(broken, cartan).values())


@pytest.mark.parametrize("spec", [AlgebraSpec("C", 2), AlgebraSpec("B", 2),
                                  AlgebraSpec("D", 3)])
def test_screen_operator_all_matches_per_node(spec, monkeypatch):
    cartan = CartanData(spec)
    if spec.series == "C":
        L = build_L_C(spec.n, "zFactored")
    else:
        L = build_series_L(spec, 8)
    L = L + DiffOp({2: Y(1, 0)}, L.order)  # a nonzero residual at D^2
    reps = screen_operator_all(L, cartan)
    assert [r.node_a for r in reps] == list(range(1, spec.n + 1))
    for rep in reps:
        assert rep.per_degree == screen_operator(rep.node_a, L,
                                                 cartan).per_degree
    assert not reps[0].zero
    # an out-of-range node is refused before any coefficient is screened
    calls = []
    monkeypatch.setattr("qchar.screening.screen_all",
                        lambda p, c: calls.append(p) or screen_all(p, c))
    for a in (0, spec.n + 1):
        with pytest.raises(ValueError):
            screen_operator(a, L, cartan)
    assert calls == []
    assert screen_operator(1, L, cartan).per_degree == reps[0].per_degree
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
    # T_m(u); that is sound because a shift moves the residuals along
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
            assert screen_all(p.shift(h), cartan) == {
                a: _shifted(r, h) for a, r in res.items()}, (p, h)
            # before the classes recombine (to zero, for a kernel member)
            for a in res:
                sym = apply_screening(a, p, cartan)
                assert apply_screening(a, p.shift(h), cartan) == \
                    _shifted(sym, h)
                assert canonicalize(a, _weighted(_shifted(sym, h)), cartan) \
                    == _shifted(canonicalize(a, _weighted(sym), cartan), h)
    assert not any(any(screen_all(p, cartan).values()) for p in polys)
    assert any(screen_all(broken, cartan).values())


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
    """Every node's residuals from the per-node Euler parts and the
    per-argument chains."""
    parts = _o_q_euler_parts(p, cartan)
    return {a: _o_canonicalize(
        a, {h: q for (i, h), q in parts.items() if i == a}, cartan)
        for a in range(1, cartan.algebra.n + 1)}


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
        counts = {(rep.node_a, d["deg"]): d["residual_term_count"]
                  for rep in screen_operator_all(op, cartan)
                  for d in rep.per_degree}
        assert screenings_vanish(p, cartan, partial(a_factor, cartan))
        for j, v in enumerate(variants):
            want = _o_screen_all(v, cartan)
            assert screen_all(v, cartan) == want, (p, j)
            assert any(want.values()), (p, j)
            assert not screenings_vanish(v, cartan, partial(a_factor, cartan))
            for a, res in want.items():
                assert counts[(a, 2 * j)] == sum(q.n_terms
                                                 for q in res.values())
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
        assert [any(res.values()) for res in want] == [False] * (
            len(polys) - 1) + [True]
        assert [screen_all(p.shift(h), cartan) for p in polys] == [
            {a: _shifted(r, h) for a, r in res.items()} for res in want]
        assert [screenings_vanish(p.shift(h), cartan,
                                  partial(a_factor, cartan))
                for p in polys[:-1]] == [True] * (len(polys) - 1)


def test_screen_all_keeps_classes_apart(c2):
    # one term, two screening symbols with opposite multiplicities and
    # the same Q image and chain: in different classes of node 1, and at
    # different nodes; neither pair cancels
    for p in (Y(1, 0) * Y(1, 1, -1), 3 * Y(1, 0) * Y(2, 0, -1)):
        assert not screenings_vanish(p, c2, partial(a_factor, c2))
        want = _o_screen_all(p, c2)
        assert screen_all(p, c2) == want and any(want.values())


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
        assert res == {a: screen_poly(a, p, cartan) for a in res}
        failed += any(res.values())
    assert failed
