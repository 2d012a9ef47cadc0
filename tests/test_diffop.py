"""Difference-operator algebra and the factorized C-series operator."""

import pytest
from hypothesis import given, settings, strategies as st

from qchar.ring import (AlgebraSpec, CartanData, LaurentPoly, VariableTable,
                        Y, ONE)
from qchar.diffop import (DiffOp, EpsilonChoice, build_L_C, build_Lj_C,
                          prod, L_FORMS)
from qchar.characters import fundamental_poly


def extract_e(L: DiffOp, a: int) -> LaurentPoly:
    """Elementary coefficient e_a(u), base-point normalized, from the
    degree-N xFactored operator (whose D^a coefficient is -(-1)^a
    e_a(u + a/2))."""
    N = max(L.coeffs)
    if not (0 <= a <= N):
        raise ValueError(f"coefficient index out of range: {a}")
    c = L.coeff(a)
    sign = 1 if a % 2 == 1 else -1
    return (sign * c).shift(-a)


def test_mul_shifts_right_factor():
    a = DiffOp({1: ONE})              # D
    b = DiffOp({0: Y(1, 0)})          # Y_1(u)
    assert (a * b).coeff(1) == Y(1, 2)
    assert (b * a).coeff(1) == Y(1, 0)


def test_mul_is_associative_on_factors():
    f = [DiffOp({0: ONE, 1: Y(1, 2 * i)}) for i in range(3)]
    assert (f[0] * f[1]) * f[2] == f[0] * (f[1] * f[2])
    assert prod(f) == f[0] * f[1] * f[2]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_four_forms_agree_up_to_sign(n, sign):
    cartan = CartanData(AlgebraSpec("C", n))
    eps = EpsilonChoice(sign)
    x = build_L_C(n, "xFactored", eps)
    for form in ("zFactored", "zReversed"):
        z = build_L_C(n, form, eps).map_coeffs(lambda c: c.to_q(cartan))
        assert z == -x
    assert build_L_C(n, "xReversed", eps) == -x


def test_operator_degree_and_constant_term():
    L = build_L_C(2)
    N = 6
    assert max(L.coeffs) == N
    assert L.coeff(0) == -ONE


@pytest.mark.parametrize("n", [2, 3])
def test_coefficients_are_fundamentals(n):
    cartan = CartanData(AlgebraSpec("C", n))
    Lz = build_L_C(n, "zFactored")          # equals -L, Y-representation
    Lx = build_L_C(n, "xFactored")          # equals +L, Q-representation
    N = 2 * n + 2
    for a in range(0, N + 1):
        fund = fundamental_poly(n, a)
        assert Lz.coeff(a) == ((-1) ** a) * fund.shift(a)
        assert extract_e(Lx, a) == fund.to_q(cartan)


def test_full_partial_product_recovers_operator():
    n = 2
    N = 2 * n + 2
    L = build_L_C(n)
    assert build_Lj_C(n, N) == L


@pytest.mark.parametrize("n", [2, 3])
def test_partial_products_written_out(n):
    N = 2 * n + 2
    # each partial product written out: (D - eps_i x_i(u+n+1-i)) for the
    # last j indices, with the two middle signs at -1
    table = VariableTable(AlgebraSpec("C", n))
    eps = EpsilonChoice(-1)
    for j in range(1, N + 1):
        assert build_Lj_C(n, j) == prod([
            DiffOp({0: -eps.eps(i, n) * table.x(i, 2 * (n + 1 - i)), 1: ONE})
            for i in range(N + 1 - j, N + 1)])
    for j in (0, N + 1):
        with pytest.raises(ValueError):
            build_Lj_C(n, j)


def test_inverse_series_two_sided():
    L = build_L_C(2)
    inv = L.inverse_series(6)
    assert L * inv == DiffOp.unit(6)
    assert inv * L == DiffOp.unit(6)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        DiffOp({0: Y(1, 0)}).inverse_series(4)


def test_truncation_is_enforced():
    t = DiffOp({0: ONE, 1: Y(1, 0)}, order=3)
    sq = t * t * t * t * t
    assert max(sq.coeffs) <= 3


def test_epsilon_choice_validation():
    with pytest.raises(ValueError):
        EpsilonChoice(0)
    e = EpsilonChoice(-1)
    n = 3
    assert e.eps(n + 1, n) == -1 and e.eps(n + 2, n) == -1
    assert e.eps(1, n) == 1 and e.eps(2 * n + 2, n) == 1


def test_unknown_form_rejected():
    with pytest.raises(ValueError):
        build_L_C(2, "diagonal")
    assert set(L_FORMS) == {"zFactored", "zReversed", "xFactored",
                            "xReversed"}


# -- the coefficient sums DiffOp used to build with ``+`` chains, as oracles

def _o_mul(x, y):
    order = (y.order if x.order is None else
             x.order if y.order is None else min(x.order, y.order))
    out = {}
    for i, c in x.coeffs.items():
        for j, d in y.coeffs.items():
            if order is None or i + j <= order:
                out[i + j] = out.get(i + j, LaurentPoly.zero()) + (
                    c * d.shift(2 * i))
    return DiffOp(out, order)


def _o_inverse(x, order):
    s0 = 1 if x.coeff(0) == ONE else -1
    b = {0: LaurentPoly.const(s0)}
    for k in range(1, order + 1):
        acc = LaurentPoly.zero()
        for i, c in x.coeffs.items():
            if 0 < i <= k and k - i in b:
                acc = acc + c * b[k - i].shift(2 * i)
        if acc:
            b[k] = (-s0) * acc
    return DiffOp(b, order)


def small_ops(order=None):
    coeff = st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2),
                               st.integers(-3, 3)), max_size=3).map(
        lambda ts: sum((c * Y(i, h) for c, i, h in ts), LaurentPoly.zero()))
    return st.dictionaries(st.integers(0, 4), coeff, max_size=4).map(
        lambda cs: DiffOp(cs, order))


@settings(max_examples=100, deadline=None)
@given(small_ops(), small_ops(), small_ops(5), st.sampled_from((1, -1)))
def test_mul_and_inverse_match_plus_chain_oracle(x, y, z, s0):
    assert x * y == _o_mul(x, y)
    assert x * z == _o_mul(x, z)
    u = DiffOp({**z.coeffs, 0: LaurentPoly.const(s0)}, 5)
    assert u.inverse_series(5) == _o_inverse(u, 5)
