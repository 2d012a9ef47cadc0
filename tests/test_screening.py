"""Screening operators: Leibniz action, shift canonicalization, kernels."""

import pytest

from qchar.ring import AlgebraSpec, CartanData, Y, Qv, ONE
from qchar.screening import (a_factor, apply_screening, canonicalize,
                             in_kernel, screen_operator)
from qchar.diffop import build_L_C
from qchar.characters import fundamental_poly, row_poly, h_poly


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


def test_report_serialization():
    cartan = CartanData(AlgebraSpec("C", 2))
    rep = screen_operator(1, build_L_C(2, "zFactored"), cartan,
                          target="operator")
    js = rep.to_json()
    assert js["zero"] and js["target"] == "operator" and js["node_a"] == 1
