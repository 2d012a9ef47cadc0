"""Classical specialization: symplectic characters at exact points."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qchar.ring import LaurentPoly, Y, Y_FAM, poly_sum, vk
from qchar.classical import (ClassicalPoint, clear_row, det_frac, det_int,
                             sp_character, hook_char_value, hook_dimension,
                             verify_pieri, verify_hook_decomposition,
                             verify_fundamental_images, hook_decomposition)


def test_det_frac_known():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert det_frac(m) == Fraction(-2)
    assert det_frac([[Fraction(1), Fraction(2)],
                     [Fraction(2), Fraction(4)]]) == 0
    assert det_frac([]) == 1
    assert det_frac([[Fraction(5, 3)]]) == Fraction(5, 3)
    # a zero leading pivot needs one row swap, which flips the sign
    assert det_frac([[Fraction(0), Fraction(1)],
                     [Fraction(1), Fraction(0)]]) == -1


def _det_oracle(mat):
    """Gaussian elimination on Fractions, the determinant used before
    the integer Bareiss form."""
    size = len(mat)
    m = [row[:] for row in mat]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            f = m[r][col] * inv
            if f:
                for cc in range(col, size):
                    m[r][cc] -= f * m[col][cc]
    return det


_entries = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def _matrices(draw):
    size = draw(st.integers(0, 5))
    mat = [[draw(_entries) for _ in range(size)] for _ in range(size)]
    if size >= 2:
        how = draw(st.sampled_from(("free", "zero pivot", "repeated row",
                                    "zero column")))
        if how == "zero pivot":
            mat[0][0] = Fraction(0)
        elif how == "repeated row":
            scale = draw(_entries)
            mat[-1] = [scale * x for x in mat[0]]
        elif how == "zero column":
            for row in mat:
                row[0] = Fraction(0)
    return mat


@settings(max_examples=300, deadline=None)
@given(_matrices())
@example([])
@example([[Fraction(-3, 7)]])
@example([[Fraction(0)]])
@example([[Fraction(0), Fraction(1, 2)], [Fraction(3), Fraction(5)]])
@example([[Fraction(0), Fraction(0), Fraction(1)],
          [Fraction(0), Fraction(2), Fraction(0)],
          [Fraction(3), Fraction(0), Fraction(0)]])
def test_det_frac_matches_fraction_elimination(mat):
    copy = [row[:] for row in mat]
    assert det_frac(mat) == _det_oracle(mat)
    assert mat == copy  # the input is left as it was


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_det_int_matches_det_frac(mat):
    # on integer rows directly, and on every rational matrix through its
    # cleared rows over the product of their denominators; det_frac is
    # built on det_int, so both also meet the Fraction elimination
    ints = [[x.numerator for x in row] for row in mat]
    copy = [row[:] for row in ints]
    assert det_int(ints) == _det_oracle([list(map(Fraction, row))
                                         for row in ints])
    assert ints == copy  # the input is left as it was
    cleared = [clear_row(row) for row in mat]
    assert all(Fraction(x, l) == y for (row, l), orig in zip(cleared, mat)
               for x, y in zip(row, orig))
    dens = 1
    for _, l in cleared:
        dens *= l
    assert (Fraction(det_int([r for r, _ in cleared]), dens) == det_frac(mat)
            == _det_oracle(mat))


def test_beta_forgets_spectral_parameter():
    pt = ClassicalPoint((Fraction(2), Fraction(3)))
    assert (Y(1, 0).eval_rational(pt) == Y(1, 7).eval_rational(pt)
            == Fraction(2))
    assert Y(2, 3).eval_rational(pt) == Fraction(6)
    with pytest.raises(ValueError):
        from qchar.ring import Qv
        Qv(1, 0).eval_rational(pt)


def _beta_oracle(p, pt):
    """Term-by-term classical image: each Y_a(u+s)^e contributes
    (x_1 ... x_a)^e."""
    total = Fraction(0)
    for key, c in p.terms():
        val = Fraction(c)
        for (fam, idx, half), e in key:
            assert fam == Y_FAM
            for b in range(idx):
                val *= pt.values[b] ** e
        total += val
    return total


_coords = st.builds(Fraction,
                    st.sampled_from([p for p in range(-9, 10) if p]),
                    st.integers(1, 9))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(
           st.sampled_from([c for c in range(-5, 6) if c]),
           st.lists(st.tuples(  # no retries for duplicate keys
               st.tuples(st.integers(1, 3), st.integers(-6, 6)),
               st.sampled_from([e for e in range(-3, 4) if e])),
               max_size=4).map(dict)),
           max_size=6),
       st.lists(st.tuples(_coords, _coords, _coords).map(ClassicalPoint),
                min_size=1, max_size=3))
def test_beta_eval_matches_per_term_oracle(terms, pts):
    p = poly_sum(LaurentPoly.monomial(
        c, {vk(Y_FAM, a, h): e for (a, h), e in exps.items()})
        for c, exps in terms)
    want = [_beta_oracle(p, pt) for pt in pts]
    assert [p.eval_rational(pt) for pt in pts] == want
    assert p.eval_points(pts) == want


def test_character_at_unit_point_is_dimension():
    # near-unit evaluation is ill-conditioned for the alternant, so the
    # dimension comes from the product formula instead
    assert hook_dimension(2, 0, 0) == 4          # defining rep of C_2
    assert hook_dimension(2, 0, 1) == 5          # Lambda_2 fundamental
    assert hook_dimension(2, 1, 0) == 10         # adjoint
    assert hook_dimension(2, -1, 0) == 1
    assert hook_dimension(2, 1, -1) == 0


def test_character_weyl_vs_dimension_consistency():
    rng = random.Random(5)
    pt = ClassicalPoint.random(2, rng)
    # chi values are symmetric under inverting any coordinate
    inv = ClassicalPoint(tuple(1 / v for v in pt.values))
    for lam in ([1], [1, 1], [2], [2, 1]):
        assert sp_character(lam, pt) == sp_character(lam, inv)


def test_hook_boundary_rules():
    pt = ClassicalPoint((Fraction(2), Fraction(3)))
    assert hook_char_value(2, -1, 0, pt) == 1
    assert hook_char_value(2, -1, 1, pt) == 0
    assert hook_char_value(2, 3, -1, pt) == 0
    assert hook_char_value(2, 3, 2, pt) == 0
    assert hook_char_value(2, -2, 0, pt) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_pieri(n):
    rep = verify_pieri(n, 3, seed=11)
    assert rep.ok, [c for c in rep.checks if not c["ok"]]


@pytest.mark.parametrize("n", [2, 3])
def test_hook_decomposition(n):
    N = 2 * n + 2
    rep = verify_hook_decomposition(n, N + 1, N + 2, seed=11)
    assert rep.ok, [c for c in rep.checks if not c["ok"]]


@pytest.mark.parametrize("n", [2, 3])
def test_fundamental_images(n):
    rep = verify_fundamental_images(n, seed=11)
    assert rep.ok, [c for c in rep.checks if not c["ok"]]


def test_dimension_instance_16():
    # the product of the two 4-dimensional representations at rank 2:
    # 4 x 4 = 10 + 5 + 1 via the four-hook sum at p = a = 1
    dims = [hook_dimension(2, al, g) for _, al, g in
            [(1, 1, 0), (1, 0, 1), (1, 0, -1), (1, -1, 0)]]
    assert dims == [10, 5, 0, 1]
    assert hook_dimension(2, 0, 0) ** 2 == sum(dims)


def test_decomposition_signs():
    terms = hook_decomposition(2, 5, 7)
    assert all(s == -1 for s, _, _ in terms)
    terms = hook_decomposition(2, 1, 7)
    assert all(s == 1 for s, _, _ in terms)
