"""Exact-rational minor identities on the triangular solution basis."""

from fractions import Fraction

import pytest

from qchar import casorati
from qchar.casorati import (QAssignment, TriangularBasis, build_grid,
                            mu_from_indices, transpose, skew_ssyt,
                            run_suite, default_index_sets,
                            verify_free_skew_lemma, GridReport)


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


def test_basis_solves_recurrence(basis2):
    # each basis column is annihilated by its own operator order; the
    # full-window casoratian is nonzero by construction
    assert basis2.casorati(tuple(range(6)), 0) != 0
    assert basis2.casorati((), 0) == 1


def test_casorati_negative_shift_guarded(basis2):
    with pytest.raises(IndexError):
        basis2.casorati((0, 1), -50)


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


def test_free_skew_lemma_standalone():
    rep = GridReport(seed=5)
    verify_free_skew_lemma(6, [(0, 1, 3, 4, 6, 7)], seed=5, rep=rep)
    assert rep.ok


def test_free_skew_lemma_redraws_singular_tables(monkeypatch):
    # seed 59 draws a table with a singular denominator minor at rank 2
    sets = default_index_sets(2)
    rep = GridReport(seed=59)
    verify_free_skew_lemma(6, sets, seed=59, rep=rep)
    assert rep.ok and len(rep.checks) == len(sets)
    monkeypatch.setattr(casorati, "MAX_DRAWS", 1)
    with pytest.raises(RuntimeError):
        verify_free_skew_lemma(6, sets, seed=59, rep=GridReport(seed=59))


def test_suite_rank2():
    rep = run_suite(2, seed=11)
    assert rep.ok, [c for c in rep.checks if not c["ok"]]
    assert len(rep.checks) > 80


def test_suite_deterministic():
    a = run_suite(2, seed=11).to_json()
    b = run_suite(2, seed=11).to_json()
    assert a == b


def test_default_index_sets_rank2_includes_remark_shape():
    sets = default_index_sets(2)
    assert (0, 1, 3, 4, 6, 7) in sets
    assert all(tuple(sorted(s)) == s for s in sets)
