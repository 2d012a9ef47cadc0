"""Series operators for the B and D algebras."""

from itertools import product

import pytest

from qchar.ring import (AlgebraSpec, CartanData, VariableTable, Words, vk,
                        word_sum, Y, Y_FAM, ONE)
from qchar.diffop import DiffOp, prod
from qchar.bd import (build_series_L, extract_Ta, series_factors, tm_blocks,
                      verify_b_expansion, verify_d_expansion,
                      verify_bd_screening, verify_block_lemmas, run_suite,
                      b_f, b_k, b_h, d_h, d_k)
from qchar import bd, ring, screening, tableaux
from qchar.screening import (apply_screening, canonicalize, in_kernel,
                             screen_all, screen_operator_all)
from test_mutants import MUTANTS


def build_series_inverse(algebra, order):
    """The oracle of the word statement ``tm_blocks``: L^{-1} truncated at
    D^order, the inverses of ``series_factors`` multiplied in reverse
    order.  Every factor and every inverted factor has single-term
    coefficients, so the truncated L itself is never inverted."""
    return prod([f.inverse_series(order)
                 for f in reversed(series_factors(algebra, order))])


def tm_templates(algebra):
    """The letter templates of ``tm_blocks``: z_1..z_2n, and z_0 under
    letter 0 for B."""
    table = VariableTable(algebra)
    z = {c: table.z(c) for c in range(1, 2 * algebra.n + 1)}
    if algebra.series == "B":
        z[0] = table.z0()
    return z


def tm_words(algebra, m, half=0):
    """T_m(u + half/2) as the ``Words`` of ``tm_blocks``."""
    return Words(tm_templates(algebra), [half + 4 * j for j in range(m)],
                 tm_blocks(algebra, m))


def tm_poly(algebra, m):
    """T_m(u), the word statement built by ``word_sum``."""
    return word_sum(tm_words(algebra, m))


def _reference(p, cartan):
    """Per-node verdicts of the reference route on a built polynomial."""
    return {a: not canonicalize(a, apply_screening(a, p, cartan), cartan)
            for a in range(1, cartan.algebra.n + 1)}


def extract_Tm(L: DiffOp) -> dict:
    """Coefficients of L^{-1} = 1 + sum_m T_m(u+m) D^{2m}, renormalized
    to base point u: returns {m: T_m(u)}."""
    inv = L.inverse_series(L.order)
    return {j // 2: inv.coeff(j).shift(-j) for j in sorted(inv.coeffs) if j}


def test_structure_b():
    L = build_series_L(AlgebraSpec("B", 2), 8)
    assert L.coeff(0) == ONE
    assert all(j % 2 == 0 for j in L.coeffs)
    assert L.order == 8 and max(L.coeffs) == 8


def test_structure_d():
    L = build_series_L(AlgebraSpec("D", 3), 8)
    assert L.coeff(0) == ONE
    assert all(j % 2 == 0 for j in L.coeffs)


def test_odd_degree_fails_its_check(monkeypatch):
    # an odd D-degree is reported by the suite's check, not refused by
    # build_series_L; extract_Ta, which would read D^j as T^(j // 2),
    # refuses it
    factors = bd.series_factors
    monkeypatch.setattr(bd, "series_factors", lambda algebra, order, half=0: [
        *factors(algebra, order, half), DiffOp({0: ONE, 1: Y(1, 0)}, order)])
    rep = run_suite("B", 2, 6)
    assert "only even D-degrees" in [c["identity"] for c in rep.checks
                                     if not c["ok"]]
    with pytest.raises(ArithmeticError, match="odd D-degree 1"):
        extract_Ta(build_series_L(AlgebraSpec("B", 2), 6))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_series_L(AlgebraSpec("C", 2), 8)
    with pytest.raises(ValueError):
        build_series_L(AlgebraSpec("B", 2), 1)


def test_degree2_coefficient_is_letter_sum():
    # -T^1(u+1) = -(sum of all z-letters plus the middle correction)
    n = 2
    L = build_series_L(AlgebraSpec("B", n), 4)
    table = VariableTable(AlgebraSpec("B", n))
    letters = sum((table.z(c) for c in range(1, 2 * n + 1)),
                  table.z0())
    assert L.coeff(2) == -letters


def test_extract_roundtrip():
    L = build_series_L(AlgebraSpec("B", 2), 8)
    ta = extract_Ta(L)
    tm = extract_Tm(L)
    assert set(ta) == {1, 2, 3, 4} and set(tm) == {1, 2, 3, 4}
    # T^1(u) carries the leading Y_1(u) monomial with coefficient 1
    assert ta[1].coeff_of({vk(Y_FAM, 1, 0): 1}) == 1


def test_inverse_is_two_sided():
    spec = AlgebraSpec("D", 3)
    L = build_series_L(spec, 8)
    for inv in (L.inverse_series(8), build_series_inverse(spec, 8)):
        assert L * inv == DiffOp.unit(8)
        assert inv * L == DiffOp.unit(8)


@pytest.mark.parametrize("series,n", [("B", 2), ("B", 3), ("B", 4),
                                      ("D", 3), ("D", 4), ("D", 5)])
def test_tm_blocks_match_the_inverted_factors(series, n):
    # the word statement of T_m against the product of the inverted
    # factors, to m = 8; L^{-1} has no odd D-degree
    spec = AlgebraSpec(series, n)
    inv = build_series_inverse(spec, 16)
    assert all(j % 2 == 0 for j in inv.coeffs)
    for m in range(9):
        assert tm_poly(spec, m) == inv.coeff(2 * m), m
    # D: no word holds both n and nbar; B: none holds 0 twice
    words = [w for block in tm_blocks(spec, 6)
             for w in product(*block)]
    flat = [sum(w, ()) for w in words]
    assert len(set(flat)) == len(flat)
    if series == "D":
        assert not any(n in w and n + 1 in w for w in flat)
    else:
        assert all(w.count(0) <= 1 for w in flat)


@pytest.mark.parametrize("series,n", [("B", 2), ("B", 3), ("B", 4),
                                      ("D", 3), ("D", 4), ("D", 5)])
def test_factored_inverse_matches_recursion(series, n):
    # the degree recursion on the truncated L is the reference
    spec = AlgebraSpec(series, n)
    L = build_series_L(spec, 12)
    for order in (4, 8, 12):
        inv = build_series_inverse(spec, order)
        truncated = DiffOp(L.coeffs, order)  # drops every D^j, j > order
        assert inv == truncated.inverse_series(order), order


@pytest.mark.parametrize("n", [2, 3])
def test_b_expansion(n):
    assert verify_b_expansion(n, 10)


@pytest.mark.parametrize("n", [3, 4])
def test_d_expansion(n):
    assert verify_d_expansion(n, 12)


def test_block_lemmas():
    assert verify_block_lemmas(AlgebraSpec("B", 2)).ok
    assert verify_block_lemmas(AlgebraSpec("D", 3)).ok


def test_block_pieces_only_kernel_at_long_node():
    cartan = CartanData(AlgebraSpec("B", 3))
    assert in_kernel(3, b_f(3), cartan)
    assert in_kernel(3, b_k(3), cartan)
    assert in_kernel(3, b_h(3), cartan)
    cartan_d = CartanData(AlgebraSpec("D", 4))
    assert in_kernel(4, d_h(4, 4), cartan_d)
    assert in_kernel(4, d_k(4, 4), cartan_d)
    # the verdicts differ from node to node: f has no Y_1, so S_1 kills
    # it trivially; S_2 does not, and S_3 kills it by the long-node lemma
    verdicts = screen_all(b_f(3), cartan)
    assert verdicts == {1: True, 2: False, 3: True}
    assert verdicts == {a: not canonicalize(
        a, apply_screening(a, b_f(3), cartan), cartan) for a in verdicts}


def test_screening_per_node():
    reps = verify_bd_screening(AlgebraSpec("B", 2), 8)
    assert [r.node_a for r in reps] == [1, 2] and all(r.zero for r in reps)


@pytest.mark.parametrize("series,n", [("B", 2), ("D", 3)])
def test_suite(series, n):
    rep = run_suite(series, n, order=8)
    assert rep.ok, [c for c in rep.checks if not c["ok"]]


@pytest.mark.parametrize("series,n", [("D", 3), ("B", 2)])
def test_suite_inverts_the_operator_once(monkeypatch, series, n):
    # only the middle factor of L is inverted: every operator inverted has
    # single-term coefficients, so the truncated L is never inverted
    inverted = []
    real = DiffOp.inverse_series

    def spy(op, order):
        inverted.append(op)
        return real(op, order)
    monkeypatch.setattr(DiffOp, "inverse_series", spy)
    assert run_suite(series, n).ok
    assert inverted
    assert all(c.n_terms == 1 for op in inverted for c in op.coeffs.values())


# The maximal runs of adjacent ``series_factors`` that hold a Y_a, as
# (start, stop), node by node: B2 has 5 factors, D3 has 7.
RUNS = {("B", 2): {1: [(0, 2), (3, 5)], 2: [(1, 4)]},
        ("D", 3): {1: [(0, 2), (5, 7)], 2: [(1, 3), (4, 6)], 3: [(1, 6)]}}


@pytest.mark.parametrize("series,n", [("B", 2), ("D", 3)])
def test_suite_builds_and_screens_each_coefficient_once(monkeypatch, series,
                                                         n):
    # L is built once and none of its coefficients is screened: the
    # kernel checks screen each coefficient of each distinct run once
    built, screened = [], []
    real_build, real_screen = bd.build_series_L, screening.screen_all

    def build_spy(algebra, order):
        built.append(real_build(algebra, order))
        return built[-1]

    def screen_spy(p, cartan):
        screened.append(p)
        return real_screen(p, cartan)
    monkeypatch.setattr(bd, "build_series_L", build_spy)
    for module in (bd, screening):
        monkeypatch.setattr(module, "screen_all", screen_spy)
    assert run_suite(series, n).ok
    assert len(built) == 1
    spec, order = AlgebraSpec(series, n), bd.default_order(n)
    factors = series_factors(spec, order)
    runs = list(dict.fromkeys(r for rs in RUNS[series, n].values()
                              for r in rs))
    coeffs = [c for start, stop in runs
              for _, c in sorted(prod(factors[start:stop]).coeffs.items())]
    # the block lemmas screen their pieces through in_kernel first
    pieces = ([b_f(n), b_k(n), b_h(n)] if series == "B"
              else [d_h(n, n), d_k(n, n)])
    assert screened == pieces + coeffs
    assert not any(p == c for p in screened
                   for j, c in built[0].coeffs.items() if j)


@pytest.mark.parametrize("series,n", [("B", 2), ("D", 3), ("D", 5)])
def test_suite_never_multiplies_by_an_inverse(monkeypatch, series, n):
    # L is multiplied out only by build_series_L, the kernel certificate's
    # runs and the two expansion checks; L^{-1} and its coefficients T_m
    # are never built
    depth, products = [0], []
    real_mul = DiffOp.__mul__

    def mul_spy(a, b):
        products.append(depth[0])
        return real_mul(a, b)

    def allowed(f):
        def run(*args):
            depth[0] += 1
            try:
                return f(*args)
            finally:
                depth[0] -= 1
        return run

    def refuse(*args):
        raise AssertionError("the B/D suite built a word sum")
    monkeypatch.setattr(DiffOp, "__mul__", mul_spy)
    for name in ("build_series_L", "verify_bd_screening",
                 "verify_b_expansion", "verify_d_expansion"):
        monkeypatch.setattr(bd, name, allowed(getattr(bd, name)))
    for module in (ring, tableaux):
        monkeypatch.setattr(module, "word_sum", refuse)
    assert run_suite(series, n).ok
    assert products and all(products)


@pytest.mark.parametrize("series,n", [("B", 2), ("D", 3), ("D", 5)])
def test_failing_suite_never_takes_the_reference_route(monkeypatch, series,
                                                       n):
    # a coefficient that fails is decided on call-local keys like one
    # that passes: no residual is built on global keys
    module, attr, mutate = MUTANTS["bd"][1]["A_a argument shifted one unit"]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))

    def refuse(*args):
        raise AssertionError("the B/D suite reached the reference route")
    monkeypatch.setattr(screening, "apply_screening", refuse)
    monkeypatch.setattr(screening, "canonicalize", refuse)
    failed = [c["identity"] for c in run_suite(series, n).checks
              if not c["ok"]]
    assert failed and all("kernel" in name for name in failed)


# -- each T_m verdict is the conjunction of "L times inverse is 1" and L's
# own verdicts; screening the built T_m is the oracle --

SUITE_RANKS = [("B", 2), ("B", 3), ("B", 4), ("D", 3), ("D", 4), ("D", 5)]
SHIFTED_A = MUTANTS["bd"][1]["A_a argument shifted one unit"]


def _verdicts(rep, prefix):
    """{a: ok} of the suite's checks "<prefix> a", node by node."""
    return {int(c["identity"][len(prefix):]): c["ok"] for c in rep.checks
            if c["identity"].startswith(prefix)}


def _screened(spec, order, route):
    """{a: whether every T_m that a suite run at ``order`` certifies, 1 <=
    2m <= its capped truncation, built by ``word_sum``, is in the kernel
    of node a}, by ``route(p, cartan)``."""
    cartan = CartanData(spec)
    verdicts = [route(tm_poly(spec, m), cartan)
                for m in range(1, min(order, 12) // 2 + 1)]
    return {a: all(v[a] for v in verdicts) for a in range(1, spec.n + 1)}


@pytest.mark.parametrize("shifted", [False, True], ids=("A_a", "shifted"))
@pytest.mark.parametrize("series,n", SUITE_RANKS)
def test_run_certificate_matches_screening_the_built_operator(
        monkeypatch, series, n, shifted):
    # screening every coefficient of the built L at every node is the
    # oracle of what the suite reads from the certificate: its verdict and
    # whether every failing degree lies past the inverse's truncation; at
    # order 2 the D middle factor truncates to 1, so runs read from the
    # factors at that order would split node n's run into two pairs
    if shifted:
        module, attr, mutate = SHIFTED_A
        monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    spec = AlgebraSpec(series, n)
    cartan = CartanData(spec)
    for order in (2, 4, bd.default_order(n)):
        got, want = ([(r.node_a, r.zero,
                       all(d > min(order, 12) for d in r.failing))
                      for r in reps]
                     for reps in (verify_bd_screening(spec, order),
                                  screen_operator_all(
                                      build_series_L(spec, order), cartan)))
        assert got == want, order
        assert all(zero for _, zero, _ in got) != shifted, order


@pytest.mark.parametrize("shifted", [False, True], ids=("A_a", "shifted"))
@pytest.mark.parametrize("series,n", SUITE_RANKS)
def test_tm_verdicts_match_screening_the_built_coefficients(
        monkeypatch, series, n, shifted):
    # with A_a shifted by one unit the screening is still a twisted
    # derivation that commutes with shifts, so the certificate and the
    # direct screening must agree on the nodes it breaks as well; at
    # order 2 the one certified T_m rests on L's top coefficient alone
    if shifted:
        module, attr, mutate = SHIFTED_A
        monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    spec = AlgebraSpec(series, n)
    for order in (2, bd.default_order(n)):
        got = _verdicts(run_suite(series, n, order),
                        "all T_m coefficients in kernel of node ")
        assert list(got) == list(range(1, n + 1))
        assert got == _screened(spec, order, screen_all)
        if (series, n) in (("B", 2), ("D", 3)):  # the smallest ranks
            assert got == _screened(spec, order, _reference)
        assert all(got.values()) != shifted


@pytest.mark.parametrize("series,n", SUITE_RANKS)
def test_dropped_tm_word_fails_the_inverse_and_every_tm_check(
        monkeypatch, series, n):
    module, attr, mutate = MUTANTS["bd"][1]["one dropped word of T_1"]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    rep = run_suite(series, n)
    failed = {c["identity"] for c in rep.checks if not c["ok"]}
    assert failed == {"L times inverse is 1 to truncation"} | {
        f"all T_m coefficients in kernel of node {a}"
        for a in range(1, n + 1)}


@pytest.mark.parametrize("series,n", SUITE_RANKS)
def test_shifted_a_factor_fails_the_ta_and_tm_checks_of_the_nodes_it_breaks(
        monkeypatch, series, n):
    module, attr, mutate = SHIFTED_A
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    spec = AlgebraSpec(series, n)
    cartan = CartanData(spec)
    for order in (2, bd.default_order(n)):
        rep = run_suite(series, n, order)
        L = build_series_L(spec, order)
        broken = {a for j, c in L.coeffs.items() if j <= min(order, 12)
                  for a, ok in screen_all(c, cartan).items() if not ok}
        assert broken
        for prefix in ("all T^a coefficients in kernel of node ",
                       "all T_m coefficients in kernel of node "):
            got = _verdicts(rep, prefix)
            assert {a for a, ok in got.items() if not ok} == broken, prefix
        assert [c["ok"] for c in rep.checks if c["identity"]
                == "L times inverse is 1 to truncation"] == [True]
