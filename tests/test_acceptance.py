"""Acceptance gate: one criterion per test, one pass/fail line each.

Every check is exact (integer/rational arithmetic); no tolerances.
"""

import time
from pathlib import Path

from qchar.ring import AlgebraSpec, CartanData
from qchar.diffop import build_L_C, EpsilonChoice
from qchar import characters, tableaux, classical, casorati, bd
from qchar.screening import in_kernel, screen_operator
from qchar.cli import main

GOLDEN = Path(__file__).parent / "golden"


def emit(name: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def test_c01_fundamental_characters_golden(capsys):
    t0 = time.time()
    ok = True
    for a, fname in ((1, "fundamental_r2_a1.txt"),
                     (2, "fundamental_r2_a2.txt")):
        code = main(["character", "--rank", "2", "--fundamental", str(a)])
        out = capsys.readouterr().out
        ok = ok and code == 0 and out == (GOLDEN / fname).read_text()
    ok = ok and characters.fundamental_poly(2, 1).n_terms == 4
    ok = ok and characters.fundamental_poly(2, 2).n_terms == 5
    ok = ok and time.time() - t0 < 1.0
    with capsys.disabled():
        assert emit("criterion 1: rank-2 fundamental characters "
                    "match the pinned golden output in < 1 s", ok)


def test_c02_column_cancellation(capsys):
    t0 = time.time()
    ok = True
    for n in range(2, 6):
        for a in range(1, n + 1):
            rep = tableaux.verify_cancellation(n, a)
            ok = ok and rep.ok and rep.x_equals_admissible
            ok = ok and rep.admissible_count == len(
                tableaux.gen_column_tableaux(n, a))
    ok = ok and time.time() - t0 < 120
    with capsys.disabled():
        assert emit("criterion 2: signed x-sum collapses to the "
                    "admissible column sum for all a, n = 2..5", ok)


def test_c03_descent_bijection(capsys):
    t0 = time.time()
    ok = True
    for n in (3, 4, 5):
        for a in range(3, n + 1):
            rep = tableaux.verify_cancellation(n, a)
            ok = ok and rep.bijection_ok
    # the worked n = 9 chain, stopping index 4, breaking-pair gap 5
    chain, p = tableaux.descent_chain((3, 5, 7, 9, 9, 10, 11, 12, 16), 9)
    ok = ok and p == 4
    ok = ok and chain[-1] == (3, 4, 5, 6, 9, 11, 13, 15, 16)
    ok = ok and tableaux.maximal_breaking_pair(chain[-1], 9) == (4, 5)
    ok = ok and time.time() - t0 < 300
    with capsys.disabled():
        assert emit("criterion 3: descent/raise maps are mutually inverse "
                    "weight-preserving bijections with the stated "
                    "breaking-pair gap, n = 3..5", ok)


def test_c04_screening_kernels(capsys):
    t0 = time.time()
    ok = True
    for n in (2, 3):
        cartan = CartanData(AlgebraSpec("C", n))
        L = build_L_C(n, "zFactored")
        for a in range(1, n + 1):
            ok = ok and screen_operator(a, L, cartan).zero
            for b in range(1, n + 1):
                ok = ok and in_kernel(
                    a, characters.fundamental_poly(n, b), cartan)
    cartan2 = CartanData(AlgebraSpec("C", 2))
    for m in range(1, 5):
        p = characters.row_poly(2, m)
        for a in (1, 2):
            ok = ok and in_kernel(a, p, cartan2)
    ok = ok and time.time() - t0 < 300
    with capsys.disabled():
        assert emit("criterion 4: screening operators annihilate the "
                    "factorized operator, all fundamentals (n = 2,3) and "
                    "rows m <= 4 (n = 2)", ok)


def test_c05_four_operator_forms(capsys):
    ok = True
    for n in (2, 3, 4):
        cartan = CartanData(AlgebraSpec("C", n))
        for sign in (1, -1):
            eps = EpsilonChoice(sign)
            x = build_L_C(n, "xFactored", eps)
            ok = ok and build_L_C(n, "xReversed", eps) == -x
            for form in ("zFactored", "zReversed"):
                z = build_L_C(n, form, eps).map_coeffs(
                    lambda c: c.to_q(cartan))
                ok = ok and z == -x
    with capsys.disabled():
        assert emit("criterion 5: all four factorized forms coincide up "
                    "to sign for n = 2,3,4, both epsilon choices", ok)


def test_c06_tt_and_tq_relations(capsys):
    ok = True
    for n in (2, 3):
        rep = characters.verify_tt_tq(n, 2 * (2 * n + 2))
        ok = ok and rep.ok
    with capsys.disabled():
        assert emit("criterion 6: both bilinear row/fundamental "
                    "convolutions (m <= 2N) and the Baxter-function "
                    "relation hold exactly, n = 2,3", ok)


def test_c07_t_system(capsys):
    t0 = time.time()
    ok = characters.verify_tsystem(2, 3, 3).ok
    ok = ok and characters.verify_tsystem(3, 3, 2).ok
    ok = ok and time.time() - t0 < 600
    with capsys.disabled():
        assert emit("criterion 7: the bilinear rectangle system holds "
                    "with determinant/Pfaffian values, n = 2 (m <= 3) and "
                    "n = 3 (Pfaffian m <= 2), in < 10 min", ok)


def test_c08_h_series(capsys):
    rep = characters.verify_hseries(2, k_extra=3, prod_k_max=8)
    ok = rep.ok
    with capsys.disabled():
        assert emit("criterion 8: recursion output equals the hook "
                    "determinant (N <= k <= N+3) and the transfer-matrix "
                    "product formula holds (k <= N+2), n = 2", ok)


def test_c09_remark_ratio(capsys):
    # minor-ratio shape (0,1,3,4,6,7) at n = 2: symbolic determinant
    # equals T^(1)(u+3/2) T^(1)(u+5/2) - T^(2)(u+1) T^(2)(u+3) with
    # exactly 19 monomials
    f1 = characters.fundamental_poly(2, 1)
    f2 = characters.fundamental_poly(2, 2)
    expr = f1.shift(3) * f1.shift(5) - f2.shift(2) * f2.shift(6)
    mu = casorati.mu_from_indices((0, 1, 3, 4, 6, 7))
    mup = casorati.transpose(mu)            # [4, 2]
    N = 6
    mat = [[characters.fundamental_poly(2, mup[j - 1] - j + l).shift(
        N - 2 + j + l - mup[j - 1])
        for l in range(1, 3)] for j in range(1, 3)]
    dt = characters.det(mat)
    sign = (-1) ** mu[0]
    ok = sign * dt == expr and expr.n_terms == 19
    # and the same ratio holds numerically on the solution basis
    rep = casorati.GridReport()
    basis = casorati.build_grid(2, 3, 26)
    casorati.verify_skew_on_basis(2, [(0, 1, 3, 4, 6, 7)], basis,
                                  range(0, 3), rep)
    ok = ok and rep.ok
    with capsys.disabled():
        assert emit("criterion 9: the (0,1,3,4,6,7) minor ratio equals "
                    "the stated two-term fundamental combination with "
                    "exactly 19 monomials", ok)


def test_c10_casorati_suite(capsys):
    t0 = time.time()
    ok = casorati.run_suite(2, seed=11).ok
    ok = ok and casorati.run_suite(3, seed=11).ok
    ok = ok and time.time() - t0 < 600
    with capsys.disabled():
        assert emit("criterion 10: exact-rational minor suite (shift "
                    "identity, one-gap ratios, hook ratios, basis x, "
                    "Pluecker/duality/odd vanishing, bilinear minor "
                    "forms, skew identities) passes at n = 2 and 3 "
                    "in < 10 min", ok)


def test_c11_classical_decompositions(capsys):
    ok = True
    for n in (2, 3):
        N = 2 * n + 2
        ok = ok and classical.verify_pieri(n, 4, seed=11).ok
        ok = ok and classical.verify_hook_decomposition(
            n, N + 1, N + 3, seed=11).ok
        ok = ok and classical.verify_fundamental_images(n, seed=11).ok
    dims = [classical.hook_dimension(2, a, g) for a, g in
            ((1, 0), (0, 1), (0, -1), (-1, 0))]
    ok = ok and dims == [10, 5, 0, 1] and sum(dims) == 16
    with capsys.disabled():
        assert emit("criterion 11: hook-character decompositions and the "
                    "four-hook product rule hold at 5 exact rational "
                    "points (n = 2,3); 16 = 10+5+1 reproduces", ok)


def test_c12_series_operators(capsys):
    t0 = time.time()
    ok = True
    for series, ranks in (("B", (2, 3)), ("D", (3, 4))):
        for n in ranks:
            ok = ok and bd.run_suite(series, n).ok
    ok = ok and bd.verify_b_expansion(2, 10) and bd.verify_b_expansion(3, 10)
    ok = ok and bd.verify_d_expansion(3, 12) and bd.verify_d_expansion(4, 12)
    ok = ok and time.time() - t0 < 600
    with capsys.disabled():
        assert emit("criterion 12: B (n = 2,3) and D (n = 3,4) series "
                    "operators are screened to zero up to D^2N, the "
                    "middle-factor expansions match, and L L^-1 = 1 to "
                    "truncation, in < 10 min", ok)


def test_c13_leading_monomials(capsys):
    rep = characters.verify_highest_weight(2, 7, 9)
    ok = rep.ok
    with capsys.disabled():
        assert emit("criterion 13: every signed hook-series entry carries "
                    "its predicted leading monomial with coefficient 1, "
                    "n = 2, N+1 <= k <= N+3", ok)


def test_c14_determinism(tmp_path, capsys):
    ok = True
    for suite, extra in (("hookchi", []), ("casorati", []),
                         ("bd", ["--algebra", "B", "--order", "8"])):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{suite}_{tag}.json"
            code = main(["verify", suite, "--rank", "2", "--seed", "9",
                         "--format", "json", "--out", str(out)] + extra)
            ok = ok and code == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        ok = ok and outs[0] == outs[1]
    with capsys.disabled():
        assert emit("criterion 14: identical seed and configuration "
                    "produce byte-identical reports", ok)
