"""Every verification suite can fail: a small mutant of what it checks
turns its exit code from 0 to 1.

``MUTANTS`` maps each suite of ``cli.SUITES`` to the arguments it runs
with and to its mutants, each a (module, name, mutate) patch that
replaces ``module.name`` by ``mutate(module.name)``.  The characters are
``lru_cache``d, so the caches are cleared before a mutant runs and again
after it is undone.
"""

import time

from qchar import bd, casorati, characters, cli, diffop, screening, tableaux
from qchar.ring import AlgebraSpec, LaurentPoly, VariableTable, bar


def _drop_first_term(p):
    mono, c = next(p.terms())
    return p - LaurentPoly.monomial(c, dict(mono))


def _dropped_term(a):
    """fundamental_poly with one term of T^(a)_1 dropped."""
    return lambda f: lambda n, b: (_drop_first_term(f(n, b)) if b == a
                                   else f(n, b))


def _flipped_left(f):
    """hook_step with the sign of its H^(i-1)_k(u+1/2) term flipped."""
    return lambda n, i, fund, prev: (
        f(n, i, fund, prev) + 2 * prev(i - 1, 1) if i
        else f(n, i, fund, prev))


def _dropped_row_word(f):
    """row_blocks with the first barred run of the first block of the
    length-2 rows dropped."""
    def blocks(n, m):
        out = f(n, m)
        if m == 2:
            lefts, mid, rights = out[0]
            out[0] = (lefts, mid, rights[1:])
        return out
    return blocks


def _dropped_tm_word(f):
    """tm_blocks with the first barred run of the first block of T_1
    dropped: one word of T_1."""
    def blocks(algebra, m):
        out = f(algebra, m)
        if m == 1:
            lefts, mid, rights = out[0]
            out[0] = (lefts, mid, rights[1:])
        return out
    return blocks


def _shifted_rows(f):
    """_row_halves with every letter a half unit later and the
    fundamentals where they were: the rows read T^(1)_m(u + 1/2)."""
    return lambda m: [h + 1 for h in f(m)]


def _middle_z_n_at_u(f):
    """_z_factors with the middle factor's z_n at u instead of u + 1:
    z_nbar(u) z_n(u) at D^2."""
    def factors(n):
        z = VariableTable(AlgebraSpec("C", n)).z
        return [(d, z(bar(n, n), 0) * z(n, 0) if d == 2 else c)
                for d, c in f(n)]
    return factors


def _shifted_first_factor(f):
    """_x_factors with the first factor's coefficients shifted by a half
    unit: x_1(u + n + 1/2) for x_1(u + n)."""
    def factors(n, eps):
        first, *rest = f(n, eps)
        return [first.map_coeffs(lambda c: c.shift(1))] + rest
    return factors


def _keyed_by_indices(table):
    """MinorTable keyed by the indices without the shift: the minor first
    read at one shift answers for that index tuple at every shift."""
    class Unshifted(table):
        def __call__(self, indices, shift):
            seen = self.__dict__.setdefault("by_indices", {})
            if tuple(indices) not in seen:
                seen[tuple(indices)] = super().__call__(indices, shift)
            return seen[tuple(indices)]
    return Unshifted


def _negated_entry(f):
    """companion_matrix with its subdiagonal entry [1][0] negated."""
    def companion(n, half):
        mat = f(n, half)
        mat[1][0] = -mat[1][0]
        return mat
    return companion


def _flipped_bareiss(_):
    """det_int with the sign of the eliminated term flipped in Bareiss's
    update: (p * a + f * b) // prev for (p * a - f * b) // prev."""
    def det(rows):
        m = [list(r) for r in rows]
        sign, prev = 1, 1
        for k in range(len(m) - 1):
            if not m[k][k]:
                piv = next((r for r in range(k + 1, len(m)) if m[r][k]),
                           None)
                if piv is None:
                    return 0
                m[k], m[piv] = m[piv], m[k]
                sign = -sign
            p = m[k][k]
            for ri in m[k + 1:]:
                f = ri[k]
                for j in range(k + 1, len(m)):
                    ri[j] = (p * ri[j] + f * m[k][j]) // prev
            prev = p
        return sign * m[-1][-1] if m else 1
    return det


MUTANTS = {
    "screening": (["--rank", "2", "--max-m", "1"], {
        "dropped term of row 1": (characters, "row_poly", lambda f: (
            lambda n, m: _drop_first_term(f(n, m)) if m == 1 else f(n, m)))}),
    "cancellation": (["--rank", "2"], {
        "dropped x-tableau": (tableaux, "gen_x_tableaux",
                              lambda f: lambda n, a: f(n, a)[1:])}),
    "bijection": (["--rank", "3"], {
        "breaking-pair gap off by one": (
            tableaux, "maximal_breaking_pair",
            lambda f: lambda t, n: (f(t, n)[0], f(t, n)[1] + 1))}),
    "tsystem": (["--rank", "2"], {
        "dropped row word": (characters, "row_blocks", _dropped_row_word),
        "dropped term of the Pfaffian T^(n)_2": (
            characters, "rectangle", lambda f: lambda n, a, m, *ring: (
                _drop_first_term(f(n, a, m, *ring)) if (a, m) == (n, 2)
                else f(n, a, m, *ring))),
        # the relations are formal in t_a(h), so only the bridge, the
        # operator's premises, reads T^(1)
        "dropped term of T^(1)": (characters, "fundamental_poly",
                                  _dropped_term(1)),
        "middle factor's z_n at u": (diffop, "_z_factors",
                                     _middle_z_n_at_u)}),
    "tt-tq": (["--rank", "2", "--max-m", "3"], {
        "dropped term of T^(2)": (characters, "fundamental_poly",
                                  _dropped_term(2)),
        "dropped row word": (characters, "row_blocks", _dropped_row_word),
        "rows shifted a half unit": (characters, "_row_halves",
                                     _shifted_rows),
        "middle factor's z_n at u": (diffop, "_z_factors",
                                     _middle_z_n_at_u)}),
    "hseries": (["--rank", "2"], {
        "dropped term of H^(1)_6": (characters, "h_poly", lambda f: (
            lambda n, i, k: (_drop_first_term(f(n, i, k)) if (i, k) == (1, 6)
                             else f(n, i, k))))}),
    "hookchi": (["--rank", "2"], {
        "dropped term of T^(1)": (characters, "fundamental_poly",
                                  _dropped_term(1))}),
    "casorati": (["--rank", "2", "--seed", "11"], {
        "dropped term of T^(1)": (characters, "fundamental_poly",
                                  _dropped_term(1)),
        "dropped skew filling": (casorati, "skew_ssyt", lambda f: (
            lambda N, width, mu: list(f(N, width, mu))[:-1])),
        "Bareiss sign flipped": (casorati, "det_int", _flipped_bareiss),
        "hook recursion sign of the H^(i-1) term flipped": (
            characters, "hook_step", _flipped_left),
        "first x-factor shifted by a half unit": (
            diffop, "_x_factors", _shifted_first_factor),
        "middle factor signs flipped": (diffop, "_x_factors", lambda f: (
            lambda n, eps: f(n, diffop.EpsilonChoice(-eps.sign)))),
        "minor table keyed by indices without the shift": (
            casorati, "MinorTable", _keyed_by_indices)}),
    "nnsy": (["--rank", "2", "--seed", "11"], {
        "dropped term of T^(1)": (characters, "fundamental_poly",
                                  _dropped_term(1))}),
    "bd": (["--algebra", "B", "--rank", "2", "--order", "4"], {
        "dropped term of k": (bd, "b_k", lambda f: (
            lambda n, half=0: _drop_first_term(f(n, half)))),
        "A_a argument shifted one unit": (screening, "a_factor", lambda f: (
            lambda c, a, h: f(c, a, h + 2))),
        "one dropped word of T_1": (bd, "tm_blocks", _dropped_tm_word),
        "z0 admitted twice": (bd, "tm_blocks", lambda f: lambda algebra, m: (
            f(algebra, m) + [([()], [(0, 0)], [()])] * (m == 2)))}),
    "lemma-exp": (["--algebra", "B", "--rank", "2", "--order", "4"], {
        "f shifted by a half unit": (bd, "b_f", lambda f: (
            lambda n, half=0: f(n, half + 1)))}),
    "product-formula": (["--rank", "2", "--max-m", "3"], {
        "h_poly recursion sign": (characters, "hook_step", _flipped_left),
        "companion entry [1][0] negated": (characters, "companion_matrix",
                                           _negated_entry)}),
}


def _clear_caches():
    for obj in vars(characters).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def test_every_suite_has_a_mutant():
    assert set(MUTANTS) == set(cli.SUITES)
    assert all(mutants for _, mutants in MUTANTS.values())


def test_mutants_turn_every_suite_from_pass_to_fail(monkeypatch, capsys):
    start = time.perf_counter()
    for suite, (argv, mutants) in MUTANTS.items():
        _clear_caches()
        assert cli.main(["verify", suite, *argv]) == 0, suite
        for name, (module, attr, mutate) in mutants.items():
            with monkeypatch.context() as mp:
                _clear_caches()
                mp.setattr(module, attr, mutate(getattr(module, attr)))
                code = cli.main(["verify", suite, *argv])
            _clear_caches()
            assert code == 1, (suite, name)
    capsys.readouterr()
    assert time.perf_counter() - start < 10
