"""Screening operators acting on Y-variable Laurent polynomials.

S_a sends Y_b(v) to delta_ab Y_b(v) S_b(v) and extends by the Leibniz
rule, so on a monomial M it yields sum_v e_v M S_a(v), where e_v is the
exponent of Y_a(v) in M.  The symbols S_a(v) satisfy a shift relation
with period t_a = (alpha_a|alpha_a): moving the argument by t_a costs a
factor A_a expressed through Baxter Q ratios.  S_a p vanishes when,
with every symbol rewritten to the minimal representative of its
residue class, all coefficients cancel.  ``screen_all`` decides that
for every node at once (``ring.screenings_vanish``), and every check
reads its verdicts; ``apply_screening`` and ``canonicalize``, which
build the coefficients, are the reference route tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .ring import (LaurentPoly, CartanData, Q_FAM, Y_FAM, poly_sum,
                   product_sum, screenings_vanish, vk)
from .diffop import DiffOp


def a_factor(cartan: CartanData, a: int, half: int) -> LaurentPoly:
    """The shift-relation multiplier A_a at half-argument ``half``:
    prod_b Q_b(. - (alpha_a|alpha_b)) / Q_b(. + (alpha_a|alpha_b))."""
    exps: dict = {}
    for b in range(1, cartan.algebra.n + 1):
        p = cartan.pair2(a, b)
        if p == 0:
            continue
        for key, e in ((vk(Q_FAM, b, half - p), 1),
                       (vk(Q_FAM, b, half + p), -1)):
            exps[key] = exps.get(key, 0) + e
    return LaurentPoly.monomial(1, exps)


def apply_screening(a: int, p: LaurentPoly,
                    cartan: CartanData) -> dict:
    """S_a applied to a Y-polynomial.

    Returns {half: coefficient of S_a(half)} in the Q-representation,
    one entry per Y_a(half) that occurs: the terms of p that contain
    Y_a(half), each times its exponent, mapped by ``to_q``.  Rejects
    input that contains non-Y variables.
    """
    parts: dict = {}
    for mono, c in p.terms():
        for (f, i, h), e in mono:
            if f != Y_FAM:
                raise ValueError("screening expects Y-variables only")
            if i == a:
                parts.setdefault(h, []).append(
                    LaurentPoly.monomial(e * c, dict(mono)))
    return {h: poly_sum(ts).to_q(cartan) for h, ts in parts.items()}


def canonicalize(a: int, sym: dict, cartan: CartanData) -> dict:
    """Rewrite every S_a(v) to the smallest argument in its residue
    class modulo the period t_a, times a chain of A_a factors built once
    per class, chain(v + t) = chain(v) A_a(v + t/2); then recombine."""
    t = cartan.pair2(a, a)
    classes: dict = {}
    for half in sorted(sym):
        classes.setdefault(half % t, []).append(half)
    out: dict = {}
    for halves in classes.values():
        v0 = w = halves[0]
        chain = LaurentPoly.one()
        terms = []
        for v in halves:
            while w < v:
                chain = chain * a_factor(cartan, a, w + t // 2)
                w += t
            terms.append((1, sym[v], chain))
        acc = product_sum(terms)
        if not acc.is_zero:
            out[v0] = acc
    return out


def screen_all(p: LaurentPoly, cartan: CartanData) -> dict:
    """{a: whether S_a p vanishes} for every node a in order, decided at
    once on call-local keys with the chains built from ``a_factor``
    (``ring.screenings_vanish``)."""
    return screenings_vanish(p, cartan, partial(a_factor, cartan))


def in_kernel(a: int, p: LaurentPoly, cartan: CartanData) -> bool:
    if not 1 <= a <= cartan.algebra.n:
        raise ValueError(f"node out of range: {a}")
    return screen_all(p, cartan)[a]


@dataclass
class KernelReport:
    node_a: int
    failing: list = field(default_factory=list)  # D-degrees S_a fails at

    @property
    def zero(self) -> bool:
        return not self.failing


def screen_operator(a: int, op: DiffOp, cartan: CartanData) -> KernelReport:
    """Apply S_a coefficientwise to a difference operator with
    Y-variable coefficients."""
    if not 1 <= a <= cartan.algebra.n:
        raise ValueError(f"node out of range: {a}")
    return screen_operator_all(op, cartan)[a - 1]


def screen_operator_all(op: DiffOp, cartan: CartanData) -> list:
    """``screen_operator`` for every node, screening each coefficient
    once; one KernelReport per node in node order."""
    reps = [KernelReport(node_a=a) for a in range(1, cartan.algebra.n + 1)]
    for deg in sorted(op.coeffs):
        verdicts = screen_all(op.coeff(deg), cartan)
        for rep in reps:
            if not verdicts[rep.node_a]:
                rep.failing.append(deg)
    return reps
