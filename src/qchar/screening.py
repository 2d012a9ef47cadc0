"""Screening operators acting on Y-variable Laurent polynomials.

S_a sends Y_b(v) to delta_ab Y_b(v) S_b(v) and extends by the Leibniz
rule, so on a monomial M it yields sum_v e_v M S_a(v), where e_v is the
exponent of Y_a(v) in M.  The symbols S_a(v) satisfy a shift relation
with period t_a = (alpha_a|alpha_a): moving the argument by t_a costs a
factor A_a expressed through Baxter Q ratios.  Kernel membership is
decided by rewriting every symbol to the minimal representative of its
residue class and checking that all coefficients cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .ring import (LaurentPoly, CartanData, Q_FAM, product_sum,
                   screenings_vanish, vk)
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

    Returns {half_argument: coefficient} with coefficients already in
    the Q-representation, one entry per symbol argument encountered.
    """
    return _node(p.q_euler_parts(cartan), a)


def _node(parts: dict, a: int) -> dict:
    """Node a's entries of ``LaurentPoly.q_euler_parts``, keyed by half."""
    return {h: q for (i, h), q in parts.items() if i == a}


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


def screen_poly(a: int, p: LaurentPoly, cartan: CartanData) -> dict:
    return canonicalize(a, apply_screening(a, p, cartan), cartan)


def screen_all(p: LaurentPoly, cartan: CartanData) -> dict:
    """{a: screen_poly(a, p, cartan)} for every node a.  Whether all of
    them vanish is decided first on call-local keys, with the chains
    built from ``a_factor`` (``ring.screenings_vanish``); only a p that
    fails is screened again, from one ``q_euler_parts`` pass, to build
    its residuals."""
    nodes = range(1, cartan.algebra.n + 1)
    if screenings_vanish(p, cartan, partial(a_factor, cartan)):
        return {a: {} for a in nodes}
    parts = p.q_euler_parts(cartan)
    return {a: canonicalize(a, _node(parts, a), cartan) for a in nodes}


def in_kernel(a: int, p: LaurentPoly, cartan: CartanData) -> bool:
    return not screen_poly(a, p, cartan)


@dataclass
class KernelReport:
    node_a: int
    per_degree: list = field(default_factory=list)

    @property
    def zero(self) -> bool:
        return all(d["residual_term_count"] == 0 for d in self.per_degree)


def screen_operator(a: int, op: DiffOp, cartan: CartanData) -> KernelReport:
    """Apply S_a coefficientwise to a difference operator with
    Y-variable coefficients and report residuals per D-degree."""
    if not 1 <= a <= cartan.algebra.n:
        raise ValueError(f"node out of range: {a}")
    return screen_operator_all(op, cartan)[a - 1]


def screen_operator_all(op: DiffOp, cartan: CartanData) -> list:
    """``screen_operator`` for every node, screening each coefficient
    once; one KernelReport per node in node order."""
    reps = [KernelReport(node_a=a) for a in range(1, cartan.algebra.n + 1)]
    for deg in sorted(op.coeffs):
        res = screen_all(op.coeff(deg), cartan)
        for rep in reps:
            count = sum(v.n_terms for v in res[rep.node_a].values())
            rep.per_degree.append({"deg": deg, "residual_term_count": count})
    return reps
