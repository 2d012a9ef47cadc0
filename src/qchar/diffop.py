"""Noncommutative difference operators in the shift symbol D.

D obeys the twist D g(u) = g(u+1) D, so the product rule for
coefficients is (c(u) D^i)(d(u) D^j) = c(u) d(u+i) D^{i+j}.
Operators are either genuine polynomials in D or series truncated at an
explicit order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .ring import (LaurentPoly, AlgebraSpec, VariableTable, ONE, bar,
                   product_sum)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpsilonChoice:
    """Sign of the two middle first-order factors; +-1, all other
    positions are fixed at +1."""

    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def eps(self, i: int, n: int) -> int:
        return self.sign if i in (n + 1, n + 2) else 1


@dataclass(frozen=True)
class DiffOp:
    """Sparse difference operator sum_j c_j(u) D^j.

    ``order`` is None for polynomial operators, otherwise the truncation
    degree of a series operator (coefficients stored for j <= order).
    """

    coeffs: dict = field(default_factory=dict)
    order: int | None = None

    def __post_init__(self):
        clean = {j: c for j, c in self.coeffs.items() if not c.is_zero}
        if self.order is not None:
            clean = {j: c for j, c in clean.items() if j <= self.order}
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def unit(cls, order: int | None = None) -> "DiffOp":
        return cls({0: ONE}, order)

    def coeff(self, j: int) -> LaurentPoly:
        return self.coeffs.get(j, LaurentPoly.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.coeffs == other.coeffs and self.order == other.order

    def __neg__(self) -> "DiffOp":
        return DiffOp({j: -c for j, c in self.coeffs.items()}, self.order)

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        order = _merge_order(self.order, other.order)
        pairs: dict = {}  # k -> [(i, j)] with i + j = k
        for i in self.coeffs:
            for j in other.coeffs:
                if order is None or i + j <= order:
                    pairs.setdefault(i + j, []).append((i, j))
        return DiffOp({k: product_sum((1, self.coeffs[i],
                                       other.coeffs[j].shift(2 * i))
                                      for i, j in ij)
                       for k, ij in pairs.items()}, order)

    def inverse_series(self, order: int) -> "DiffOp":
        """Series inverse, truncated at D^order.

        Requires a constant degree-0 coefficient equal to +1 or -1.
        """
        c0 = self.coeff(0)
        if c0 == LaurentPoly.one():
            s0 = 1
        elif c0 == -LaurentPoly.one():
            s0 = -1
        else:
            raise ValueError("inverse needs a degree-0 coefficient of +-1")
        # Solve sum_{i+j=k} c_i * b_j(.+i) = delta_{k0} degree by degree.
        rest = {j: c for j, c in self.coeffs.items() if 0 < j <= order}
        b: dict = {0: LaurentPoly.const(s0)}
        for k in range(1, order + 1):
            acc = product_sum((-s0, c, b[k - i].shift(2 * i))
                              for i, c in rest.items()
                              if i <= k and k - i in b)
            if not acc.is_zero:
                b[k] = acc
        return DiffOp(b, order)

    def map_coeffs(self, fn) -> "DiffOp":
        return DiffOp({j: fn(c) for j, c in self.coeffs.items()}, self.order)

    def to_json(self) -> list:
        return [{"deg": j, "coeff": self.coeffs[j].to_json()}
                for j in sorted(self.coeffs)]

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        return "  ++  ".join(
            f"[D^{j}] {self.coeffs[j].text()}" for j in sorted(self.coeffs))


def _merge_order(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    if a != b:
        log.warning("mixing series truncation orders %d and %d; "
                    "result truncated to %d", a, b, min(a, b))
    return min(a, b)


def prod(ops: list[DiffOp]) -> DiffOp:
    """Ordered product X_1 X_2 ... X_k."""
    out = DiffOp.unit(ops[0].order if ops else None)
    for op in ops:
        out = out * op
    return out


# --- The factorized C-series operator and its partial products. -------

L_FORMS = ("zFactored", "zReversed", "xFactored", "xReversed")


def build_L_C(n: int, form: str = "xFactored",
              eps: EpsilonChoice = EpsilonChoice()) -> DiffOp:
    """Degree-N factorized operator for the C series (N = 2n+2).

    ``xFactored`` is the defining right-ordered product of first-order
    factors (x_i(u+n+1-i) - D); the other three expansions equal its
    negative and are kept for cross-checks.  z-forms carry Y-variable
    coefficients, x-forms Q-variable coefficients.
    """
    table = VariableTable(AlgebraSpec("C", n))
    N = 2 * n + 2

    def lin0(c: LaurentPoly) -> DiffOp:  # 1 - c*D
        return DiffOp({0: ONE, 1: -c})

    def lin1(c: LaurentPoly) -> DiffOp:  # c - D
        return DiffOp({0: c, 1: -ONE})

    if form == "xFactored":
        return prod(_x_factors(n, eps))
    if form == "xReversed":
        factors = [lin0(eps.eps(i, n) * table.x(i, 0))
                   for i in range(N, 0, -1)]
        return prod(factors)
    if form == "zFactored":
        return prod([DiffOp({0: ONE, d: -c}) for d, c in _z_factors(n)])
    if form == "zReversed":
        factors = [lin1(table.z(a, 2 * (n + 1 - a))) for a in range(1, n + 1)]
        mid = table.z(bar(n, n), -2) * table.z(n, 0)
        factors.append(DiffOp({0: mid, 2: -ONE}))
        factors += [lin1(table.z(bar(a, n), 2 * (-n - 2 + a)))
                    for a in range(n, 0, -1)]
        return prod(factors)
    raise ValueError(f"unknown form {form!r}")


def _z_factors(n: int) -> list:
    """The factors (1 - c D^d) of the zFactored operator as (d, c), in
    product order: z_abar for a = 1..n, z_nbar(u) z_n(u+1) at D^2, then
    z_a for a = n..1."""
    table = VariableTable(AlgebraSpec("C", n))
    mid = table.z(bar(n, n), 0) * table.z(n, 2)
    return ([(1, table.z(bar(a, n), 0)) for a in range(1, n + 1)] + [(2, mid)]
            + [(1, table.z(a, 0)) for a in range(n, 0, -1)])


def _x_factors(n: int, eps: EpsilonChoice) -> list:
    """The first-order factors (eps_i x_i(u+n+1-i) - D), i = 1..N, of the
    xFactored operator, in product order."""
    table = VariableTable(AlgebraSpec("C", n))
    return [DiffOp({0: eps.eps(i, n) * table.x(i, 2 * (n + 1 - i)),
                    1: -ONE}) for i in range(1, 2 * n + 3)]


def build_Lj_C(n: int, j: int) -> DiffOp:
    """Right-ordered product of the last j first-order factors, with the
    two middle signs fixed at -1 and each factor negated (D - eps_i x_i);
    degree-j operator with L_N = L."""
    N = 2 * n + 2
    if not (1 <= j <= N):
        raise ValueError(f"j out of range: {j}")
    return prod([-f for f in _x_factors(n, EpsilonChoice(-1))[N - j:]])
