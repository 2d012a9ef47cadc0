"""Classical-character specializations.

The map beta sends Y_a(u)^{+-1} to e^{+-Lambda_a}, forgetting spectral
parameters; with Lambda_a = eps_1 + ... + eps_a everything becomes a
Laurent polynomial in the torus coordinates e^{eps_b}.  Characters of
the rank-n symplectic algebra are evaluated exactly at rational torus
points via the Weyl determinant formula, and hook-shaped instances
chi_{(alpha|gamma)} (width alpha+1, depth gamma+1) drive the
decomposition checks for the hook character family.  No hook is built:
``characters.CharacterValues`` reads the images from the fundamentals'.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

from .ring import Y_FAM

_POOL_NUM = list(range(2, 40))
_N_POINTS = 5  # random torus points at which each identity is checked


@dataclass(frozen=True)
class ClassicalPoint:
    """Exact rational values of the torus coordinates e^{eps_b}, read
    lazily by ``LaurentPoly.eval_points`` as the assignment of beta:
    Y_a(u+s) takes e^{Lambda_a} = prod_{b<=a} e^{eps_b} whatever s, and
    a non-Y variable is refused.  Only fundamentals are evaluated here."""

    values: tuple

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "ClassicalPoint":
        vals = []
        while len(vals) < n:
            v = Fraction(rng.choice(_POOL_NUM), rng.choice(_POOL_NUM))
            if v != 1 and v not in vals and 1 / v not in vals:
                vals.append(v)
        return cls(tuple(vals))

    def __contains__(self, var) -> bool:
        if var[0] != Y_FAM:
            raise ValueError("beta acts on Y-variables only")
        return True

    def __getitem__(self, var) -> Fraction:
        return prod(self.values[:var[1]], start=Fraction(1))


def clear_row(row: list[Fraction]) -> tuple[list[int], int]:
    """(ints, l) with l the lcm of the row's denominators and
    ints[j] = row[j] * l: the row as integers over one denominator."""
    l = lcm(*(x.denominator for x in row))
    return [x.numerator * (l // x.denominator) for x in row], l


def det_frac(mat: list[list[Fraction]]) -> Fraction:
    """Exact determinant: clear denominators row by row, then take
    ``det_int`` of the integer matrix."""
    cleared = [clear_row(row) for row in mat]
    return Fraction(det_int([r for r, _ in cleared]),
                    prod(l for _, l in cleared))


def det_int(rows) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968), on a copy of the rows, swapping
    rows past zero pivots; every division is exact."""
    m = [list(r) for r in rows]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, size) if m[r][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        rk = m[k]
        p = rk[k]
        for ri in m[k + 1:]:
            f = ri[k]
            for j in range(k + 1, size):
                # exact by Sylvester's identity
                ri[j] = (p * ri[j] - f * rk[j]) // prev
        prev = p
    return sign * m[-1][-1] if size else 1


def sp_character(lam: list[int], point: ClassicalPoint) -> Fraction:
    """Weyl character formula for the rank-n symplectic algebra at an
    exact torus point: ratio of the two alternants in x_j^{l} - x_j^{-l}.
    """
    n = point.n
    if len(lam) > n:
        raise ValueError("partition deeper than the rank")
    lam = list(lam) + [0] * (n - len(lam))
    ells = [lam[i] + n - i for i in range(n)]  # i = 0..n-1, l = lam_i+n-i
    num = [[point.values[j] ** ells[i] - point.values[j] ** (-ells[i])
            for j in range(n)] for i in range(n)]
    den_ells = [n - i for i in range(n)]
    den = [[point.values[j] ** den_ells[i] - point.values[j] ** (-den_ells[i])
            for j in range(n)] for i in range(n)]
    d = det_frac(den)
    if d == 0:
        raise ZeroDivisionError("degenerate torus point")
    return det_frac(num) / d


def hook_char_value(n: int, alpha: int, gamma: int,
                    point: ClassicalPoint) -> Fraction:
    """chi_{(alpha|gamma)} at a torus point, with the boundary rules
    chi = 0 for gamma <= -1 or gamma >= n or alpha <= -2, and
    chi_{(-1|0)} = 1, chi_{(-1|gamma>=1)} = 0."""
    if gamma <= -1 or gamma >= n or alpha <= -2:
        return Fraction(0)
    if alpha == -1:
        return Fraction(1) if gamma == 0 else Fraction(0)
    lam = [alpha + 1] + [1] * gamma
    return sp_character(lam, point)


def hook_dimension(n: int, alpha: int, gamma: int) -> int:
    """Dimension of the hook module by the Weyl dimension formula."""
    if gamma <= -1 or gamma >= n or alpha <= -2:
        return 0
    if alpha == -1:
        return 1 if gamma == 0 else 0
    lam = [alpha + 1] + [1] * gamma + [0] * (n - 1 - gamma)
    # positive roots of the rank-n symplectic algebra in the eps basis
    rho = [n - i for i in range(n)]
    l = [lam[i] + rho[i] for i in range(n)]
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= (l[i] - l[j]) * (l[i] + l[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
        num *= l[i]
        den *= rho[i]
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("dimension formula did not divide evenly")
    return q


@dataclass
class PointReport:
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool):
        self.checks.append({"identity": name, "ok": bool(ok)})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)


def verify_pieri(n: int, p_max: int, seed: int) -> PointReport:
    """Tensor-by-row rule: chi_{(p-1|0)} chi_{(0|a-1)} equals the sum of
    the four neighbouring hooks, for p >= 1, 1 <= a <= n."""
    rng = random.Random(seed)
    rep = PointReport()
    pts = [ClassicalPoint.random(n, rng) for _ in range(_N_POINTS)]
    for p in range(1, p_max + 1):
        for a in range(1, n + 1):
            ok = True
            for pt in pts:
                lhs = (hook_char_value(n, p - 1, 0, pt)
                       * hook_char_value(n, 0, a - 1, pt))
                rhs = (hook_char_value(n, p, a - 1, pt)
                       + hook_char_value(n, p - 1, a, pt)
                       + hook_char_value(n, p - 1, a - 2, pt)
                       + hook_char_value(n, p - 2, a - 1, pt))
                ok = ok and lhs == rhs
            rep.add(f"row tensor rule p={p} a={a}", ok)
    return rep


def _hook_sum(n: int, terms: list, pt: ClassicalPoint) -> Fraction:
    return sum((Fraction(s) * hook_char_value(n, al, g, pt)
                for s, al, g in terms), Fraction(0))


def hook_decomposition(n: int, i: int, k: int) -> list:
    """Signed hook content (sign, alpha, gamma) of the classical image
    of H^(i)_k for k >= N+1."""
    N = 2 * n + 2
    out = []

    def wedge(alpha, gamma, sign=1):
        j = 0
        while alpha - 2 * j >= min(0, gamma - 1):
            out.append((sign, alpha - 2 * j, gamma))
            j += 1

    def vee(alpha, gamma, sign=1):
        j = 0
        while alpha - 2 * j >= 0:
            out.append((sign, alpha - 2 * j, gamma))
            j += 1

    if i == 0:
        wedge(k - N - 1, 0)
    elif 1 <= i <= n - 1:
        vee(k - N, i - 1)
        vee(k - N - 1, i)
    elif i == n:
        vee(k + 1 - N - 1, n - 1)   # H^(n)_{k-1} convention shifted to k
    elif i == n + 1:
        vee(k - N - 1, n - 1, -1)
    elif n + 2 <= i <= N - 2:
        vee(k - N, N - i - 1, -1)
        vee(k - N - 1, N - i - 2, -1)
    elif i == N - 1:
        wedge(k + 1 - N - 1, 0, -1)  # H^(N-1)_{k-1} = -H^(0)_k image
    else:
        raise ValueError(f"i out of range: {i}")
    return out


def verify_hook_decomposition(n: int, k_min: int, k_max: int,
                              seed: int) -> PointReport:
    """The classical image of every H^(i)_k, from ``CharacterValues``, equals
    its signed hook-character sum at exact random torus points."""
    from .characters import CharacterValues, fundamental_poly
    N = 2 * n + 2
    rng = random.Random(seed)
    rep = PointReport()
    pts = [ClassicalPoint.random(n, rng) for _ in range(_N_POINTS)]
    chars = [CharacterValues(n, lambda a, _, v=v: v[a]) for v in zip(
        *(fundamental_poly(n, a).eval_points(pts) for a in range(N)))]
    for k in range(k_min, k_max + 1):
        for i in range(0, N):
            terms = hook_decomposition(n, i, k)
            ok = all(c.hook(i, k, 0) == _hook_sum(n, terms, pt)
                     for c, pt in zip(chars, pts))
            rep.add(f"hook content of H^({i})_{k}", ok)
    return rep


def verify_fundamental_images(n: int, seed: int) -> PointReport:
    """sigma_i beta(T^(i)_1) = chi_{(0|min(i,N-i)-1)}, vanishing at
    i = n+1."""
    from .characters import fundamental_poly
    N = 2 * n + 2
    rng = random.Random(seed)
    rep = PointReport()
    pts = [ClassicalPoint.random(n, rng) for _ in range(_N_POINTS)]
    for i in range(1, N):
        sigma = 1 if i <= n else -1
        ok = all(sigma * f == (0 if i == n + 1 else
                               hook_char_value(n, 0, min(i, N - i) - 1, pt))
                 for f, pt in zip(fundamental_poly(n, i).eval_points(pts),
                                  pts))
        rep.add(f"classical image of T^({i})_1", ok)
    return rep
