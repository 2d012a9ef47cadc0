"""Exact sparse Laurent-polynomial arithmetic over Z on packed monomials.

Variables are indexed by (family, node index, half-integer shift): ``Y``
for the basic ring variables Y_a(u+s), ``Q`` for the Baxter functions
Q_a(u+s).  The shift is stored as an integer count of half-units so that
every argument occurring in the C/B/D constructions lives on one lattice.

Packed keys.  The first time a process meets a variable it interns it
to the next free *slot*.  A monomial prod_v v^(e_v) is then one Python
int, sum_v e_v * 2^(16 * slot(v)), with balanced 16-bit digits: every
exponent lies in [-EXP_MAX, EXP_MAX], EXP_MAX = 2^15 - 1.  In that range
each monomial has exactly one such int, so dict lookups compare
monomials exactly, and the product of two monomials is one int add.
``word_sum`` builds sums over words of single-term letters (tableau
weights) that way: one int add per letter, no polynomial per letter.

Overflow guard.  A digit sum past EXP_MAX would carry into the next slot
and alias another monomial.  Every polynomial therefore carries an upper
bound on |e| over its terms: exact for a monomial, the maximum under
sums, the sum under products, the sum of the per-position exact maxima
under ``word_sum``, twice the bound under ``to_q`` and ``q_euler_parts``
(which send at most two Y exponents to each Q variable).  A product or
a Q image whose carried bounds pass EXP_MAX first replaces them by the
exact maxima of its operands.  Every bound then passes one guard,
``_checked``, which raises OverflowError past EXP_MAX.

Substitution.  ``shift`` (u -> u + h/2), ``to_q`` (Y_a(v) ->
Q_a(v - t_a)/Q_a(v + t_a)), ``q_euler_parts`` and the repack of
``product_sum_vanishes`` rewrite monomials one way: ``_substitute``
takes a decoded key and returns sum e * image(var), computing each
slot's image once per call.  Each of these maps is injective on
monomials (a shift permutes the variables, and e(w + t) - e(w - t) = 0
forces a finitely supported e to vanish), so no two terms meet and no
coefficient is merged.

Local packing.  A key carries 16 bits for every slot up to its highest,
so keys grow with all the variables a process has met.  The zero-test
``product_sum_vanishes`` therefore packs into one frame of its own.  Its
slots are the *shifted* variables the call meets, numbered in first use,
and each holds one balanced w-bit digit, w = bit_length(B) + 1, where B
is the largest product bound, found by the guard above before any key
is packed.  An operand ``(p, half)`` stands for p.shift(half): the
repack is the substitution that sends each variable, shifted by half,
to the unit of its frame slot, so each key is decoded once.  A
``Words`` operand repacks its single-term templates at each position's
shift, and ``word_sum``'s loop then builds the shifted row on short
keys, so nothing large is decoded.  The map is injective and additive
on every monomial that can occur, so the sum vanishes iff it does on
global keys.  Nothing packed in a frame outlives the call.

``screenings_vanish`` decides in the same way whether every node's
screening of a polynomial canonicalizes to zero.  Its frame holds the Q
variables of the terms' images and of the A_a chains, and one slot per
residue class of screening symbols, which keeps the classes apart.
Each key is decoded once, each class's chain is built once from the
factors it is given, and every (term, Y_a(v)) pair costs one int add
and one dict update.  w is bit_length(B) + 1 again, where B is the Q
images' bound plus the largest exact chain exponent.

Decoding.  Slot numbers depend on the order in which one process met
its variables, so they never leave this module: ``terms()``, ``text()``
and ``to_json()`` decode every key to the sorted tuple of
((family, index, half), exponent) pairs and sort the terms by it, which
makes their output the same in every process.  A decode is a bias add,
an xor and one ``int.to_bytes`` read as signed 16-bit digits, whose
zeros ``itertools.compress`` skips at C speed: 6 to 8 us for a key whose
top slot is 246, on a 2-core Xeon under KVM.  Decodes are therefore
counted: every substitution decodes each key once, ``q_euler_parts``
and ``screenings_vanish``, which serve the screening of every node,
once for all the Y variables of the key, and ``eval_points`` once for
all the points it is given.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress
from math import prod
from operator import mul
from typing import Iterable, Iterator, NamedTuple

Y_FAM, Q_FAM = 0, 1
FAM_NAMES = {Y_FAM: "Y", Q_FAM: "Q"}

# A VarKey is (family, index, half_shift); a decoded monomial (MonoKey) is
# a tuple of (VarKey, nonzero exponent) pairs sorted by VarKey.
VarKey = tuple
MonoKey = tuple

EXP_MAX = 2 ** 15 - 1

_SLOT: dict = {}   # VarKey -> slot, in the order this process met them
_VAR: list = []    # slot -> VarKey
_BIAS = [0]        # _BIAS[n]: 2^15 in each of the n lowest digits
_SWAP = sys.byteorder != "little"


def vk(fam: int, idx: int, half: int = 0) -> VarKey:
    if fam not in FAM_NAMES:
        raise ValueError(f"unknown variable family {fam!r}")
    if idx < 1:
        raise ValueError(f"index must be >= 1 for family {FAM_NAMES[fam]}")
    return (fam, idx, half)


def _unit(var: VarKey) -> int:
    """Packed key of the single variable ``var``, interned on first use."""
    slot = _SLOT.get(var)
    if slot is None:
        slot = _SLOT[var] = len(_VAR)
        _VAR.append(var)
    return 1 << (slot << 4)


def _digits(key: int) -> tuple[list, list]:
    """The slots and the exponents of a packed key's nonzero digits, in
    slot order."""
    n = (abs(key).bit_length() >> 4) + 1  # the top nonzero digit is n - 1
    while len(_BIAS) <= n:
        _BIAS.append(_BIAS[-1] | 0x8000 << ((len(_BIAS) - 1) << 4))
    bias = _BIAS[n]
    # key + bias has the unsigned digits e + 2^15; the xor turns them
    # into e modulo 2^16, which 'h' reads back as signed e.
    d = array("h", ((key + bias) ^ bias).to_bytes(2 * n, "little"))
    if _SWAP:
        d.byteswap()
    slots = list(compress(range(n), d))
    return slots, [d[s] for s in slots]


def _mono(key: int) -> MonoKey:
    slots, exps = _digits(key)
    return tuple(sorted(zip(map(_VAR.__getitem__, slots), exps)))


def _substitute(slots: list, exps: list, images: dict, image) -> int:
    """sum e * image(var) over a decoded key's slots and exponents: the
    packed image of the monomial under a substitution of its variables.
    ``images`` holds each slot's image, computed on first use, for one
    call."""
    for s in slots:
        if s not in images:
            images[s] = image(_VAR[s])
    return sum(map(mul, exps, map(images.__getitem__, slots)))


def _exact_bound(t: dict) -> int:
    return max((max(map(abs, _digits(k)[1]), default=0) for k in t),
               default=0)


def _y_arg(var: VarKey) -> tuple[int, int]:
    """(index, half) of a Y variable; ValueError for any other family."""
    f, i, h = var
    if f != Y_FAM:
        raise ValueError(f"to_q expects Y-variables only, found {FAM_NAMES[f]}")
    return i, h


def _q_image(cartan: "CartanData", var: VarKey, unit=_unit) -> int:
    """Key of Q_i(h - t_i/2) / Q_i(h + t_i/2), the image of Y_i(h), on the
    units ``unit`` gives (global slots by default)."""
    i, h = _y_arg(var)
    th = cartan.pair2(i, i) // 2
    return unit((Q_FAM, i, h - th)) - unit((Q_FAM, i, h + th))


def _format_shift(half: int) -> str:
    if half == 0:
        return "u"
    sign = "+" if half > 0 else "-"
    h = abs(half)
    if h % 2 == 0:
        return f"u{sign}{h // 2}"
    return f"u{sign}{h}/2"


class LaurentPoly:
    """Canonical sparse Laurent polynomial with integer coefficients.

    Immutable; all operations return fresh objects.  The zero polynomial
    has no terms.  ``_t`` maps packed keys to nonzero coefficients and
    ``_b`` bounds |exponent| over all terms (see the module docstring).
    """

    __slots__ = ("_t", "_b")

    def __init__(self, terms: dict | None = None):
        """From a raw {packed key: coefficient} dict, such as the one
        ``acc_product`` fills; zero coefficients are dropped."""
        t = {}
        for key, c in (terms or {}).items():
            if not isinstance(key, int):
                raise TypeError(f"monomial keys are packed ints, got {key!r}")
            if c:
                t[key] = c
        self._t = t
        self._b = _exact_bound(t)

    @classmethod
    def _make(cls, t: dict, bound: int) -> "LaurentPoly":
        p = object.__new__(cls)
        p._t = t
        p._b = bound
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._make({}, 0)

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._make({0: int(c)} if c else {}, 0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.const(1)

    @classmethod
    def var(cls, fam: int, idx: int, half: int = 0,
            exp: int = 1) -> "LaurentPoly":
        return cls.monomial(1, {vk(fam, idx, half): exp})

    @classmethod
    def monomial(cls, coeff: int, exps: dict) -> "LaurentPoly":
        """Build a single term from a {VarKey: exponent} map."""
        if coeff == 0:
            return cls.zero()
        key = bound = 0
        for var, e in exps.items():
            if e:
                if abs(e) > EXP_MAX:
                    raise OverflowError(
                        f"exponent {e} outside [-{EXP_MAX}, {EXP_MAX}]")
                key += e * _unit(var)
                bound = max(bound, abs(e))
        return cls._make({key: int(coeff)}, bound)

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def n_terms(self) -> int:
        return len(self._t)

    def terms(self) -> Iterator[tuple[MonoKey, int]]:
        """(decoded monomial, coefficient) pairs in monomial order."""
        return iter(sorted(zip(map(_mono, self._t), self._t.values())))

    def coeff_of(self, exps: dict) -> int:
        key = 0
        for var, e in exps.items():
            if e:
                if var not in _SLOT or abs(e) > EXP_MAX:
                    return 0
                key += e * _unit(var)
        return self._t.get(key, 0)

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return poly_sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make({k: -c for k, c in self._t.items()},
                                 self._b)

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly._make(
                {k: c * other for k, c in self._t.items()}, self._b)
        bound = _product_bound(self, other)
        out: dict = {}
        _product_into(out, self._t, other._t, 1)
        return LaurentPoly._make(out, bound)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "LaurentPoly":
        if e < 0:
            if len(self._t) != 1:
                raise ValueError("negative power only defined for monomials")
            (key, c), = self._t.items()
            if c not in (1, -1):
                raise ValueError("negative power needs unit coefficient")
            return LaurentPoly._make({-key: c}, self._b) ** (-e)
        out = LaurentPoly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- structural operations ---------------------------------------

    def shift(self, half_delta: int) -> "LaurentPoly":
        """Substitute u -> u + half_delta/2 in every variable."""
        if half_delta == 0 or not self._t:
            return self
        images, image = {}, lambda v: _unit((v[0], v[1], v[2] + half_delta))
        return LaurentPoly._make({_substitute(*_digits(k), images, image): c
                                  for k, c in self._t.items()}, self._b)

    def _q_bound(self) -> int:
        """Bound of the Q image's exponents; OverflowError past EXP_MAX."""
        if 2 * self._b > EXP_MAX:
            self._b = _exact_bound(self._t)
        return _checked(2 * self._b)

    def to_q(self, cartan: "CartanData") -> "LaurentPoly":
        """Replace every Y_a(u+s)^e by its Baxter-Q ratio image; rejects
        input that already contains non-Y variables."""
        bound = self._q_bound()
        images, image = {}, partial(_q_image, cartan)
        return LaurentPoly._make({_substitute(*_digits(k), images, image): c
                                  for k, c in self._t.items()}, bound)

    def q_euler_parts(self, cartan: "CartanData") -> dict:
        """{(idx, half): (x * d/dx of self).to_q(cartan)} for every
        x = Y_idx(half) that occurs: the part of self whose terms contain
        x, each term multiplied by its exponent of x, in Q-variables.

        Each key is decoded once and its Q image computed once, then
        stored in the part of every Y variable of the term.  Rejects
        input that contains non-Y variables.
        """
        bound = self._q_bound()
        images, image = {}, partial(_q_image, cartan)
        out: dict = {}  # slot of x -> terms of its part
        for key, c in self._t.items():
            slots, exps = _digits(key)
            k = _substitute(slots, exps, images, image)
            for s, e in zip(slots, exps):
                part = out.get(s)
                if part is None:
                    part = out[s] = {}
                part[k] = e * c
        return {_VAR[s][1:]: LaurentPoly._make(t, bound)
                for s, t in out.items()}

    def eval_rational(self, assign: dict) -> Fraction:
        """Exact rational evaluation; every variable must be assigned."""
        return self.eval_points([assign])[0]

    def eval_points(self, assigns: Iterable[dict]) -> list[Fraction]:
        """Exact rational values at each of ``assigns``; every variable
        must be assigned at every point.

        With x_s = p_s/q_s and e_s ranging over [lo_s, hi_s] (both
        bounds taken with 0), every term times the common denominator
        D = prod_s p_s^(-lo_s) q_s^(hi_s) is an integer, so each sum runs
        over ints and one Fraction is built per point.  Keys are decoded
        and ranges found once for all points; at each point the guards
        run in the order a term-by-term pass meets them."""
        lo: dict = {}  # slot -> lowest exponent, with 0
        hi: dict = {}
        guards = []    # (slot, negative?) at its first and first negative use
        decoded = []
        for key, c in self._t.items():
            slots, exps = _digits(key)
            for s, e in zip(slots, exps):
                if s not in lo:
                    lo[s] = hi[s] = 0
                    guards.append((s, False))
                if e < lo[s]:
                    if not lo[s]:
                        guards.append((s, True))
                    lo[s] = e
                elif e > hi[s]:
                    hi[s] = e
            decoded.append((c, slots, exps))
        out = []
        for assign in assigns:
            values: dict = {}  # slot -> Fraction
            for s, negative in guards:
                f, i, h = var = _VAR[s]
                if negative:
                    if not values[s]:
                        raise ZeroDivisionError(
                            f"{FAM_NAMES[f]}[{i}]({_format_shift(h)}) = 0 "
                            f"under a negative exponent")
                elif var not in assign:
                    raise KeyError(f"no assignment for {FAM_NAMES[f]}"
                                   f"[{i}]({_format_shift(h)})")
                else:
                    values[s] = Fraction(assign[var])
            full = {}  # slot -> its factor of D
            den = 1
            for s, x in values.items():
                full[s] = f = x.numerator ** -lo[s] * x.denominator ** hi[s]
                den *= f
            powers: dict = {}  # (slot, e) -> p^(e - lo) q^(hi - e)
            total = 0
            for c, slots, exps in decoded:
                num = c
                part = 1
                for s, e in zip(slots, exps):
                    g = powers.get((s, e))
                    if g is None:
                        x = values[s]
                        g = powers[(s, e)] = (x.numerator ** (e - lo[s])
                                              * x.denominator ** (hi[s] - e))
                    num *= g
                    part *= full[s]
                total += num * (den // part)
            out.append(Fraction(total, den))
        return out

    # -- rendering ----------------------------------------------------

    def text(self) -> str:
        if not self._t:
            return "0"
        parts = []
        for key, c in self.terms():
            factors = [str(c)]
            for (f, i, h), e in key:
                name = f"{FAM_NAMES[f]}[{i}]({_format_shift(h)})"
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append(" * ".join(factors))
        return "  +  ".join(parts)

    def to_json(self) -> list:
        return [{"coeff": str(c),
                 "vars": [{"fam": FAM_NAMES[f], "idx": i, "half_shift": h,
                           "exp": e} for (f, i, h), e in key]}
                for key, c in self.terms()]

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()})"


def _product_bound(a: LaurentPoly, b: LaurentPoly) -> int:
    """Exponent bound of a * b; raises OverflowError rather than let a
    digit carry into its neighbour."""
    if a._b + b._b > EXP_MAX:
        a._b, b._b = _exact_bound(a._t), _exact_bound(b._t)
    return _checked(a._b + b._b)


def _product_into(acc: dict, ta: dict, tb: dict, sign: int) -> None:
    """The product kernel: acc += sign * ta * tb on raw term dicts."""
    get = acc.get
    for k1, c1 in ta.items():
        c1 *= sign
        for k2, c2 in tb.items():
            k = k1 + k2
            s = get(k, 0) + c1 * c2
            if s:
                acc[k] = s
            else:
                del acc[k]


def acc_product(acc: dict, a: "LaurentPoly", b: "LaurentPoly",
                sign: int = 1) -> None:
    """Accumulate sign * a * b into a raw term dict in place.

    The step of ``product_sum``, which keeps only one large product
    alive at a time when verifying bilinear identities whose two sides
    mostly cancel, and wraps the dict without decoding its keys.
    """
    _product_bound(a, b)
    _product_into(acc, a._t, b._t, sign)


def product_sum(triples: Iterable[tuple]) -> LaurentPoly:
    """Sum of sign * a * b over (sign, a, b), accumulated in place in
    one dict by ``acc_product``; no product is built on its own."""
    out: dict = {}
    bound = 0
    for sign, a, b in triples:
        acc_product(out, a, b, sign)
        bound = max(bound, a._b + b._b)  # checked by acc_product
    return LaurentPoly._make(out, bound)


class Words(NamedTuple):
    """A row operand of ``product_sum_vanishes``: the sum over ``words``
    of prod_k templates[word[k]].shift(halves[k]), where every template
    is a single term."""

    templates: dict
    halves: list
    words: list


def _frame_bound(a, b) -> int:
    """``_product_bound`` of two operands of ``product_sum_vanishes``;
    a ``Words`` operand is bounded as ``word_sum`` bounds it."""
    a, b = (x if isinstance(x, (LaurentPoly, Words)) else x[0]
            for x in (a, b))
    if isinstance(a, Words) or isinstance(b, Words):
        return _checked(sum(_letters(x.templates)[2] * len(x.halves)
                            if isinstance(x, Words) else _exact_bound(x._t)
                            for x in (a, b)))
    return _product_bound(a, b)


def product_sum_vanishes(triples: Iterable[tuple]) -> bool:
    """Whether the sum of sign * A * B over (sign, A, B) is zero, decided
    in one frame of this call (see "Local packing" in the module
    docstring).  An operand is a LaurentPoly p, a pair (p, half) for
    p.shift(half), or ``Words``."""
    triples = list(triples)
    w = max((_frame_bound(a, b) for _, a, b in triples),
            default=0).bit_length() + 1
    place: dict = {}  # shifted VarKey -> its local unit, in first-use order
    at: dict = {}     # half -> {global slot: local unit of it shifted by half}

    def key(k: int, half: int) -> int:
        return _substitute(*_digits(k), at.setdefault(half, {}), lambda v: (
            place.setdefault((v[0], v[1], v[2] + half), 1 << w * len(place))))

    def pack(x) -> dict:
        if isinstance(x, Words):
            keys, coeffs, _ = _letters(x.templates)
            return _words_into([{c: key(k, h) for c, k in keys.items()}
                                for h in x.halves],
                               [coeffs] * len(x.halves), x.words)
        p, half = (x, 0) if isinstance(x, LaurentPoly) else x
        return {key(k, half): c for k, c in p._t.items()}

    acc: dict = {}
    for sign, a, b in triples:
        _product_into(acc, pack(a), pack(b), sign)
    return not acc


def screenings_vanish(p: LaurentPoly, cartan: "CartanData", factor) -> bool:
    """Whether every node's screening of p canonicalizes to zero, decided
    in one frame of this call (see "Local packing" in the module
    docstring).

    ``factor(a, half)`` is the single-term multiplier A_a at ``half``.
    The arguments v of each node a fall into classes modulo t = pair2(a,
    a).  A class's chain is 1 at its smallest argument, and each step
    from w to w + t multiplies it by factor(a, w + t/2), the walk of
    ``screening.canonicalize``.  Every pair of a term c M of p and a
    variable Y_a(v) of M with exponent e adds e * c times the chain's
    coefficient at the monomial (M's Q image) * (the chain at v) * (the
    variable of v's class).  The frame's digits are as wide as its bound
    needs, past EXP_MAX too, so only the Q images' bound is guarded, as
    ``q_euler_parts`` guards it.
    """
    q = p._q_bound()
    decoded = [(c, *_digits(k)) for k, c in p._t.items()]
    ys: set = set()
    for _, slots, _ in decoded:
        ys.update(slots)
    classes: dict = {}  # (a, v mod t) -> [(v, slot of Y_a(v))]
    for s in ys:
        a, v = _y_arg(_VAR[s])
        classes.setdefault((a, v % cartan.pair2(a, a)), []).append((v, s))
    chains: dict = {}  # slot of Y_a(v) -> (class, coefficient, exponents)
    for cls, args in classes.items():
        a = cls[0]
        t = cartan.pair2(a, a)
        args.sort()
        w = args[0][0]
        coeff, exps = 1, {}  # the chain: coeff * prod Q^exps[Q]
        for v, s in args:
            while w < v:
                (key, c), = factor(a, w + t // 2)._t.items()
                coeff *= c
                for slot, e in zip(*_digits(key)):
                    exps[_VAR[slot]] = exps.get(_VAR[slot], 0) + e
                w += t
            chains[s] = (cls, coeff, dict(exps))
    bound = q + max((abs(e) for _, _, exps in chains.values()
                     for e in exps.values()), default=0)
    width = max(bound, 1).bit_length() + 1
    place: dict = {}  # Q VarKey or class -> its local unit, in first use

    def unit(x) -> int:
        return place.setdefault(x, 1 << width * len(place))

    offset = {s: unit(cls) + sum(e * unit(var) for var, e in exps.items())
              for s, (cls, _, exps) in chains.items()}
    scale = {s: coeff for s, (_, coeff, _) in chains.items()}
    images, image = {}, partial(_q_image, cartan, unit=unit)
    acc: dict = {}
    get = acc.get
    for c, slots, exps in decoded:
        k = _substitute(slots, exps, images, image)
        for s, e in zip(slots, exps):
            key = k + offset[s]
            n = get(key, 0) + e * c * scale[s]
            if n:
                acc[key] = n
            else:
                del acc[key]
    return not acc


def _letters(templates: dict) -> tuple[dict, dict, int]:
    """The packed key and the coefficient of each single-term template,
    and the largest |exponent| among them."""
    keys, coeffs = {}, {}
    for letter, p in templates.items():
        if len(p._t) != 1:
            raise ValueError(f"template for letter {letter!r} has "
                             f"{len(p._t)} terms, not one")
        (keys[letter], coeffs[letter]), = p._t.items()
    return keys, coeffs, _exact_bound(keys.values())


def _words_into(keys: list, coeffs: list, words: Iterable[tuple]) -> dict:
    """Raw terms of the sum over ``words`` of the products of their
    letters, the k-th with key keys[k][letter] and coefficient
    coeffs[k][letter]: one int add per letter, summed in one dict."""
    length = len(keys)
    unit = all(c == 1 for cmap in coeffs for c in cmap.values())
    pick = dict.__getitem__
    out: dict = {}
    get = out.get
    for w in words:
        if len(w) != length:
            raise ValueError(f"word {w!r} does not have length {length}")
        k = sum(map(pick, keys, w))
        s = get(k, 0) + (1 if unit else prod(map(pick, coeffs, w)))
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def word_sum(positions: list, words: Iterable[tuple]) -> LaurentPoly:
    """Sum over ``words`` of prod_k positions[k][word[k]].

    ``positions[k]`` maps each letter that may stand at position k to a
    single-term template.  A word's product is one int add per letter on
    the packed keys and its coefficient the product of the templates'
    coefficients.  Every word must have length ``len(positions)``.
    """
    keys, coeffs, bounds = list(zip(*map(_letters, positions))) or [()] * 3
    return LaurentPoly._make(_words_into(keys, coeffs, words),
                             _checked(sum(bounds)))


def _checked(bound: int) -> int:
    """``bound``, or OverflowError when it passes EXP_MAX: the one guard
    against a digit carrying into its neighbour."""
    if bound > EXP_MAX:
        raise OverflowError(f"exponents up to {bound} could overflow "
                            f"packed digits (|e| <= {EXP_MAX})")
    return bound


def poly_sum(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Sum of polynomials, accumulated in place in one dict, where a
    chain of ``+`` copies the growing partial sum at every step."""
    out: dict = {}
    get = out.get
    bound = 0
    for p in polys:
        if not out:
            out.update(p._t)  # copied at C speed
        else:
            for key, c in p._t.items():
                s = get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        bound = max(bound, p._b)
    return LaurentPoly._make(out, bound)


# convenience shorthands used throughout the package and its tests

def Y(idx: int, half: int = 0, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.var(Y_FAM, idx, half, exp)


def Qv(idx: int, half: int = 0, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.var(Q_FAM, idx, half, exp)


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


@dataclass(frozen=True)
class AlgebraSpec:
    """Which affine series (C, B or D) and its rank."""

    series: str
    n: int

    def __post_init__(self):
        if self.series not in ("C", "B", "D"):
            raise ValueError(f"unknown series {self.series!r}")
        lo = {"C": 2, "B": 2, "D": 3}[self.series]
        if self.n < lo:
            raise ValueError(f"series {self.series} needs rank >= {lo}")

    @property
    def N(self) -> int:
        if self.series != "C":
            raise ValueError("N = 2n+2 is defined for the C series only")
        return 2 * self.n + 2


@dataclass(frozen=True)
class CartanData:
    """Symmetric root pairings (alpha_a | alpha_b), stored doubled.

    ``pair2(a, b)`` returns 2*(alpha_a|alpha_b), which is an integer for
    all three series under the normalizations used here:
    C: (a|a) = 1 + delta_{an};  B: (a|a) = 2 - delta_{an};  D: (a|a) = 2.
    """

    algebra: AlgebraSpec

    def pair2(self, a: int, b: int) -> int:
        n = self.algebra.n
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"node out of range: ({a},{b})")
        if a > b:
            a, b = b, a
        s = self.algebra.series
        if s == "C":
            if a == b:
                return 4 if a == n else 2
            if b == a + 1:
                return -2 if b == n else -1
            return 0
        if s == "B":
            if a == b:
                return 2 if a == n else 4
            return -2 if b == a + 1 else 0
        # D series
        if a == b:
            return 4
        if b == a + 1 and a <= n - 2:
            return -2
        if (a, b) == (n - 2, n):
            return -2
        return 0


# -- letter codes for the ordered alphabet 1 < ... < n < nbar < ... < 1bar

def bar(a: int, n: int) -> int:
    """Code of the barred letter abar; plain a has code a (1..n)."""
    return 2 * n + 1 - a


def is_barred(code: int, n: int) -> bool:
    return code > n


def letter_value(code: int, n: int) -> int:
    """Underlying 1..n value of a letter code."""
    return code if code <= n else 2 * n + 1 - code


def letter_text(code: int, n: int) -> str:
    v = letter_value(code, n)
    return f"{v}~" if is_barred(code, n) else str(v)


class VariableTable:
    """Shift templates z_a / z_abar (and x_i, z_0) for one algebra.

    Every template is a LaurentPoly in the Y (or, for the two special
    x-letters of the C series, the Q) representation, normalized so that
    ``half=0`` corresponds to the base point u.
    """

    def __init__(self, algebra: AlgebraSpec):
        self.algebra = algebra
        self.cartan = CartanData(algebra)
        self.n = algebra.n

    def z(self, code: int, half: int = 0) -> LaurentPoly:
        """z_letter(u + half/2) in the Y representation.

        Away from node n every series uses one formula, with (r, k) =
        (1, 2n+4) for C, (2, 2n+1) for B and (2, 2n) for D:
        z_a = Y_a(u + ra/2) / Y_{a-1}(u + r(a+1)/2) and
        z_abar = Y_{a-1}(u + r(k-a-1)/2) / Y_a(u + r(k-a)/2), Y_0 = 1.
        The letters next to n are written out per series: B n and nbar;
        D n-1, n, nbar and (n-1)bar.
        """
        n = self.n
        s = self.algebra.series
        if not (1 <= code <= 2 * n):
            raise ValueError(f"letter code out of range: {code}")
        if s == "B" and code in (n, n + 1):
            factors = {n: ((n, 2 * n + 1, 1), (n, 2 * n - 1, 1),
                           (n - 1, 2 * n + 2, -1)),
                       n + 1: ((n, 2 * n + 3, -1), (n, 2 * n + 1, -1),
                               (n - 1, 2 * n, 1))}[code]
        elif s == "D" and n - 1 <= code <= n + 2:
            factors = {n - 1: ((n, 2 * n - 2, 1), (n - 1, 2 * n - 2, 1),
                               (n - 2, 2 * n, -1)),
                       n: ((n, 2 * n - 2, 1), (n - 1, 2 * n + 2, -1)),
                       n + 1: ((n - 1, 2 * n - 2, 1), (n, 2 * n + 2, -1)),
                       n + 2: ((n - 2, 2 * n, 1), (n, 2 * n + 2, -1),
                               (n - 1, 2 * n + 2, -1))}[code]
        else:
            r, k = {"C": (1, 2 * n + 4), "B": (2, 2 * n + 1),
                    "D": (2, 2 * n)}[s]
            if code <= n:
                a = code
                factors = ((a, r * a, 1), (a - 1, r * (a + 1), -1))
            else:
                a = 2 * n + 1 - code
                factors = ((a - 1, r * (k - a - 1), 1), (a, r * (k - a), -1))
        return LaurentPoly.monomial(1, {vk(Y_FAM, b, half + h): e
                                        for b, h, e in factors if b})

    def z0(self, half: int = 0) -> LaurentPoly:
        if self.algebra.series != "B":
            raise ValueError("z0 exists for the B series only")
        n = self.n
        return LaurentPoly.monomial(
            1, {vk(Y_FAM, n, half + 2 * n - 1): 1,
                vk(Y_FAM, n, half + 2 * n + 3): -1})

    def x_special(self, half: int = 0) -> LaurentPoly:
        """The Q-ratio shared (up to sign) by the two middle x-letters."""
        if self.algebra.series != "C":
            raise ValueError("x-alphabet exists for the C series only")
        n = self.n
        return LaurentPoly.monomial(
            1, {vk(Q_FAM, n, half + n): 1,
                vk(Q_FAM, n, half + n + 4): 1,
                vk(Q_FAM, n, half + n + 2): -2})

    def x(self, i: int, half: int = 0) -> LaurentPoly:
        """x_i(u + half/2), C series, in Q-variables (the two middle
        letters have no Y-variable form)."""
        n = self.n
        N = self.algebra.N
        if not (1 <= i <= N):
            raise ValueError(f"x index out of range: {i}")
        if i == n + 1:
            return self.x_special(half)
        if i == n + 2:
            return -self.x_special(half)
        code = i if i <= n else i - 2  # x_{2n+3-a} = z_abar has code 2n+1-a
        return self.z(code, half).to_q(self.cartan)
