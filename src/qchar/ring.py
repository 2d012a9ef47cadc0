"""Exact sparse Laurent-polynomial arithmetic over Z on packed monomials.

Variables are indexed by (family, node index, half-integer shift): ``Y``
for the basic ring variables Y_a(u+s), ``Q`` for the Baxter functions
Q_a(u+s), and ``T`` for free symbols t_a(u+s) that stand for the
fundamental characters T^(a)_1(u+s) in identities decided formally.
The shift is stored as an integer count of half-units so that every
argument occurring in the C/B/D constructions lives on one lattice.

Packed keys.  The first time a process meets a variable it interns it
to the next free *slot*.  A monomial prod_v v^(e_v) is then one Python
int, sum_v e_v * 2^(16 * slot(v)), with balanced 16-bit digits: every
exponent lies in [-EXP_MAX, EXP_MAX], EXP_MAX = 2^15 - 1.  In that range
each monomial has exactly one such int, so dict lookups compare
monomials exactly, and the product of two monomials is one int add.
``word_sum`` sums words of single-term letters (tableau weights) that
way, from blocks: one int add per letter of a partial word, and each
word's key a C-level sum of its partial keys.

Overflow guard.  A digit sum past EXP_MAX would carry into the next slot
and alias another monomial.  Every polynomial therefore carries an upper
bound on |e| over its terms, for products alone: exact for a monomial,
the maximum under sums, the sum under products.  A product whose carried
bounds pass EXP_MAX first replaces them by the exact maxima of its
operands.  Everything else bounds the exponents its call decodes: the
zero-test's operands (``_span``), a word sum (the largest template
exponent once per position), and twice the largest exponent under
``to_q`` and in ``screenings_vanish`` (at most two Y exponents meet in a
Q variable).  Every bound then passes one guard, ``_checked``, which
raises OverflowError past EXP_MAX.

Substitution.  ``shift`` (u -> u + h/2), ``to_q`` (Y_a(v) ->
Q_a(v - t_a)/Q_a(v + t_a)) and the repacks of ``sums_vanish`` and
``screenings_vanish`` rewrite monomials one way: ``_substitute``
takes a decoded key and returns sum e * image(var), computing each
slot's image once per call.  Each of these maps is injective on
monomials (a shift permutes the variables, and e(w + t) - e(w - t) = 0
forces a finitely supported e to vanish), so no two terms meet and no
coefficient is merged.

Local packing.  A key carries 16 bits for every slot up to its highest,
so keys grow with all the variables a process has met.  The zero-test
``sums_vanish`` therefore packs a family of sums into one frame: a
mixed-radix number over the *shifted* variables the call meets, each
digit as wide as that variable's exponents need (Knuth, TAOCP vol. 2,
4.1).  Every operand, x or ``(x, half)`` for x shifted by half, takes
one form, ``_operand``'s, a word sum of letters: x is ``Words``, as the
B/D T_m of "L times inverse is 1" enter, or a polynomial, the word sum of
one position whose letters are its own keys.  One pass bounds them:
``_span`` gives each operand its exponent bound b and an exact range
[lo, hi] per variable, from its letters' distinct (slot, exponent)
pairs, each range taken with 0 and added over the positions; no word is
formed.  It scans each object once: an operand (x, half) takes x's
ranges re-keyed to the variables shifted by half, as a shift only
renames variables.  The two ranges of a product add, and the frame's
box is their union over the products of every sum, with 0.  Slot i, in
sorted order of the variables, has the unit prod_{j<i} (hi_j - lo_j +
1), so every monomial in the box has exactly one key, and keys add
under products.
The two bounds of every product pass ``_checked``, so a sum that
``product_sum`` would refuse raises OverflowError here too.  The repack
is the substitution that sends each variable, shifted by a position's
half, to the unit of its frame slot, so each letter's key is decoded
once; the word keys are C-level sums of partial keys, as in
``word_sum``: no row is built, and words are counted with multiplicity,
not merged.  The map is injective and additive on the box, which holds
every product monomial, so each sum vanishes iff it does on global keys.
A shift is a ring automorphism fixing 1, so callers shift their sums to
share operands, and each operand, the same object at the same half, is
packed once per call.  Nothing packed outlives the call.  A sum of at
most BUDGET = 2^12 term pairs, sum |A| |B| over its products from the
packed operands' sizes, is counted at once.  A larger one is decided
one residue class of keys modulo p at a time, as the map k -> k mod p
is additive: classes alpha and beta multiply into class alpha + beta,
and keys of different classes never meet.  ``_modulus`` takes p from
the sum's term pairs and the frame's radices: the least prime p >=
pairs / BUDGET such that no radix is 0 or 1 mod p, at most CLASSES =
37.  So each count holds about BUDGET pairs, and a product is put
together from at most p^2 slices, no more classes than its size needs.
A radix 0 mod p would send every unit above it to class 0, and one 1
mod p gives a slot's unit the class of the unit below it; with radix 1
mod p throughout, keys would be classed by total degree alone (modulo
31, a frame of 5-bit digits, radix 32, put 20 % of one sum's pairs of
tt-tq on Y in one class).  A frame with every radix from 2 to 5, as the
frames of tt-tq on Y and of D5 have, gives p >= 7.  The cap keeps the
slices per product of the largest sums at 37^2; 2 has order 36 mod 37,
so no radix from 2 to 36 is 1 mod 37.  An operand is split into p
classes at the first sum of that p that uses it.  One frame spans a
whole family, so its keys are wider than a frame per sum would make
them: 75 bits at most in tt-tq on Y at rank 3 to m = 11, 58 in the
rank-2 T-system to m = 5, where a frame per sum gives 46.

``screenings_vanish`` decides in the same way, node by node, whether
the screening of a polynomial canonicalizes to zero.  Its frame holds
the Q variables of the images and of the A_a chains, and one slot per
residue class of screening symbols, which keeps the classes apart.
Each class's chain is built once from the factors it is given.  A
(term, Y_a(v)) pair costs one int add and one dict update, in its
node's accumulator.  The frame keeps the zero-test's rule with one
range, [-B, B], for every slot, where B is the Q images' bound, from
the exponents the call decodes, plus the largest chain exponent: slot
i, in order of first use, has the unit (2B + 1)^i.

Decoding.  Slot numbers depend on the order in which one process met
its variables, so they never leave this module: ``terms()``, ``text()``
and ``to_json()`` decode every key to the sorted tuple of
((family, index, half), exponent) pairs and sort the terms by it, which
makes their output the same in every process.  A decode is a bias add,
an xor and one ``int.to_bytes`` read as signed 16-bit digits: 6 to 8 us
for a key whose top slot is 246, on a 2-core Xeon under KVM.  So every
substitution decodes each key once, ``screenings_vanish`` once for all
nodes, and ``eval_points`` once for all the points it is given.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress, product, repeat, starmap
from math import prod
from operator import add, floordiv, mul
from typing import Iterable, Iterator, NamedTuple

Y_FAM, Q_FAM, T_FAM = 0, 1, 2
FAM_NAMES = {Y_FAM: "Y", Q_FAM: "Q", T_FAM: "T"}

# A VarKey is (family, index, half_shift); a decoded monomial (MonoKey) is
# a tuple of (VarKey, nonzero exponent) pairs sorted by VarKey.
VarKey = tuple
MonoKey = tuple

EXP_MAX = 2 ** 15 - 1
CLASSES = 37  # the most residue classes of a sum in sums_vanish
BUDGET = 2 ** 12  # term pairs of a sum counted at once in sums_vanish

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


def _largest(decoded: Iterable[tuple]) -> int:
    """The largest |e| over decoded keys, (slots, exps) each."""
    return max((max(map(abs, exps), default=0) for _, exps in decoded),
               default=0)


def _exact_bound(t: dict) -> int:
    return _largest(map(_digits, t))


def _y_arg(var: VarKey) -> tuple[int, int]:
    """(index, half) of a Y variable; ValueError for any other family."""
    f, i, h = var
    if f != Y_FAM:
        raise ValueError(f"expected Y-variables only, found {FAM_NAMES[f]}")
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
    has no terms.  ``_t`` maps packed keys to nonzero coefficients, ``_b``
    bounds |exponent| over them for the product guard.
    """

    __slots__ = ("_t", "_b", "_plan")

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

    # -- structural operations ---------------------------------------

    def shift(self, half_delta: int) -> "LaurentPoly":
        """Substitute u -> u + half_delta/2 in every variable."""
        if half_delta == 0 or not self._t:
            return self
        images, image = {}, lambda v: _unit((v[0], v[1], v[2] + half_delta))
        return LaurentPoly._make({_substitute(*_digits(k), images, image): c
                                  for k, c in self._t.items()}, self._b)

    def to_q(self, cartan: "CartanData") -> "LaurentPoly":
        """Replace every Y_a(u+s)^e by its Baxter-Q ratio image; rejects
        input that already contains non-Y variables.  The image's bound
        is twice the largest decoded exponent (at most two Y exponents
        meet in a Q variable); OverflowError past EXP_MAX."""
        decoded = list(map(_digits, self._t))
        bound = _checked(2 * _largest(decoded))
        images, image = {}, partial(_q_image, cartan)
        return LaurentPoly._make({_substitute(*d, images, image): c for d, c
                                  in zip(decoded, self._t.values())}, bound)

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
        and ranges found once per polynomial (``_plan``); at each point
        the guards run in the order a term-by-term pass meets them, and
        each p_s^(e - lo_s) q_s^(hi_s - e) is built once per (s, e); a term
        is c * prod(its powers) * (D // prod(its slots' factors of D))."""
        if getattr(self, "_plan", None) is None:
            decoded = list(map(_digits, self._t))  # (slots, exps) per term
            slots = [d[0] for d in decoded]
            pairs = [list(zip(*d)) for d in decoded]  # [(slot, e)] per term
            first = dict.fromkeys(chain.from_iterable(pairs))  # first use
            lo: dict = {}  # slot -> lowest exponent, with 0
            hi: dict = {}
            guards = []  # (slot, negative?): its first, first negative use
            for s, e in first:
                if s not in lo:
                    lo[s] = hi[s] = 0
                    guards.append((s, False))
                if e < lo[s]:
                    if not lo[s]:
                        guards.append((s, True))
                    lo[s] = e
                elif e > hi[s]:
                    hi[s] = e
            self._plan = slots, pairs, first, lo, hi, guards
        slots, pairs, first, lo, hi, guards = self._plan
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
                    x = assign[var]
                    values[s] = x if isinstance(x, Fraction) else Fraction(x)
            full = {s: x.numerator ** -lo[s] * x.denominator ** hi[s]
                    for s, x in values.items()}  # slot -> its factor of D
            den = prod(full.values())
            powers = {}  # (slot, e) -> p^(e - lo) q^(hi - e)
            for s, e in first:
                x = values[s]
                powers[s, e] = (x.numerator ** (e - lo[s])
                                * x.denominator ** (hi[s] - e))
            terms = map(mul, self._t.values(), map(prod, map(
                map, repeat(powers.__getitem__), pairs)))
            cofactors = map(floordiv, repeat(den), map(prod, map(
                map, repeat(full.__getitem__), slots)))
            total = sum(map(mul, terms, cofactors))
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
    """Exponent bound of a * b, the carried bounds' sum or, past EXP_MAX,
    the exact one; raises OverflowError rather than let a digit carry
    into its neighbour."""
    bound = a._b + b._b
    if bound > EXP_MAX:
        bound = _exact_bound(a._t) + _exact_bound(b._t)
    return _checked(bound)


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
    """A word sum: over the words of ``blocks`` (see ``_words_into``), the
    products prod_k templates[word[k]].shift(halves[k]) of single-term
    templates.  ``word_sum`` builds it, ``sums_vanish`` takes it as it
    is."""

    templates: dict
    halves: list
    blocks: list


def _operand(x) -> tuple:
    """The word-sum form (keys, coeffs, halves, blocks) of an operand of
    ``sums_vanish``, x or (x, half) for x shifted by half: ``Words`` with
    their letters' keys and coefficients, each position moved by half,
    and a polynomial p as the word sum of one position at half whose
    letters are p's own keys, each a word of its own."""
    x, half = x if type(x) is tuple else (x, 0)
    if isinstance(x, Words):
        return (*_letters(x.templates), [h + half for h in x.halves], x.blocks)
    return dict(zip(x._t, x._t)), x._t, [half], [([(k,) for k in x._t],)]


def _span(x: tuple, digits=_digits) -> tuple[int, dict]:
    """(b, {shifted VarKey: (lo, hi)}) of an ``_operand`` x: every
    monomial of x has |e| <= b, and the exponent of each variable in
    [lo, hi].  One pass over the letters' distinct (slot, exponent)
    pairs gives each variable the least and the largest exponent of the
    letters, each taken with 0 (a letter that lacks the variable has 0
    there); the ranges add over the positions, and b is the largest |e|
    once per position.  No word is formed."""
    keys, _, halves, _ = x
    ranges: dict = {}  # slot -> (lo, hi)
    for s, e in {se for k in keys.values() for se in zip(*digits(k))}:
        lo, hi = ranges.get(s, (0, 0))
        ranges[s] = min(lo, e), max(hi, e)
    span: dict = {}
    for h in halves:
        for s, (lo, hi) in ranges.items():
            f, i, v = _VAR[s]
            before = span.get((f, i, v + h), (0, 0))
            span[f, i, v + h] = before[0] + lo, before[1] + hi
    return max((max(-lo, hi) for lo, hi in ranges.values()),
               default=0) * len(halves), span


def _identity(x) -> tuple:
    """(id, half) of an operand: the same object at the same half."""
    return (id(x[0]), x[1]) if type(x) is tuple else (id(x), 0)


def sums_vanish(sums: Iterable[Iterable[tuple]]) -> list[bool]:
    """For each sum of sign * A * B over (sign, A, B), whether it is zero,
    all in one frame of this call (see "Local packing" in the module
    docstring).  An operand is a LaurentPoly or ``Words`` x, or (x, half)
    for x shifted by half.  Each object is bounded once, by ``_span``.
    Each distinct operand, by ``_identity``, is packed once at its first
    sum, split into p classes of keys at its first sum of p > 1 classes,
    and dropped after its last.  Each product's bound, A's ``_span``
    bound plus B's, passes ``_checked``.  A sum's class count p is
    ``_modulus`` of its term pairs and the frame's radices: 1 for at
    most BUDGET pairs, and for more about pairs / BUDGET, at most
    CLASSES.  Class gamma, up to the first that fails, takes over the
    triples and alpha A's class-alpha keys times B's class-(gamma -
    alpha) keys, by coefficient, A the operand with fewer groups, and
    ``_count_blocks`` counts the two sides."""
    sums = [list(t) for t in sums]  # held, so that no id is reused
    ops = {_identity(x): x for t in sums for _, *xs in t for x in xs}
    last = {k: i for i, t in enumerate(sums)  # the last sum using each
            for _, *xs in t for k in map(_identity, xs)}
    digits = cache(_digits)  # one decode per key for the box and repack
    scanned: dict = {}  # id -> _span of the object at half 0
    spans: dict = {}  # identity -> _span, the object's re-keyed to its half
    for (i, h), x in ops.items():
        if i not in scanned:
            scanned[i] = _span(_operand(x[0] if type(x) is tuple else x),
                               digits)
        b, span = scanned[i]
        spans[i, h] = b, {(f, j, v + h): r for (f, j, v), r
                          in span.items()} if h else span
    box: dict = {}  # shifted VarKey -> [lo, hi] over every product, with 0
    for _, a, b in chain.from_iterable(sums):
        (b_a, sa), (b_b, sb) = spans[_identity(a)], spans[_identity(b)]
        _checked(b_a + b_b)  # OverflowError past EXP_MAX
        for v in sa.keys() | sb.keys():
            (lo_a, hi_a), (lo_b, hi_b) = sa.get(v, (0, 0)), sb.get(v, (0, 0))
            r = box.setdefault(v, [0, 0])
            r[0], r[1] = min(r[0], lo_a + lo_b), max(r[1], hi_a + hi_b)
    del spans
    place: dict = {}  # shifted VarKey -> its local unit
    unit = 1
    for v in sorted(box):
        lo, hi = box[v]
        place[v], unit = unit, unit * (hi - lo + 1)
    radices = {hi - lo + 1 for lo, hi in box.values()}
    at: dict = {}  # half -> {global slot: local unit of it shifted by half}

    def key(k: int, half: int) -> int:
        return _substitute(*digits(k), at.setdefault(half, {}), lambda v: (
            place[v[0], v[1], v[2] + half]))

    def pack(op: tuple, classes: int) -> dict:  # alpha -> {c: keys}
        if (op, 1) not in packs:
            keys, coeffs, halves, blocks = _operand(ops[op])
            packs[op, 1] = {0: _words_into([{c: key(k, h) for c, k in
                                             keys.items()} for h in halves],
                                           coeffs, blocks)}
        if (op, classes) not in packs:  # each key to its class, at C level
            parts = [{} for _ in range(classes)]
            for c, ks in packs[op, 1][0].items():
                lists = [part.setdefault(c, []) for part in parts]
                deque(map(list.append, map(lists.__getitem__, map(
                    classes.__rmod__, ks)), ks), maxlen=0)
            packs[op, classes] = {alpha: y for alpha, part in enumerate(parts)
                                  if (y := {c: ks for c, ks in part.items()
                                            if ks})}
        return packs[op, classes]

    def size(op: tuple) -> int:  # the number of keys of an operand
        return sum(map(len, pack(op, 1)[0].values()))

    def vanishes(packed: list, gamma: int, classes: int) -> bool:
        blocks: dict = {}  # m -> [(keys, keys)] whose sums carry m each
        for sign, a, b in packed:
            for alpha, x in a:
                y = b.get((gamma - alpha) % classes, {})
                for (c1, k1), (c2, k2) in product(x.items(), y.items()):
                    blocks.setdefault(sign * c1 * c2, []).append((k1, k2))
        return dict.__eq__(*_count_blocks(blocks))

    packs: dict = {}  # (identity, classes) -> pack, from its first use on
    out = []
    for i, t in enumerate(sums):
        t = [(sign, *map(_identity, xs)) for sign, *xs in t]
        pairs = sum(size(a) * size(b) for _, a, b in t)
        classes = _modulus(pairs, radices)
        packed = []  # (sign, A's classes as items, B's classes)
        for sign, *ks in t:
            a, b = sorted((pack(k, classes) for k in ks),
                          key=lambda x: sum(map(len, x.values())))
            packed.append((sign, a.items(), b))
        packs = {k: x for k, x in packs.items() if last[k[0]] > i}
        out.append(all(vanishes(packed, g, classes) for g in range(classes)))
    return out


def _modulus(pairs: int, radices: set) -> int:
    """The class count p of a sum of ``pairs`` term pairs in a frame of
    digit radices ``radices``: 1 for at most BUDGET pairs, else the least
    prime p >= pairs / BUDGET with no radix 0 or 1 mod p, at most
    CLASSES (CLASSES itself for a budget <= 0)."""
    if pairs <= BUDGET:
        return 1
    need = -(-pairs // BUDGET) if BUDGET > 0 else CLASSES
    return next((p for p in range(max(need, 2), CLASSES)
                 if all(p % d for d in range(2, p))
                 and all(r % p > 1 for r in radices)), CLASSES)


def _count_blocks(blocks: dict) -> tuple[Counter, Counter]:
    """Positive and negative counts of each key sum k1 + k2 over the blocks
    {m: [(keys, keys)]}, at C level: for m = +-1 directly, for any other m
    once, then folded in times |m| by ``dict.update``, so the cost does
    not grow with |m|.  Compare them by dict.__eq__; Counter's is a loop."""
    sides = Counter(), Counter()
    for m, bucket in blocks.items():
        pairs = starmap(add, chain.from_iterable(starmap(product, bucket)))
        side = sides[m < 0]
        if abs(m) == 1:
            side.update(pairs)
        elif m:
            counts = Counter(pairs)
            dict.update(side, zip(counts, map(add, map(
                side.get, counts, repeat(0)), map(
                    mul, counts.values(), repeat(abs(m))))))
    return sides


def screenings_vanish(p: LaurentPoly, cartan: "CartanData",
                      factor) -> dict:
    """{a: whether node a's screening of p canonicalizes to zero} for
    every node a in order, decided in one frame of this call (see "Local
    packing" in the module docstring).

    ``factor(a, half)`` is the single-term multiplier A_a at ``half``.
    The arguments v of node a fall into classes modulo t = pair2(a, a).
    A class's chain is 1 at its smallest argument, and each step from w
    to w + t multiplies it by factor(a, w + t/2), the walk of
    ``screening.canonicalize``.  A term c M and a variable Y_a(v) of M
    with exponent e add e * c * (the chain's coefficient) at (M's Q
    image) * (the chain at v) * (v's class) in node a's sum.  Only the Q
    images' bound is guarded, as ``to_q`` guards it: twice the largest
    exponent decoded.  A non-Y variable is refused with ValueError.
    """
    decoded = list(map(_digits, p._t))
    frame = _screening_frame({_VAR[s] for slots, _ in decoded
                              for s in slots}, _checked(2 * _largest(decoded)),
                             cartan, factor)
    accs = {a: {} for a in range(1, cartan.algebra.n + 1)}
    # slot of Y_a(v) -> (its class and chain, packed; coefficient; acc)
    step = {_SLOT[v]: (offset, scale, accs[a])
            for v, (_, a, offset, scale) in frame.items()}
    images = {_SLOT[v]: f[0] for v, f in frame.items()}
    for c, (slots, exps) in zip(p._t.values(), decoded):
        k = _substitute(slots, exps, images, None)
        for s, e in zip(slots, exps):
            offset, scale, acc = step[s]
            key = k + offset
            n = acc.get(key, 0) + e * c * scale
            if n:
                acc[key] = n
            else:
                del acc[key]
    return {a: not acc for a, acc in accs.items()}


def _screening_frame(ys: set, q: int, cartan: "CartanData", factor) -> dict:
    """{Y_a(v): (its Q image, a, the chain at v plus v's class, the
    chain's coefficient)} over ys in a frame for Q images bounded by q.
    Each slot is one balanced digit of radix 2B + 1, B = q plus the
    largest chain exponent: a Q image plus a chain has every digit in
    [-B, B], and a class digit is 1 <= B."""
    classes: dict = {}  # (a, v mod t) -> [(v, Y_a(v))]
    for var in ys:
        a, v = _y_arg(var)
        classes.setdefault((a, v % cartan.pair2(a, a)), []).append((v, var))
    chains: dict = {}  # Y_a(v) -> (class, coefficient, exponents)
    for cls, args in classes.items():
        a = cls[0]
        t = cartan.pair2(a, a)
        args.sort()
        w = args[0][0]
        coeff, exps = 1, {}  # the chain: coeff * prod Q^exps[Q]
        for v, var in args:
            while w < v:
                (key, c), = factor(a, w + t // 2)._t.items()
                coeff *= c
                for slot, e in zip(*_digits(key)):
                    exps[_VAR[slot]] = exps.get(_VAR[slot], 0) + e
                w += t
            chains[var] = (cls, coeff, dict(exps))
    radix = 2 * (q + max((abs(e) for _, _, exps in chains.values()
                          for e in exps.values()), default=0)) + 1
    place: dict = {}  # Q VarKey or class -> its local unit, in first use

    def unit(x) -> int:
        return place.setdefault(x, radix ** len(place))

    return {var: (_q_image(cartan, var, unit), cls[0], unit(cls) + sum(
        e * unit(x) for x, e in exps.items()), coeff)
        for var, (cls, coeff, exps) in chains.items()}


def _letters(templates: dict) -> tuple[dict, dict]:
    """The packed key and the coefficient of each single-term template."""
    keys, coeffs = {}, {}
    for letter, p in templates.items():
        if len(p._t) != 1:
            raise ValueError(f"template for letter {letter!r} has "
                             f"{len(p._t)} terms, not one")
        (keys[letter], coeffs[letter]), = p._t.items()
    return keys, coeffs


def _words_into(keys: list, coeffs: dict, blocks: Iterable[tuple]) -> dict:
    """{c: the keys of the words of coefficient c, with multiplicity} over
    the words of ``blocks``, the k-th letter with key keys[k][letter] and
    coefficient coeffs[letter].  A block is a tuple of factors, lists
    of partial words of one length each, and its words join one partial
    word of each factor in turn, each key a C-level sum of partial keys.
    Each factor's partial keys {c: keys} are formed once per factor and
    offset, one int add per letter."""
    pick, coeff = dict.__getitem__, coeffs.__getitem__
    memo: dict = {}  # (factor, offset) -> its partial keys
    out: dict = {}
    for block in filter(all, blocks):  # an empty factor has no words
        widths = [len(f[0]) for f in block]
        if sum(widths) != len(keys) or any(
                {*map(len, f)} != {w} for f, w in zip(block, widths)):
            bad = next(w for w in map(tuple, starmap(chain, product(*block)))
                       if len(w) != len(keys))
            raise ValueError(f"word {bad!r} does not have length {len(keys)}")
        parts, at = [], 0
        for f, w in zip(block, widths):
            part = memo.get((tuple(f), at))
            if part is None:
                ks = keys[at:at + w]
                part = memo[tuple(f), at] = {}
                for p in f:
                    part.setdefault(prod(map(coeff, p)), []).append(
                        sum(map(pick, ks, p)))
            parts.append(part)
            at += w
        for c, ks in _join(parts).items():
            out.setdefault(c, []).extend(ks)
    return out


def _join(parts: Iterable[dict]) -> dict:
    """{c: keys} of the words joining a partial word of each part {c:
    partial keys} in turn, each key summed at C level."""
    parts = iter(parts)
    groups = next(parts, {1: [0]})  # a single part is its own join
    for part in parts:
        groups, joined = {}, groups
        for (c1, k1), (c2, k2) in product(joined.items(), part.items()):
            groups.setdefault(c1 * c2, []).extend(
                starmap(add, product(k1, k2)))
    return groups


def word_sum(words: Words) -> LaurentPoly:
    """The polynomial ``words`` stands for, on global keys, with each
    template shifted once per half.  A flat word list ws is the block
    ``(ws,)``; every word must have length ``len(halves)``.
    ``_count_blocks`` counts the words' keys, each plus the key 0 of the
    unit."""
    bound = _checked(_span(_operand(words))[0])
    templates, halves, blocks = words
    keys = [_letters({c: t.shift(h) for c, t in templates.items()})[0]
            for h in halves]
    groups = _words_into(keys, _letters(templates)[1], blocks)
    plus, minus = _count_blocks({c: [(ks, [0])] for c, ks in groups.items()})
    plus.subtract(minus)
    return LaurentPoly._make({k: c for k, c in plus.items() if c}, bound)


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


# shorthands: ``Qv`` for the package, ``Y`` for its tests

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
