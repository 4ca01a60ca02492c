"""Exact sparse polynomial arithmetic over Q in the indeterminates x, a and N.

A polynomial is stored as integer numerators over one shared denominator:
``_terms`` maps a packed exponent key to a nonzero ``int`` numerator and
``_den`` is a positive ``int``.  The key packs (e_x, e_a, e_N) into one int,
one ``_BITS``-wide field per variable with x in the top field, so adding two
keys multiplies the monomials and integer order on keys is lexicographic order
on exponent triples.  Each field keeps its top bit clear as a guard: every
exponent is below ``EXPONENT_LIMIT``, so the sum of two exponents never
carries into the neighbouring field, and a product whose guard bit is set is
rejected.

Every polynomial is in canonical form: no zero numerators, ``_den > 0`` and
``gcd(_den, *numerators) == 1``; the zero polynomial is ``{}`` over 1.  Every
operation returns canonical form, so structural equality holds exactly when
the difference of two polynomials is zero, and "the residual is zero" is a
proof.  Coefficients leave the kernel as ``fractions.Fraction``.

A sum of products is one operation, not a chain of them: ``sum_products``
accumulates every product over one common denominator, checks the guard bits
once and puts the result in canonical form once, where ``total + p * q`` in a
loop would copy the running sum and canonicalize twice per product.
``horner_x`` does the same for a nested sum P_0 + f_1 (P_1 + ... + f_m P_m)
with factors f_r linear in x: one pass over the numerators per step, one
guard check and one canonicalization in all.

The forward difference ``delta`` and backward difference ``nabla`` act on the
x variable and lower the x-degree by exactly one.  That strict lowering is
what makes series of differences finite on polynomials: any term of order
above the x-degree annihilates the argument exactly, not approximately.
Both differences and ``shift_x`` are one Taylor-shift kernel, ``_translate``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction
RationalLike = Union[int, Fraction]

# (e_x, e_a, e_N) exponent triple of one monomial
Exponent = tuple[int, int, int]


class Var(Enum):
    """Ring indeterminates; the value is the slot in an exponent triple."""

    X = 0
    A = 1
    N = 2


_BITS = 20
_MASK = (1 << _BITS) - 1
# Exponents are below this bound, which leaves each field's top bit as guard.
EXPONENT_LIMIT = 1 << (_BITS - 1)
# Bit offset of each variable's field, indexed by Var.value.
_SHIFTS = (2 * _BITS, _BITS, 0)
_SX = _SHIFTS[0]
_X1 = 1 << _SX  # the key of x
_LOW = (1 << _SX) - 1  # the a and N fields of a key
_GUARD = sum(EXPONENT_LIMIT << s for s in _SHIFTS)

# Factors inside a monomial print as a, N, x, each read from its key field as
# (field shift, name); term *ordering* is graded lexicographic on
# (e_x, e_a, e_N), descending.
_PRINT_ORDER = ((_SHIFTS[1], "a"), (_SHIFTS[2], "N"), (_SHIFTS[0], "x"))
# Monomial text per render style (sep, power), keyed by packed key: each
# monomial is formatted once per style.
_MONOMIALS: dict[tuple[str, str], dict[int, str]] = {}


def _rational(value: object) -> Fraction:
    """value as a Fraction, if it is an exact number: an int or a Fraction.

    Anything else, a float above all, raises TypeError instead of being
    silently turned into its binary expansion.
    """
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(value).__name__}")
    return Fraction(value)


def parity_sign(k: int) -> int:
    """(-1)**k, robust for negative k."""
    return -1 if k % 2 else 1


class Poly:
    """A sparse element of Q[x, a, N]."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Exponent, RationalLike] | None = None) -> None:
        coeffs = {Poly._pack(exp): _rational(c) for exp, c in (terms or {}).items()}
        den = lcm(*(c.denominator for c in coeffs.values()))
        canon = Poly._make(
            {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den
        )
        self._terms, self._den = canon._terms, canon._den

    @staticmethod
    def _pack(exp: Exponent) -> int:
        key = 0
        for e, shift in zip(exp, _SHIFTS, strict=True):
            if not isinstance(e, int) or not 0 <= e < EXPONENT_LIMIT:
                raise ValueError(f"exponents must be integers in [0, {EXPONENT_LIMIT}): {exp!r}")
            key |= e << shift
        return key

    @staticmethod
    def _unpack(key: int) -> Exponent:
        return (key >> _SX, (key >> _BITS) & _MASK, key & _MASK)

    @classmethod
    def _raw(cls, terms: dict[int, int], den: int = 1) -> "Poly":
        # Trusted constructor: terms and den must already be canonical.
        p = object.__new__(cls)
        p._terms = terms
        p._den = den
        return p

    @classmethod
    def _make(cls, terms: dict[int, int], den: int) -> "Poly":
        # Canonical form of terms over den > 0: drop zeros, divide out the content.
        if not all(terms.values()):
            terms = {k: v for k, v in terms.items() if v}
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: v // g for k, v in terms.items()}
            den //= g
        return cls._raw(terms, den)

    @classmethod
    def const(cls, value: RationalLike) -> "Poly":
        c = _rational(value)
        return cls._raw({0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, v: Var) -> "Poly":
        return cls._raw({1 << _SHIFTS[v.value]: 1})

    # -- inspection ---------------------------------------------------------

    @staticmethod
    def _grlex(item: tuple[int, int]) -> tuple[int, int]:
        key = item[0]
        return (key >> _SX) + ((key >> _BITS) & _MASK) + (key & _MASK), key

    def _ordered(self) -> list[tuple[int, int]]:
        return sorted(self._terms.items(), key=Poly._grlex, reverse=True)

    def terms(self) -> tuple[tuple[Exponent, Fraction], ...]:
        """Terms in descending graded-lex order (total degree, then exponents)."""
        den = self._den
        return tuple(
            (Poly._unpack(key), Fraction(num, den)) for key, num in self._ordered()
        )

    def _degree(self, shift: int) -> int:
        if shift == _SX:
            return max(self._terms) >> _SX
        return max((key >> shift) & _MASK for key in self._terms)

    def degree_in(self, v: Var) -> int:
        """Largest exponent of v, or -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return self._degree(_SHIFTS[v.value])

    def coeff_of(self, v: Var, k: int) -> "Poly":
        """Coefficient of v**k, a polynomial in the remaining variables."""
        if k < 0:
            raise ValueError("power must be nonnegative")
        shift = _SHIFTS[v.value]
        field = k << shift
        out = {
            key - field: num
            for key, num in self._terms.items()
            if (key >> shift) & _MASK == k
        }
        return Poly._make(out, self._den)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; raises if any variable occurs."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return Fraction(self._terms[0], self._den)
        raise ValueError("polynomial is not constant")

    def evaluate(
        self,
        x: RationalLike = 0,
        a: RationalLike = 0,
        n: RationalLike = 0,
    ) -> Fraction:
        """Exact value at a rational point (x, a, N): substitute x, a, N in turn."""
        p = self.substitute(Var.X, x).substitute(Var.A, a).substitute(Var.N, n)
        return p.constant_value()

    # -- ring operations ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        # Constants hash like the number they equal, so Poly.const(2) == 2
        # stays consistent with hashing.
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return hash(Fraction(self._terms[0], self._den))
        return hash(frozenset(self.terms()))

    def __neg__(self) -> "Poly":
        return Poly._raw({k: -v for k, v in self._terms.items()}, self._den)

    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        out = dict(self._terms) if s1 == 1 else {k: v * s1 for k, v in self._terms.items()}
        get = out.get
        for k, v in other._terms.items():
            out[k] = get(k, 0) + v * s2
        return Poly._make(out, d1 * s1)

    __radd__ = __add__

    def __sub__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "Poly":
        return Poly.const(other) + (-self)

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly._raw({})
            num = c.numerator
            return Poly._make(
                {k: v * num for k, v in self._terms.items()}, self._den * c.denominator
            )
        if not isinstance(other, Poly):
            return NotImplemented
        return sum_products(((self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "Poly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if k > 1 and self._terms:
            for shift in _SHIFTS:
                if self._degree(shift) * k >= EXPONENT_LIMIT:
                    raise ValueError(f"power exponent reaches {EXPONENT_LIMIT}")
        if len(self._terms) == 1:
            # (c m)^k = c^k m^k: one term, canonical as gcd(num, den) = 1
            ((key, num),) = self._terms.items()
            return Poly._raw({key * k: num**k}, self._den**k)
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- substitutions and the difference calculus --------------------------

    def substitute(self, v: Var, value: RationalLike) -> "Poly":
        """Replace the variable v by a rational constant."""
        c = _rational(value)
        if not self._terms:
            return self
        shift = _SHIFTS[v.value]
        deg = self._degree(shift)
        # value**e = p**e * q**(deg - e) / q**deg
        p, q = c.numerator, c.denominator
        scale = [p**e * q ** (deg - e) for e in range(deg + 1)]
        out: dict[int, int] = {}
        get = out.get
        for key, num in self._terms.items():
            e = (key >> shift) & _MASK
            k = key - (e << shift)
            out[k] = get(k, 0) + num * scale[e]
        return Poly._make(out, self._den * q**deg)

    def negate_var(self, v: Var) -> "Poly":
        """Replace v by -v: flip the sign of terms with odd exponent of v."""
        bit = 1 << _SHIFTS[v.value]
        return Poly._raw(
            {k: -c if k & bit else c for k, c in self._terms.items()}, self._den
        )

    def shift_x(self, offset: RationalLike) -> "Poly":
        """Substitute x -> x + offset, expanded exactly by the Taylor shift."""
        c = _rational(offset)
        return self._translate(c, 0) if c else self

    def _translate(self, offset: RationalLike, minus: int) -> "Poly":
        # p(x + u/q) - minus p(x) by the classical O(d^2) Taylor shift: as
        # p(x + u/q) = sum_e c_e q**(deg-e) (qx + u)**e / q**deg, each (a, N)
        # part's dense row of x-coefficients is scaled by q**(deg-e), shifted
        # by u with repeated additions, less minus times the row it started
        # as, and scaled back by q**e, all over the one denominator.
        if not self._terms:
            return self
        u, q = offset.numerator, offset.denominator
        deg = self._degree(_SX)
        qq = [q**i for i in range(deg + 1)]
        rows: dict[int, list[int]] = {}
        for key, num in self._terms.items():
            e, row = key >> _SX, rows.setdefault(key & _LOW, [])
            row.extend([0] * (e + 1 - len(row)))
            row[e] = num * qq[deg - e]
        out: dict[int, int] = {}
        for rest, row in rows.items():
            start = row[:]
            for i in range(len(row) - 1, 0, -1):
                for j in range(i - 1, len(row) - 1):
                    row[j] += u * row[j + 1]
            for j, c in enumerate(row):
                out[(j << _SX) | rest] = (c - minus * start[j]) * qq[j]
        return Poly._make(out, self._den * qq[deg])

    def delta(self) -> "Poly":
        """Forward difference in x: p(x+1) - p(x)."""
        return self._translate(1, 1)

    def nabla(self) -> "Poly":
        """Backward difference in x: p(x) - p(x-1)."""
        return -self._translate(-1, 1)

    # -- rendering -----------------------------------------------------------

    def _render(self, sep: str, power: str, fraction: str) -> str:
        # The one term renderer: sep joins factors, power formats v^e from
        # (name, e) and fraction formats a magnitude from (top, bottom).
        if not self._terms:
            return "0"
        den = self._den
        monomials = _MONOMIALS.setdefault((sep, power), {})
        parts: list[str] = []
        for key, num in self._ordered():
            mono = monomials.get(key)
            if mono is None:
                factors = []
                for shift, name in _PRINT_ORDER:
                    e = (key >> shift) & _MASK
                    if e:
                        factors.append(name if e == 1 else power.format(name, e))
                mono = monomials[key] = sep.join(factors)
            g = gcd(num, den)
            top, bottom = abs(num) // g, den // g
            mag = str(top) if bottom == 1 else fraction.format(top, bottom)
            if not mono:
                body = mag
            elif top == bottom == 1:
                body = mono
            else:
                body = f"{mag}{sep}{mono}"
            if not parts:
                parts.append(f"-{body}" if num < 0 else body)
            else:
                parts.append(f" - {body}" if num < 0 else f" + {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self._render("*", "{}^{}", "{}/{}")

    def latex(self) -> str:
        """LaTeX form of the canonical rendering, in the same term order."""
        return self._render(" ", "{}^{{{}}}", "\\frac{{{}}}{{{}}}")

    def __repr__(self) -> str:
        return f"Poly('{self}')"


def sum_products(pairs: Iterable[tuple["Poly | RationalLike", "Poly | RationalLike"]]) -> Poly:
    """sum of p * q over the pairs, each factor a Poly, an int or a Fraction.

    Every product is accumulated into one dict over the common denominator,
    the lcm of the d_p * d_q; the guard bits are checked once over all keys
    and the result is canonicalized once, by a single ``Poly._make``.
    """
    factors = []
    for p, q in pairs:
        if not isinstance(p, Poly):
            p = Poly.const(p)
        if not isinstance(q, Poly):
            q = Poly.const(q)
        if p._terms and q._terms:
            # the shorter factor drives the outer loop
            if len(p._terms) > len(q._terms):
                p, q = q, p
            factors.append((p, q, p._den * q._den))
    if not factors:
        return Poly._raw({})
    den = lcm(*(d for _, _, d in factors))
    out: dict[int, int] = {}
    get = out.get
    for p, q, d in factors:
        scale = den // d
        items = q._terms.items()
        for k1, c1 in p._terms.items():
            c1 *= scale
            for k2, c2 in items:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    if reduce(or_, out) & _GUARD:
        raise ValueError(f"product exponent reaches {EXPONENT_LIMIT}")
    return Poly._make(out, den)


def horner_x(polys: Sequence[Poly], factors: Sequence[tuple[RationalLike, RationalLike]]) -> Poly:
    """P_0 + f_1 (P_1 + f_2 (... + f_m P_m)) with f_r = c_r + d_r x, where
    ``polys`` is P_0..P_m and ``factors`` is (c_1, d_1)..(c_m, d_m).

    Each step is one pass over integer numerators: with f_r = (u + v x) / q,
    the running sum is scaled by u, shifted up one power of x and scaled by
    v, and P_{r-1} is added over the common denominator.  Every key formed
    stays until the end, zero or not, and x is the top key field, so the
    largest key holds the largest x exponent formed: the guard is checked on
    it once and the result is canonicalized once, by a single ``Poly._make``.
    """
    if len(polys) != len(factors) + 1:
        raise ValueError("horner_x needs one polynomial more than factors")
    out, den = polys[-1]._terms, polys[-1]._den
    for p, (c, d) in zip(reversed(polys[:-1]), reversed(factors)):
        c, d = _rational(c), _rational(d)
        q = lcm(c.denominator, d.denominator)
        scaled = den * q
        total = lcm(scaled, p._den)
        s = total // scaled
        u, v = c.numerator * (q // c.denominator) * s, d.numerator * (q // d.denominator) * s
        sp = total // p._den
        acc = dict(p._terms) if sp == 1 else {k: n * sp for k, n in p._terms.items()}
        get = acc.get
        if v:
            for k, n in out.items():
                acc[k] = get(k, 0) + u * n
                k += _X1
                acc[k] = get(k, 0) + v * n
        else:
            for k, n in out.items():
                acc[k] = get(k, 0) + u * n
        out, den = acc, total
    if out and max(out) >> _SX >= EXPONENT_LIMIT:
        raise ValueError(f"Horner step exponent reaches {EXPONENT_LIMIT}")
    return Poly._make(out, den)


X = Poly.variable(Var.X)
A = Poly.variable(Var.A)
N = Poly.variable(Var.N)
