"""Reference kernel for the tests: sparse Q[x, a, N] with one Fraction per term.

This is the straightforward representation the integer kernel of
``charlier.polynomials`` replaced: a dict from exponent triples to
``fractions.Fraction``, Δ and ∇ as a shift followed by a subtraction.  It is
slow and obviously right, and the property tests require the kernel to match
it operation by operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, Union

from charlier.polynomials import Var

RationalLike = Union[int, Fraction]
Exponent = tuple[int, int, int]

_VAR_NAMES = {Var.X: "x", Var.A: "a", Var.N: "N"}
_PRINT_ORDER = (Var.A, Var.N, Var.X)
_F0 = Fraction(0)


class RefPoly:
    """A sparse element of Q[x, a, N], one Fraction per term."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, RationalLike] | None = None) -> None:
        data: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                ex, ea, en = exp
                if ex < 0 or ea < 0 or en < 0:
                    raise ValueError(f"negative exponent {exp!r}")
                c = Fraction(coeff)
                if c:
                    data[ex, ea, en] = data.get((ex, ea, en), _F0) + c
        self._terms = {e: c for e, c in data.items() if c}

    @classmethod
    def _raw(cls, data: dict[Exponent, Fraction]) -> "RefPoly":
        # Trusted constructor: data must already be canonical.
        p = object.__new__(cls)
        p._terms = data
        return p

    @classmethod
    def const(cls, value: RationalLike) -> "RefPoly":
        c = Fraction(value)
        return cls._raw({(0, 0, 0): c} if c else {})

    @classmethod
    def variable(cls, v: Var) -> "RefPoly":
        exp = [0, 0, 0]
        exp[v.value] = 1
        return cls._raw({(exp[0], exp[1], exp[2]): Fraction(1)})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> tuple[tuple[Exponent, Fraction], ...]:
        """Terms in descending graded-lex order (total degree, then exponents)."""
        return tuple(
            sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        )

    def degree_in(self, v: Var) -> int:
        """Largest exponent of v, or -1 for the zero polynomial."""
        if not self._terms:
            return -1
        i = v.value
        return max(exp[i] for exp in self._terms)

    def coeff_of(self, v: Var, k: int) -> "RefPoly":
        """Coefficient of v**k, a polynomial in the remaining variables."""
        if k < 0:
            raise ValueError("power must be nonnegative")
        i = v.value
        out: dict[Exponent, Fraction] = {}
        for exp, c in self._terms.items():
            if exp[i] == k:
                key = exp[:i] + (0,) + exp[i + 1 :]
                out[key] = out.get(key, _F0) + c
        return RefPoly._raw({e: c for e, c in out.items() if c})

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; raises if any variable occurs."""
        if not self._terms:
            return _F0
        if len(self._terms) == 1 and (0, 0, 0) in self._terms:
            return self._terms[0, 0, 0]
        raise ValueError("polynomial is not constant")

    def evaluate(
        self,
        x: RationalLike = 0,
        a: RationalLike = 0,
        n: RationalLike = 0,
    ) -> Fraction:
        """Exact value at a rational point (x, a, N)."""
        vals = (Fraction(x), Fraction(a), Fraction(n))
        total = _F0
        for (ex, ea, en), c in self._terms.items():
            total += c * vals[0] ** ex * vals[1] ** ea * vals[2] ** en
        return total

    # -- ring operations ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RefPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == RefPoly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        # Constants hash like the number they equal, so RefPoly.const(2) == 2
        # stays consistent with hashing.
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and (0, 0, 0) in self._terms:
            return hash(self._terms[0, 0, 0])
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "RefPoly":
        return RefPoly._raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "Poly | RationalLike") -> "RefPoly":
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(other)
        elif not isinstance(other, RefPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, _F0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return RefPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other: "Poly | RationalLike") -> "RefPoly":
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(other)
        elif not isinstance(other, RefPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "RefPoly":
        return RefPoly.const(other) + (-self)

    def __mul__(self, other: "Poly | RationalLike") -> "RefPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return RefPoly._raw({})
            return RefPoly._raw({e: v * c for e, v in self._terms.items()})
        if not isinstance(other, RefPoly):
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        get = out.get
        for (x1, a1, n1), c1 in self._terms.items():
            for (x2, a2, n2), c2 in other._terms.items():
                key = (x1 + x2, a1 + a2, n1 + n2)
                prev = get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
        return RefPoly._raw({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "RefPoly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

    def __pow__(self, k: int) -> "RefPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = RefPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- substitutions and the difference calculus --------------------------

    def substitute(self, v: Var, value: RationalLike) -> "RefPoly":
        """Replace the variable v by a rational constant."""
        val = Fraction(value)
        i = v.value
        out: dict[Exponent, Fraction] = {}
        for exp, coeff in self._terms.items():
            e = exp[i]
            c = coeff * val**e if e else coeff
            key = exp[:i] + (0,) + exp[i + 1 :]
            out[key] = out.get(key, _F0) + c
        return RefPoly._raw({e: c for e, c in out.items() if c})

    def negate_var(self, v: Var) -> "RefPoly":
        """Replace v by -v: flip the sign of terms with odd exponent of v."""
        i = v.value
        return RefPoly._raw(
            {e: -c if e[i] % 2 else c for e, c in self._terms.items()}
        )

    def shift_x(self, offset: RationalLike) -> "RefPoly":
        """Substitute x -> x + offset, expanded exactly by the binomial theorem."""
        c = Fraction(offset)
        if not c or not self._terms:
            return self
        out: dict[Exponent, Fraction] = {}
        for (ex, ea, en), coeff in self._terms.items():
            if ex == 0:
                key = (0, ea, en)
                out[key] = out.get(key, _F0) + coeff
                continue
            power = Fraction(1)
            powers = [power]
            for _ in range(ex):
                power *= c
                powers.append(power)
            for j in range(ex + 1):
                key = (j, ea, en)
                out[key] = out.get(key, _F0) + coeff * comb(ex, j) * powers[ex - j]
        return RefPoly._raw({e: v for e, v in out.items() if v})

    def delta(self) -> "RefPoly":
        """Forward difference in x: p(x+1) - p(x)."""
        return self.shift_x(1) - self

    def nabla(self) -> "RefPoly":
        """Backward difference in x: p(x) - p(x-1)."""
        return self - self.shift_x(-1)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp, coeff in self.terms():
            mono = "*".join(
                _VAR_NAMES[v] if exp[v.value] == 1 else f"{_VAR_NAMES[v]}^{exp[v.value]}"
                for v in _PRINT_ORDER
                if exp[v.value]
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"RefPoly('{self}')"
