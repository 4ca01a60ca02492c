"""The classical Charlier family and its identity toolbox.

``charlier(n)`` is the degree-n orthogonal polynomial for the Poisson-type
weight with parameter a, normalized so the leading x-coefficient is 1/n!.
The index -1 is legal and names the zero polynomial, which keeps the
recurrences used downstream free of special cases.

Alongside the family this module carries the helpers everything else leans
on: both routes to C_n(x-1), the Laguerre polynomials with a symbolic
parameter, the moment functional of the weight (Stirling-number closed form)
and the moment rows of C_n(x) and C_n(x-1), exact checks of the classical
identities (lowering, the second order difference equation, convolution,
shift expansions, value formulas), and the one home of the route lemmas.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import factorial
from typing import Callable, Sequence

from .polynomials import A, Poly, RationalLike, Var, X, _rational, parity_sign, sum_products


# binom(x, k) for k < len(_BINOMIALS), extended upward by binom_poly.
_BINOMIALS = [Poly.const(1)]


def binom_poly(k: int) -> Poly:
    """binom(x, k) as the falling-factorial polynomial x(x-1)...(x-k+1)/k!.

    The basis is built once, upward from binom(x, 0) = 1 by
    binom(x, j) = binom(x, j-1) * (x-j+1)/j, in a loop, so no k recurses.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    basis = _BINOMIALS
    while len(basis) <= k:
        j = len(basis)
        basis.append(basis[-1] * (X - (j - 1)) / j)
    return basis[k]


# Typed caches, here and in charlier_at: a float never reads the entry of an
# equal int or Fraction, so it still reaches substitute and raises TypeError.
@lru_cache(maxsize=None, typed=True)
def binom_rational(p: RationalLike, k: int) -> Fraction:
    """binom(p, k) for arbitrary rational p: binom_poly(k) at x = p, once per (p, k)."""
    return binom_poly(k).substitute(Var.X, p).constant_value()


@cache
def charlier(n: int) -> Poly:
    """Degree-n member of the family; n = -1 gives the zero polynomial.

    charlier(n) = sum_{k=0}^{n} binom(x, k) (-a)^(n-k) / (n-k)!.
    """
    if n < -1:
        raise ValueError("index must be >= -1")
    if n == -1:
        return Poly()
    return sum_products(
        (binom_poly(k), A ** (n - k) * Fraction(parity_sign(n - k), factorial(n - k)))
        for k in range(n + 1)
    )


@lru_cache(maxsize=None, typed=True)
def charlier_at(n: int, point: RationalLike) -> Poly:
    """C_n(point), charlier(n) at x = point: a polynomial in a, built once per
    (n, point).  The one place a member of the family is evaluated in x."""
    return charlier(n).substitute(Var.X, point)


@cache
def _lowered(k: int, by: int) -> Poly:
    """C_k(x - by) for by >= 0 with C_k = charlier(k), by lowering.

    Delta C_k = C_{k-1} gives C_k(x - by) = C_k(x - by + 1) - C_{k-1}(x - by),
    so each piece is one addition of two cached pieces and no shift_x.
    """
    if by == 0 or k < 0:
        return charlier(k)
    for j in range(k):  # lower indices first, so no call recurses deeper
        _lowered(j, by)
    return _lowered(k, by - 1) - _lowered(k - 1, by)


@cache
def shifted_charlier(n: int) -> Poly:
    """C_n(x-1) by shift_x, the second classical piece of the point-mass
    family; the lemma "piece at x-1" ties it to _lowered(n, 1)."""
    return charlier(n).shift_x(-1)


@cache
def _exp_coeff(m: int) -> Poly:
    """a^m / m!, the t^m coefficient of e^(at)."""
    return Poly({(0, m, 0): Fraction(1, factorial(m))})


def charlier_mirror(n: int) -> Poly:
    """charlier(n) with both the parameter a and the argument x negated."""
    return charlier(n).negate_var(Var.A).negate_var(Var.X)


def value_at_zero(n: int) -> Poly:
    """Closed form of charlier(n) at x = 0: (-a)^n / n!."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return A**n * Fraction(parity_sign(n), factorial(n))


def value_at_minus_one(n: int) -> Poly:
    """Closed form at x = -1: (-1)^n times the partial sum of a^k/k!, k <= n."""
    if n < 0:
        raise ValueError("index must be >= 0")
    s = parity_sign(n)
    return Poly({(0, k, 0): Fraction(s, factorial(k)) for k in range(n + 1)})


def laguerre(n: int, alpha: Poly | RationalLike, t: Var) -> Poly:
    """Degree-n Laguerre polynomial in the variable t with parameter alpha.

    alpha may be any polynomial not involving t, so connection formulas with
    a polynomial parameter stay exact.  The t^k term is (-1)^k t^k / (k! (n-k)!)
    times (alpha+k+1)...(alpha+n), one rising product built from k = n down.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if not isinstance(alpha, Poly):
        alpha = Poly.const(alpha)
    if alpha.degree_in(t) > 0:
        raise ValueError("alpha must not involve t")
    tv = Poly.variable(t)
    rising = Poly.const(1)
    pairs = [(rising, tv**n * Fraction(parity_sign(n), factorial(n)))]
    for k in range(n - 1, -1, -1):
        rising = rising * (alpha + (k + 1))
        pairs.append((rising, tv**k * Fraction(parity_sign(k), factorial(k) * factorial(n - k))))
    return sum_products(pairs)


# -- identity checks ---------------------------------------------------------


def verify_laguerre_relation(n: int) -> bool:
    """charlier(n) equals the Laguerre polynomial in a with parameter x - n."""
    return charlier(n) == laguerre(n, X - n, Var.A)


def verify_lowering(n: int) -> bool:
    """The forward difference sends charlier(n) to charlier(n-1)."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return charlier(n).delta() == charlier(n - 1)


def second_order_residual(n: int) -> Poly:
    """a*y(x+1) + (n-a-x)*y(x) + x*y(x-1) at y = charlier(n); identically zero."""
    y = charlier(n)
    return A * y.shift_x(1) + (n - A - X) * y + X * y.shift_x(-1)


def verify_second_order(n: int) -> bool:
    return not second_order_residual(n)


def shift_identity_residual(n: int, p: RationalLike) -> Poly:
    """charlier(n) at x + p minus its expansion sum binom(p, k) charlier(n-k)."""
    p = _rational(p)
    rhs = sum_products((charlier(n - k), binom_rational(p, k)) for k in range(n + 1))
    return charlier(n).shift_x(p) - rhs


def verify_shift_identity(n: int, p: RationalLike) -> bool:
    return not shift_identity_residual(n, p)


def convolution_residual(i: int, j: int) -> Poly:
    """sum_k charlier(i-k) * charlier_mirror(k-j), minus the Kronecker delta.

    Reindexed by k - j, the sum is term for term sum_{k<=m} charlier(m-k) *
    charlier_mirror(k) with m = i - j, so it is summed in that form.
    """
    if not 0 <= j <= i:
        raise ValueError("need 0 <= j <= i")
    m = i - j
    total = sum_products((charlier(m - k), charlier_mirror(k)) for k in range(m + 1))
    return total - (1 if m == 0 else 0)


def verify_convolution(i: int, j: int) -> bool:
    return not convolution_residual(i, j)


def verify_inverse_matrix(n: int) -> bool:
    """The unit triangular matrices with entries charlier(i-j) and
    charlier_mirror(i-j) multiply to the identity: entry (i, j <= i) is
    convolution_residual(i, j) + delta_ij, and above the diagonal it is 0.
    Entry (i, j) depends on i - j alone, so n sums, at (m, 0), cover all."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return all(not convolution_residual(m, 0) for m in range(n))


def verify_value_formulas(n: int) -> bool:
    """Substitution into charlier(n) reproduces both closed-form values."""
    return charlier_at(n, 0) == value_at_zero(n) and charlier_at(n, -1) == value_at_minus_one(n)


def verify_value_difference(n: int) -> bool:
    """C_n(0) - C_n(-1) equals C_{n-1}(-1), as polynomials in a."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return charlier_at(n, 0) - charlier_at(n, -1) == charlier_at(n - 1, -1)


# -- the moment functional ---------------------------------------------------


_STIRLING2 = [[1]]  # the highest row built so far


def stirling2_row(k: int) -> list[int]:
    """S(k, j) for j = 0..k: a copy of the highest row built so far, extended
    upward, or built from S(0, 0) = 1 below it (all rows to 1500 take 0.7 GB)."""
    if k < 0:
        raise ValueError("row index must be >= 0")
    row = _STIRLING2[0] if len(_STIRLING2[0]) <= k + 1 else [1]
    for _ in range(len(row) - 1, k):
        row = [j * s + t for j, (s, t) in enumerate(zip(row + [0], [0] + row))]
    _STIRLING2[0] = max(row, _STIRLING2[0], key=len)
    return list(row)


def stirling2(k: int, j: int) -> int:
    """Partitions of a k-set into j nonempty blocks."""
    return stirling2_row(k)[j] if 0 <= j <= k else 0


@cache
def moment(k: int) -> Poly:
    """k-th moment of the unit-mass Poisson-type weight, as a polynomial in a."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return Poly({(0, j, 0): s for j, s in enumerate(stirling2_row(k))})


def moments_of(q: Poly, size: int) -> list[Poly]:
    """The moment vector of q: the pairings <x^j, q> for j < size.

    Entry j sends the x^k coefficient of q to moment(j + k), so pairing any p
    of x-degree below size with q is a dot product with this vector.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    columns = [q.coeff_of(Var.X, k) for k in range(q.degree_in(Var.X) + 1)]
    return [
        sum_products((c, moment(j + k)) for k, c in enumerate(columns))
        for j in range(size)
    ]


def dot_moments(p: Poly, vector: Sequence[Poly]) -> Poly:
    """<p, q> from the moment vector of q: sum_j [x^j]p * vector[j].  A zero
    entry costs one test, with no product and no scan for [x^j]p."""
    return sum_products(
        (p.coeff_of(Var.X, j), v) for j in range(p.degree_in(Var.X) + 1) if (v := vector[j])
    )


def inner_product_classical(p: Poly, q: Poly) -> Poly:
    """Bilinear moment functional sending x^k to moment(k), evaluated as the
    dot product of p's x-coefficients with the moment vector of q."""
    return dot_moments(p, moments_of(q, p.degree_in(Var.X) + 1))


@cache
def _row_factors(n: int) -> tuple[Fraction, Poly, Poly]:
    """1/n, -(a+n-1)/n and -a/n: the factors of r_{n-1}[j+1], r_{n-1}[j] and
    r_{n-2}[j] in r_n[j]."""
    return Fraction(1, n), (A + (n - 1)) * Fraction(-1, n), A * Fraction(-1, n)


@cache
def _row_entry(n: int, j: int) -> Poly:
    """r_n[j] = <x^j, charlier(n)>, zero for n = -1; see moment_row."""
    if n <= 0:
        return moment(j) if n == 0 else Poly()
    entries = _row_entry(n - 1, j + 1), _row_entry(n - 1, j), _row_entry(n - 2, j)
    return sum_products(zip(entries, _row_factors(n)))


def moment_row(n: int, size: int) -> list[Poly]:
    """<x^j, charlier(n)> for j < size, from the three-term recurrence.

    n C_n = (x - a - n + 1) C_{n-1} - a C_{n-2} lifts to the entries
    r_n[j] = (r_{n-1}[j+1] - (a+n-1) r_{n-1}[j] - a r_{n-2}[j]) / n, from
    r_0[j] = moment(j), so row n to size s reads row n-k to size s + k.  Each
    entry is cached once, so its value does not depend on how far any row
    reaches; rows below n are filled first, so no entry recurses.
    """
    if n < 0 or size < 0:
        raise ValueError("row index and size must be >= 0")
    for k in range(n):
        for j in range(size + n - k):
            _row_entry(k, j)
    return [_row_entry(n, j) for j in range(size)]


@cache
def _shifted_entry(n: int, j: int) -> Poly:
    """s_n[j] = <x^j, C_n(x-1)>; see shifted_moment_row."""
    return _row_entry(n, j) - _shifted_entry(n - 1, j) if n else _row_entry(0, j)


def shifted_moment_row(n: int, size: int) -> list[Poly]:
    """<x^j, C_n(x-1)> for j < size, with C_n(x-1) the lowered piece.

    The lowered pieces obey C_n(x-1) = C_n(x) - C_{n-1}(x-1), so each entry is
    one subtraction, s_n[j] = r_n[j] - s_{n-1}[j] over the entries r_n[j] of
    moment_row.  Each entry is cached once; the rows r and then the rows s
    below n are filled first, so none recurses.
    """
    moment_row(n, size)
    for k in range(n):
        for j in range(size):
            _shifted_entry(k, j)
    return [_shifted_entry(n, j) for j in range(size)]


@cache
def moment_vector(n: int) -> tuple[Poly, ...]:
    """<x^j, charlier(n)> for j = 0..n: the first n + 1 entries of row n."""
    row = moment_row(n, n + 1)
    require("row recurrence", n)
    return tuple(row)


def orthogonality_residual(m: int, n: int) -> Poly:
    """inner product of charlier(m), charlier(n) minus its closed form,
    paired through the moment vector of the higher degree."""
    if m < 0 or n < 0:
        raise ValueError("indices must be >= 0")
    expected = A**n * Fraction(1, factorial(n)) if m == n else Poly()
    low, high = sorted((m, n))
    return dot_moments(charlier(low), moment_vector(high)) - expected


# -- the lemmas the fast routes rest on ---------------------------------------


@cache
def _lowering(k: int) -> bool:
    """C_k(x+1) = C_k(x) + C_{k-1}(x), that is Delta C_k = C_{k-1}: read
    through shift_x, not through the Poly.delta the difference chains use."""
    return charlier(k).shift_x(1) == charlier(k) + charlier(k - 1)


@cache
def _binom_identity(r: int) -> bool:
    """sum_{m<=r} (a^m / m!) C_{r-m} = binom(x, r): the t^r coefficient of
    e^(at) G = (1 + t)^x, where G = e^(-at) (1 + t)^x generates the C_n."""
    return sum_products((_exp_coeff(m), charlier(r - m)) for m in range(r + 1)) == binom_poly(r)


@cache
def _row_recurrence(n: int) -> bool:
    """n C_n = (x - a - n + 1) C_{n-1} - a C_{n-2} for n >= 1, and C_0 = 1."""
    if n == 0:
        return charlier(0) == 1
    lifted = sum_products([(X - A - (n - 1), charlier(n - 1)), (-A, charlier(n - 2))])
    return charlier(n) * n == lifted


def _piece_at_minus_one(k: int) -> bool:
    """The piece C_k(x-1) every route reads, shifted_charlier(k) by shift_x,
    equals the lowered piece _lowered(k, 1), built from charlier alone.  Not
    cached: it compares two cached pieces, and the first one's binding may be
    replaced."""
    return shifted_charlier(k) == _lowered(k, 1)


# Each lemma a fast route rests on, by name; every predicate takes one index.
LEMMAS: dict[str, Callable[[int], bool]] = {
    "lowering": _lowering,
    "piece at x-1": _piece_at_minus_one,
    "binom identity": _binom_identity,
    "row recurrence": _row_recurrence,
}


def require(lemma: str, k: int) -> None:
    """Raise ArithmeticError, naming the lemma and k, unless LEMMAS[lemma]
    holds at index k.

    A route calls this for the index its step reads, inside the case that
    reads it, so a failed lemma fails that case through the suite runner.
    """
    if not LEMMAS[lemma](k):
        raise ArithmeticError(f"lemma {lemma!r} fails at index {k}")
