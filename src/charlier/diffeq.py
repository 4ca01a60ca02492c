"""The difference equation of the point-mass family and its coefficients.

The point-mass polynomials are eigenfunctions of an operator of the shape

    N * sum_{i>=0} ai(x) Delta^i  +  x Delta Nabla  +  (a - x) Delta  +  n,

where the coefficients ``ai`` for i >= 1 are polynomials in x and a that do
not depend on the degree n, and the order-zero coefficient ``a0`` is a
polynomial in a depending on n only.  For nonzero mass the operator has
unbounded order, yet it acts exactly on polynomials: terms of total order
above the x-degree of the argument annihilate it, so every series here is a
finite sum with no truncation error.  On a Charlier piece the mass operator
is a short sum over the a_i, by lowering (Delta C_n = C_{n-1}) and the
other lemmas of ``classical.require``.  Every other operator reads its
differences from one chain y, Delta y, Delta^2 y, ... of its argument, and
``OperatorActions`` builds each chain and each operator action of a verify
run once for all the identities that read it.

This module builds the coefficient families, assembles the equation, and
certifies the structural facts about the coefficients (vanishing at x = 0,
degree bounds in x and a, leading coefficients in both variables, uniqueness
through forward substitution, and the mixed forward/backward variants).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Callable, Iterable, NamedTuple

from .classical import _exp_coeff, _lowered, charlier, charlier_at, laguerre, require
from .pointmass import shifted_charlier, through_pieces
from .polynomials import A, N, Poly, Var, X, horner_x, parity_sign, sum_products

CoeffProvider = Callable[[int], Poly]


# -- difference operators ----------------------------------------------------


class DiffTerm(NamedTuple):
    """coeff * Delta^delta_order Nabla^nabla_order."""

    coeff: Poly
    delta_order: int
    nabla_order: int


class DifferenceChain:
    """y, Delta y, Delta^2 y, ...: each power built once, on first use.

    Powers above the x-degree of y are the zero polynomial and are never
    built.  An operator applied to a chain reads the powers it needs from it,
    so operators applied to the same argument share one chain.
    """

    __slots__ = ("degree", "_powers")

    def __init__(self, y: Poly) -> None:
        self.degree = y.degree_in(Var.X)
        self._powers = [y]

    @classmethod
    def of(cls, y: "Poly | DifferenceChain") -> "DifferenceChain":
        return y if isinstance(y, DifferenceChain) else cls(y)

    def __getitem__(self, order: int) -> Poly:
        if order < 0:
            raise ValueError("difference orders must be nonnegative")
        if order > self.degree:
            return Poly()
        powers = self._powers
        while len(powers) <= order:
            powers.append(powers[-1].delta())
        return powers[order]


class DiffOperator:
    """Finite linear combination of mixed forward and backward differences."""

    __slots__ = ("terms",)

    def __init__(self, items: Iterable[tuple[Poly, int, int]]) -> None:
        merged: dict[tuple[int, int], Poly] = {}
        for coeff, d, m in items:
            if d < 0 or m < 0:
                raise ValueError("difference orders must be nonnegative")
            key = (d, m)
            merged[key] = merged.get(key, Poly()) + coeff
        self.terms = tuple(
            DiffTerm(c, d, m) for (d, m), c in sorted(merged.items()) if c
        )

    def apply(self, y: "Poly | DifferenceChain") -> Poly:
        """Apply to a polynomial, or to the difference chain of one.

        Every term reads one power of the forward chain of y: Delta and
        Nabla commute, so Delta^d Nabla^m y is Nabla^m (Delta^d y).  The
        chain gives the zero polynomial for an order above deg_x(y), and
        sum_products drops its product, which is what makes unbounded-order
        operators act as finite sums on polynomials.
        """
        chain = DifferenceChain.of(y)
        pairs = []
        for term in self.terms:
            z = chain[term.delta_order]
            for _ in range(term.nabla_order):
                z = z.nabla()
            pairs.append((term.coeff, z))
        return sum_products(pairs)


def classical_operator(n: int) -> DiffOperator:
    """x Delta Nabla + (a - x) Delta + n, which annihilates charlier(n)."""
    return DiffOperator([(X, 1, 1), (A - X, 1, 0), (Poly.const(n), 0, 0)])


def backshift_operator(order: int) -> DiffOperator:
    """sum_{i=0}^{order} (-1)^i Delta^i, the backward shift y(x) -> y(x-1) on
    polynomials of x-degree at most order."""
    return DiffOperator((Poly.const(parity_sign(i)), i, 0) for i in range(order + 1))


def classical_series_operator(n: int) -> DiffOperator:
    """x sum_{i=1}^{n} (-1)^i Delta^i + a Delta + n: the classical operator
    with x Delta Nabla - x Delta = -x Nabla expanded as the alternating series,
    exact on polynomials of x-degree at most n."""
    items = [(X * parity_sign(i), i, 0) for i in range(1, n + 1)]
    return DiffOperator(items + [(A, 1, 0), (Poly.const(n), 0, 0)])


# -- the coefficient families ------------------------------------------------


@cache
def coeff_a0(n: int) -> Poly:
    """Order-zero coefficient for degree n: a polynomial in a alone.

    Equals (-1)^(n-1) charlier(n-1) evaluated at x = -2; zero at n = 0.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    return charlier_at(n - 1, -2) * parity_sign(n - 1)


@cache
def _bracket(k: int) -> Poly:
    """B_k = (-1)^k [C_k(-1) C_k(x-2) - C_k(-2) C_k(x-1)] with C_k = charlier(k).

    B_0 = 0 and B_k = -(a/k) B_{k-1} + ((-1)^k / k) C_{k-1}(-2) x C_{k-1}(x-2):
    Christoffel-Darboux at (x - 2, -2) gives B_k = (-1)^k x E_k / k! for the
    kernel sums E_k = a E_{k-1} + (k-1)! C_{k-1}(-2) C_{k-1}(x-2), and putting
    the first relation into the second removes E_k.
    """
    if k < 1:
        return Poly()
    # Built from the lowered pieces, not pointmass.shifted_charlier(k): every
    # a_i with i >= k reads this bracket, so a wrong shared piece would fail
    # far from its own index.
    for j in range(1, k):  # lower orders first, so no call recurses deeper
        _bracket(j)
    m = k - 1
    at_minus_two = charlier_at(m, -2) * Fraction(parity_sign(k), k)
    return sum_products([(A * Fraction(-1, k), _bracket(m)), (X * at_minus_two, _lowered(m, 2))])


@cache
def _bracket_sum(j: int) -> Poly:
    """D_j = sum_{k=1}^{j} binom(1 - x, j - k) B_k with B_k = ``_bracket(k)``.

    binom(1 - x, r) = binom(1 - x, r - 1) (2 - r - x) / r, so D_j is the
    Horner sum B_j + f_1 (B_{j-1} + f_2 (... + f_{j-1} B_1)) with
    f_r = (2 - r - x) / r: one pass per step and one canonicalization.
    """
    return horner_x(
        [_bracket(k) for k in range(j, 0, -1)],
        [(Fraction(2 - r, r), Fraction(-1, r)) for r in range(1, j)],
    )


@cache
def coeff_ai(i: int) -> Poly:
    """Coefficient of the i-th forward difference, i >= 1; independent of n.

    The convolution sum_{k=1}^{i} M_{i-k}(x) B_k(x) of the brackets
    B_k = ``_bracket(k)`` with the fronts M_j = C_j(1 - x; -a), the t^j
    coefficients of e^(at) (1 + t)^(1-x).  Splitting each front as
    M_j = sum_m (a^m / m!) binom(1 - x, j - m) factors the convolution into
    sum_{m=0}^{i-1} (a^m / m!) D_{i-m}, where D_j = ``_bracket_sum(j)`` is
    built once and shared by every order that reads it, and each product
    here is by a single monomial.  The tables, the coefficient checks and
    the mass sums (``_series_sum``) all read this one route.
    """
    if i < 1:
        raise ValueError("order must be >= 1")
    return sum_products((_exp_coeff(m), _bracket_sum(i - m)) for m in range(i))


@cache
def _series_sum(j: int) -> Poly:
    """D'_j = sum_{m<j} ((-a)^m / m!) coeff_ai(j - m), equal to ``_bracket_sum(j)``."""
    return sum_products((_exp_coeff(m) * parity_sign(m), coeff_ai(j - m)) for m in range(j))


@cache
def _mass_sum(n: int) -> Poly:
    """S_n = sum_{i=1}^{n} coeff_ai(i) C_{n-i}: with Delta^i C_n = C_{n-i},
    the mass action on C_n less its order-zero term.

    The lemma "binom identity" at r < n, sum_{m<=r} (a^m / m!) C_{r-m} =
    binom(x, r), inverts to C_r = sum_m ((-a)^m / m!) binom(x, r-m), so S_n
    is sum_{j=1}^{n} D'_j binom(x, n-j) over D'_j = ``_series_sum(j)``, one
    Horner sum, as binom(x, r) = binom(x, r-1) (x - r + 1) / r.
    """
    if n < 1:
        return Poly()
    return horner_x(
        [_series_sum(j) for j in range(n, 0, -1)],
        [(Fraction(1 - r, r), Fraction(1, r)) for r in range(1, n)],
    )


@cache
def _shifted_mass_sum(n: int) -> Poly:
    """T_n = sum_{i=1}^{n} coeff_ai(i) P_{n-i} over the lowered pieces
    P_k = C_k(x-1) = C_k(x) - C_{k-1}(x-1), so T_n = S_n - T_{n-1}."""
    if n < 1:
        return Poly()
    for m in range(1, n):  # lower degrees first, so no call recurses deeper
        _shifted_mass_sum(m)
    return _mass_sum(n) - _shifted_mass_sum(n - 1)


class CoeffTable(NamedTuple):
    """Both coefficient families: a0 keyed by degree n, ai keyed by order i."""

    a0: dict[int, Poly]
    ai: dict[int, Poly]


def build_coeff_table(max_i: int) -> CoeffTable:
    if max_i < 1:
        raise ValueError("max_i must be >= 1")
    return CoeffTable(
        a0={n: coeff_a0(n) for n in range(max_i + 1)},
        ai={i: coeff_ai(i) for i in range(1, max_i + 1)},
    )


def mass_operator(n: int, order: int, coeffs: CoeffProvider = coeff_ai) -> DiffOperator:
    """sum_{i=0}^{order} ai Delta^i with the degree-n order-zero coefficient."""
    items = [(coeff_a0(n), 0, 0)]
    items.extend((coeffs(i), i, 0) for i in range(1, order + 1))
    return DiffOperator(items)


# -- operator actions shared within one run ---------------------------------

@cache
def _at_x_minus_two(k: int) -> Poly:
    """C_k(x-2), by shift_x: the closed forms read no lowered piece."""
    return charlier(k).shift_x(-2)


def _piece(argument: str, n: int) -> tuple[Poly, int]:
    """(y, by) for the piece y = C_n(x - by) of gen_charlier(n) named
    "charlier" (by = 0) or "shifted" (by = 1)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if argument == "charlier":
        return charlier(n), 0
    if argument == "shifted":
        return shifted_charlier(n), 1
    raise ValueError(f"unknown argument {argument!r}")


def _mass_closed_form(n: int, point: int) -> Poly:
    """(-1)^(n-1) C_n(point) C_{n-1}(x-2)."""
    return charlier_at(n, point) * _at_x_minus_two(n - 1) * parity_sign(n - 1)


class OperatorActions:
    """Difference chains, operator actions and coefficient checks shared by
    the identities of one verify run.

    Each chain and each action of a degree-n operator is built once, on
    first use, and keyed by names and indices, never by a polynomial.  Only
    the two pieces of gen_charlier(n) have chains: ``mixed_difference``
    reads Delta^k Nabla^m charlier(n) as a power of the chain of charlier(n)
    at m = 0, and otherwise as Nabla^m C_{n-k}, built once per (n - k, m).
    This is the one place a coefficient provider enters:
    ``ai`` is ``coeffs``, or ``coeff_ai`` when none is given, and every mass
    operator and coefficient check here reads it, so an instance serves the
    one run it was made for.  The mass actions read no chain: they add the
    provider's departures from coeff_ai to the module's sums S_n and T_n,
    built from coeff_ai and shared by every instance.
    """

    def __init__(self, coeffs: CoeffProvider | None = None) -> None:
        self.ai: CoeffProvider = coeff_ai if coeffs is None else coeffs
        # Memos of this instance alone, so no run reads another's chains:
        # chain(argument, n) is the difference chain of the piece _piece names.
        self.chain: Callable[[str, int], DifferenceChain] = cache(
            lambda argument, n: DifferenceChain(_piece(argument, n)[0])
        )
        self.mixed_difference: Callable[[int, int, int], Poly] = cache(self._build_mixed)
        self._nabla_power: Callable[[int, int], Poly] = cache(self._build_nabla_power)
        self._action: Callable[[str, str, int], Poly] = cache(self._build_action)
        # ai(i) - coeff_ai(i): zero unless the provider changes a_i.
        self._departure: CoeffProvider = cache(lambda i: self.ai(i) - coeff_ai(i))

    def _mass_action(self, argument: str, n: int) -> Poly:
        """sum_{i=0}^{n} ai Delta^i y at y = C_n ("charlier") or C_n(x-1)
        ("shifted"): a0(n) y + S_n or T_n, plus sum_i (ai(i) - coeff_ai(i))
        Delta^i y, which is zero without a provider.

        Delta^i y = C_{n-i}(x - by) by lowering, once shifted_charlier(n) is
        the lowered piece at by = 1.  Step n reads these lemmas at n and the
        binom identity of S_n at n-1; the cases of lower degree check the
        lower indices.
        """
        y, by = _piece(argument, n)
        require("lowering", n)
        if n:
            require("binom identity", n - 1)
        if by:
            require("piece at x-1", n)
        pairs = [(coeff_a0(n), y), ((_shifted_mass_sum if by else _mass_sum)(n), 1)]
        if self.ai is not coeff_ai:
            pairs.extend((d, _lowered(n - i, by)) for i in range(1, n + 1) if (d := self._departure(i)))
        return sum_products(pairs)

    def _build_action(self, operator: str, argument: str, n: int) -> Poly:
        """The "mass" operator sum_{i=0}^{n} ai Delta^i (degree-n a0), the
        "series" classical_series_operator(n) or the "classical"
        classical_operator(n) applied to a piece, exact as deg_x is n; every
        operator is linear, so at gen_charlier(n) it is read through_pieces."""
        if argument == "generalized":
            at = self._action
            return through_pieces(n, at(operator, "charlier", n), at(operator, "shifted", n))
        if operator == "mass":
            return self._mass_action(argument, n)
        if operator == "series":
            return classical_series_operator(n).apply(self.chain(argument, n))
        return classical_operator(n).apply(self.chain(argument, n))

    def mass(self, argument: str, n: int) -> Poly:
        return self._action("mass", argument, n)

    def equation(self, n: int) -> Poly:
        """Left-hand side of the full equation at y = gen_charlier(n)."""
        return N * self.mass("generalized", n) + self._action("classical", "generalized", n)

    def mass_action_residual(self, n: int) -> Poly:
        return self.mass("charlier", n) - _mass_closed_form(n, 0)

    def mass_action_shifted_residual(self, n: int) -> Poly:
        return self.mass("shifted", n) - _mass_closed_form(n, -1)

    def mass_action_cross_residual(self, n: int) -> Poly:
        at_x, at_shifted = self.mass("charlier", n), self.mass("shifted", n)
        return charlier_at(n, -1) * at_x - charlier_at(n, 0) * at_shifted

    def classical_infinite_order_residual(self, n: int) -> Poly:
        return self._action("series", "charlier", n)

    def combined_equation_residual(self, n: int) -> Poly:
        return N * self.mass("generalized", n) + self._action("series", "generalized", n)

    def _build_mixed(self, n: int, k: int, m: int) -> Poly:
        """Delta^k Nabla^m charlier(n): a power of the chain of charlier(n)
        at m = 0, else Nabla^m C_{n-k}, as Delta^k C_n = C_{n-k} by lowering.

        Step n reads lowering at n; the cases of lower degree check the
        lower indices, as for the mass actions.
        """
        if k < 0 or m < 0:
            raise ValueError("difference orders must be nonnegative")
        if not m or k > n:  # also every k at n < 0, which the chain rejects
            return self.chain("charlier", n)[k]
        if k:
            require("lowering", n)
        return self._nabla_power(n - k, m)

    def _build_nabla_power(self, j: int, m: int) -> Poly:
        """Nabla^m charlier(j): Nabla of the value at m - 1."""
        if not m:
            return charlier(j)
        for lower in range(1, m):  # lower orders first, so no call recurses deeper
            self._nabla_power(j, lower)
        return self._nabla_power(j, m - 1).nabla()

    def verify_mixed_leading(self, i: int, k: int, n: int) -> bool:
        if not 0 <= k <= i <= n:
            raise ValueError("need 0 <= k <= i <= n")
        mixed = self.mixed_difference(n, k, i - k)
        pure = self.mixed_difference(n, i, 0)
        return mixed.coeff_of(Var.X, n - i) == pure.coeff_of(Var.X, n - i)

    def verify_leading_x(self, i: int) -> bool:
        h = self.ai(i).coeff_of(Var.X, i)
        if not h:
            return False
        if h != leading_x_closed_form(i) or h != leading_x_laguerre_form(i):
            return False
        return i < 2 or h == leading_x_laguerre_chain(i)

    def verify_degree_claims(self, i: int) -> bool:
        if i < 1:
            raise ValueError("order must be >= 1")
        ai = self.ai(i)
        if ai.substitute(Var.X, 0):
            return False
        if ai.degree_in(Var.X) > i:
            return False
        if ai.degree_in(Var.A) != 2 * i - 2:
            return False
        expected = X * Fraction(parity_sign(i), factorial(i) * factorial(i - 1))
        return ai.coeff_of(Var.A, 2 * i - 2) == expected

    def verify_degree_escalation(self, i: int) -> bool:
        return self.ai(i).degree_in(Var.X) >= i or self.ai(i + 1).degree_in(Var.X) == i + 1


# -- the equation itself -----------------------------------------------------


def apply_difference_equation(n: int, coeffs: CoeffProvider | None = None) -> Poly:
    """Left-hand side of the full equation at y = gen_charlier(n).

    The mass sum is truncated at order n, which is exact since the argument
    has x-degree n.  The contract is that the result is the zero polynomial
    in (x, a, N).
    """
    return OperatorActions(coeffs).equation(n)


def verify_difference_equation(n: int) -> bool:
    return not apply_difference_equation(n)


def mass_action_residual(n: int) -> Poly:
    """Action of the mass operator on charlier(n), minus its closed form
    (-1)^(n-1) C_n(0) C_{n-1}(x-2)."""
    return OperatorActions().mass_action_residual(n)


def mass_action_shifted_residual(n: int) -> Poly:
    """Same action on charlier(n) shifted by -1; closed form carries C_n(-1)."""
    return OperatorActions().mass_action_shifted_residual(n)


def mass_action_cross_residual(n: int) -> Poly:
    """C_n(-1) times the action at x, minus C_n(0) times the action at x-1."""
    return OperatorActions().mass_action_cross_residual(n)


def verify_mass_action(n: int) -> bool:
    return not mass_action_residual(n)


def verify_mass_action_shifted(n: int) -> bool:
    return not mass_action_shifted_residual(n)


def verify_mass_action_cross(n: int) -> bool:
    return not mass_action_cross_residual(n)


def shifted_second_order_residual(n: int) -> Poly:
    """a C_n(x) + (n-a-x) C_n(x-1) + x C_n(x-2) collapses to -C_{n-1}(x-2)."""
    if n < 1:
        raise ValueError("index must be >= 1")
    cn = charlier(n)
    lhs = A * cn + (n - A - X) * shifted_charlier(n) + X * _at_x_minus_two(n)
    return lhs + _at_x_minus_two(n - 1)


def verify_shifted_second_order(n: int) -> bool:
    return not shifted_second_order_residual(n)


# -- leading coefficients and degree structure -------------------------------


def leading_x_coeff(i: int) -> Poly:
    """Coefficient of x^i in coeff_ai(i), a polynomial in a."""
    return coeff_ai(i).coeff_of(Var.X, i)


def leading_x_closed_form(i: int) -> Poly:
    """(-1)^i / i! times charlier(i-1) evaluated at x = i - 2."""
    if i < 1:
        raise ValueError("order must be >= 1")
    return charlier_at(i - 1, i - 2) * Fraction(parity_sign(i), factorial(i))


def leading_x_laguerre_form(i: int) -> Poly:
    """(-1)^i / i! times the Laguerre polynomial of degree i-1, parameter -1."""
    if i < 1:
        raise ValueError("order must be >= 1")
    return laguerre(i - 1, -1, Var.A) * Fraction(parity_sign(i), factorial(i))


def leading_x_laguerre_chain(i: int) -> Poly:
    """For i >= 2, the same value through the degree i-2 Laguerre polynomial
    with parameter +1, scaled by -a/(i-1)."""
    if i < 2:
        raise ValueError("chain form needs order >= 2")
    return (
        laguerre(i - 2, 1, Var.A)
        * A
        * Fraction(-parity_sign(i), factorial(i) * (i - 1))
    )


def verify_leading_x(i: int) -> bool:
    """The x^i coefficient of coeff_ai(i) matches every closed form and is
    not the zero polynomial in a."""
    return OperatorActions().verify_leading_x(i)


def verify_degree_claims(i: int) -> bool:
    """Structure of coeff_ai(i): vanishes at x = 0, x-degree at most i,
    a-degree exactly 2i-2, and the a^(2i-2) coefficient is
    (-1)^i x / (i! (i-1)!)."""
    return OperatorActions().verify_degree_claims(i)


def verify_degree_escalation(i: int) -> bool:
    """If the x-degree of coeff_ai(i) falls below i, the next coefficient
    attains full x-degree i+1."""
    return OperatorActions().verify_degree_escalation(i)


def verify_mixed_leading(i: int, k: int, n: int) -> bool:
    """Delta^k Nabla^(i-k) and Delta^i agree on the x^(n-i) coefficient of
    charlier(n)."""
    return OperatorActions().verify_mixed_leading(i, k, n)


# -- uniqueness through forward substitution ---------------------------------


def forward_substitution_rhs(n: int) -> Poly:
    """Right side of row n of the unit triangular system for a1..an: the closed
    form of the mass action on C_n(x-1) minus its order-zero term a0(n) C_n(x-1)."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return _mass_closed_form(n, -1) - coeff_a0(n) * charlier(n).shift_x(-1)


def solve_coefficients(max_i: int) -> dict[int, Poly]:
    """Recompute the order-i coefficients by forward substitution in the
    system sum_{i=1}^{n} ai * charlier(n-i)(x-1) = rhs(n).

    The system is unit triangular (the coefficient of the newest unknown is
    charlier(0) = 1), so each step determines one coefficient exactly.  This
    is an independent route to the same family and doubles as the uniqueness
    certificate.
    """
    if max_i < 1:
        raise ValueError("max_i must be >= 1")
    # charlier(m)(x-1) for m < max_i, each shifted once; kept local so that
    # this route shares nothing with coeff_ai.
    shifted = [charlier(m).shift_x(-1) for m in range(max_i)]
    solved: dict[int, Poly] = {}
    for n in range(1, max_i + 1):
        solved[n] = sum_products(
            [(forward_substitution_rhs(n), 1)]
            + [(-solved[i], shifted[n - i]) for i in range(1, n)]
        )
    return solved


def verify_uniqueness(max_i: int) -> bool:
    """Forward substitution reproduces the closed-form coefficients."""
    solved = solve_coefficients(max_i)
    return all(solved[i] == coeff_ai(i) for i in range(1, max_i + 1))


# -- the unbounded-order rewritings ------------------------------------------


def backshift_residual(y: "Poly | DifferenceChain") -> Poly:
    """y(x-1) minus the alternating sum of forward differences of y,
    truncated (exactly) at the x-degree of y."""
    chain = DifferenceChain.of(y)
    return chain[0].shift_x(-1) - backshift_operator(chain.degree).apply(chain)


def verify_backshift_expansion(y: Poly) -> bool:
    return not backshift_residual(y)


def classical_infinite_order_residual(n: int) -> Poly:
    """x * sum_{i>=1} (-1)^i Delta^i y + a Delta y + n y at y = charlier(n)."""
    return OperatorActions().classical_infinite_order_residual(n)


def verify_classical_infinite_order(n: int) -> bool:
    return not classical_infinite_order_residual(n)


def combined_equation_residual(n: int) -> Poly:
    """The equation with the classical part expanded through the alternating
    difference series, at y = gen_charlier(n)."""
    return OperatorActions().combined_equation_residual(n)


def verify_combined_equation(n: int) -> bool:
    return not combined_equation_residual(n)


# -- shared roots of consecutive leading coefficients -------------------------


def _gcd_in_a(p: Poly, q: Poly) -> Poly:
    """A gcd in Q[a] by Euclid's algorithm, each divisor made monic first."""
    while q:
        dq = q.degree_in(Var.A)
        q = q / q.coeff_of(Var.A, dq).constant_value()
        while (dp := p.degree_in(Var.A)) >= dq:
            p = p - q * Poly({(0, dp - dq, 0): p.coeff_of(Var.A, dp).constant_value()})
        p, q = q, p
    return p


def verify_leading_coprime(i: int) -> bool:
    """Consecutive leading x-coefficients share no root a > 0.

    For orders >= 2 every leading coefficient carries a plain factor a, so
    the two polynomials always meet at a = 0; that point lies outside the
    parameter domain of the weight.  Their gcd must be a monomial c a^v,
    which certifies that no further root is shared anywhere.
    """
    h, h_next = leading_x_closed_form(i), leading_x_closed_form(i + 1)
    return bool(h and h_next) and len(_gcd_in_a(h, h_next).terms()) == 1
