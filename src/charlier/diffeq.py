"""The difference equation of the point-mass family and its coefficients.

The point-mass polynomials are eigenfunctions of an operator of the shape

    N * sum_{i>=0} ai(x) Delta^i  +  x Delta Nabla  +  (a - x) Delta  +  n,

where the coefficients ``ai`` for i >= 1 are polynomials in x and a that do
not depend on the degree n, and the order-zero coefficient ``a0`` is a
polynomial in a depending on n only.  For nonzero mass the operator has
unbounded order, yet it acts exactly on polynomials: terms of total order
above the x-degree of the argument annihilate it, so every series here is a
finite sum with no truncation error.  Every operator reads its differences
from one chain y, Delta y, Delta^2 y, ... of its argument, and
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

from .classical import binom_poly, charlier, laguerre
from .pointmass import gen_charlier, gen_weights, shifted_charlier
from .polynomials import A, N, Poly, Var, X, parity_sign, sum_products

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

        Every term reads one power of the forward chain of y: since
        Nabla = Delta shifted back by one, Delta^d Nabla^m y is
        (Delta^(d+m) y)(x - m).  Terms whose total order exceeds deg_x(y)
        contribute exactly zero and are skipped, which is what makes
        unbounded-order operators act as finite sums on polynomials.
        """
        chain = DifferenceChain.of(y)
        pairs = []
        for term in self.terms:
            order = term.delta_order + term.nabla_order
            if order > chain.degree:
                continue
            z = chain[order]
            if term.nabla_order:
                z = z.shift_x(-term.nabla_order)
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
    return charlier(n - 1).substitute(Var.X, -2) * parity_sign(n - 1)


@cache
def _bracket(k: int) -> Poly:
    """(-1)^k [C_k(-1) C_k(x-2) - C_k(-2) C_k(x-1)] with C_k = charlier(k)."""
    # Not read from pointmass.shifted_charlier(k): every a_i with i >= k reads
    # this bracket, so a wrong shared piece would fail far from its own index.
    ck = charlier(k)
    s = parity_sign(k)
    return sum_products([
        (ck.substitute(Var.X, -1) * s, ck.shift_x(-2)),
        (ck.substitute(Var.X, -2) * -s, ck.shift_x(-1)),
    ])


@cache
def _reflected_binom(j: int) -> Poly:
    """binom(1 - x, j), a polynomial in x alone with j + 1 terms."""
    return binom_poly(j).negate_var(Var.X).shift_x(-1)


@cache
def _exp_coeff(m: int) -> Poly:
    """a^m / m!, the t^m coefficient of e^(at)."""
    return Poly({(0, m, 0): Fraction(1, factorial(m))})


@cache
def _bracket_sum(j: int) -> Poly:
    """D_j = sum_{k=1}^{j} binom(1 - x, j - k) B_k with B_k = ``_bracket(k)``."""
    return sum_products((_reflected_binom(j - k), _bracket(k)) for k in range(1, j + 1))


@cache
def coeff_ai(i: int) -> Poly:
    """Coefficient of the i-th forward difference, i >= 1; independent of n.

    The convolution sum_{k=1}^{i} M_{i-k}(x) B_k(x) of the brackets
    B_k = ``_bracket(k)`` with the fronts M_j = C_j(1 - x; -a), the t^j
    coefficients of e^(at) (1 + t)^(1-x).  Splitting each front as
    M_j = sum_m (a^m / m!) binom(1 - x, j - m) factors the convolution into
    sum_{m=0}^{i-1} (a^m / m!) D_{i-m}, where D_j = ``_bracket_sum(j)`` holds
    the large products, each built once and shared by every order that reads
    it, and each product here is by a single monomial.
    """
    if i < 1:
        raise ValueError("order must be >= 1")
    return sum_products((_exp_coeff(m), _bracket_sum(i - m)) for m in range(i))


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

# The arguments whose chains and degree-n mass actions are kept:
# gen_charlier(n), charlier(n) and charlier(n) shifted by -1.
ARGUMENTS = ("generalized", "charlier", "shifted")


def _mass_closed_form(n: int, point: int) -> Poly:
    """(-1)^(n-1) C_n(point) C_{n-1}(x-2)."""
    at_point = charlier(n).substitute(Var.X, point)
    return at_point * charlier(n - 1).shift_x(-2) * parity_sign(n - 1)


class OperatorActions:
    """Difference chains, operator actions and coefficient checks shared by
    the identities of one verify run.

    Each chain, each action of a degree-n mass operator and each left-hand
    side of the equation is built once, on first use, and keyed by integer
    indices, never by a polynomial.  This is the one place a coefficient
    provider enters: ``ai`` is ``coeffs``, or ``coeff_ai`` when none is given,
    and every mass operator and coefficient check here reads it, so an
    instance serves the one run it was made for.
    """

    def __init__(self, coeffs: CoeffProvider | None = None) -> None:
        self.ai: CoeffProvider = coeff_ai if coeffs is None else coeffs
        self._chains: dict[tuple[str, int], DifferenceChain] = {}
        self._mixed: dict[int, list[DifferenceChain]] = {}
        self._mass: dict[tuple[str, int], Poly] = {}
        self._equations: dict[int, Poly] = {}

    def chain(self, argument: str, n: int) -> DifferenceChain:
        """The difference chain of one of the ARGUMENTS at degree n."""
        key = (argument, n)
        chain = self._chains.get(key)
        if chain is None:
            if argument not in ARGUMENTS:
                raise ValueError(f"unknown argument {argument!r}")
            if argument == "generalized":
                y = gen_charlier(n)
            elif argument == "charlier":
                y = charlier(n)
            else:
                y = shifted_charlier(n)
            chain = self._chains[key] = DifferenceChain(y)
        return chain

    def mass(self, argument: str, n: int) -> Poly:
        """sum_{i=0}^{n} ai Delta^i with the degree-n a0, applied to the
        argument; the sum stops at order n, exact since deg_x is n.

        The operator is applied to the two classical arguments only.  Since
        gen_charlier(n) = scale C_n(x) - offset C_n(x-1) with weights free
        of x, its action is the same combination of theirs.
        """
        key = (argument, n)
        action = self._mass.get(key)
        if action is None:
            if argument == "generalized":
                scale, offset = gen_weights(n)
                action = sum_products(
                    [(scale, self.mass("charlier", n)), (-offset, self.mass("shifted", n))]
                )
            else:
                op = mass_operator(n, n, self.ai)
                action = op.apply(self.chain(argument, n))
            self._mass[key] = action
        return action

    def equation(self, n: int) -> Poly:
        """Left-hand side of the full equation at y = gen_charlier(n).

        The classical part reads the chain of gen_charlier(n) itself, up to
        its second difference; the mass part comes from the two pieces."""
        lhs = self._equations.get(n)
        if lhs is None:
            y = self.chain("generalized", n)
            lhs = N * self.mass("generalized", n) + classical_operator(n).apply(y)
            self._equations[n] = lhs
        return lhs

    def mass_action_residual(self, n: int) -> Poly:
        return self.mass("charlier", n) - _mass_closed_form(n, 0)

    def mass_action_shifted_residual(self, n: int) -> Poly:
        return self.mass("shifted", n) - _mass_closed_form(n, -1)

    def mass_action_cross_residual(self, n: int) -> Poly:
        cn = charlier(n)
        return cn.substitute(Var.X, -1) * self.mass("charlier", n) - cn.substitute(
            Var.X, 0
        ) * self.mass("shifted", n)

    def classical_infinite_order_residual(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("index must be >= 0")
        return classical_series_operator(n).apply(self.chain("charlier", n))

    def combined_equation_residual(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("index must be >= 0")
        # Linear with x-free weights, like the mass part: the series operator
        # reads the two pieces' chains, which the mass actions have built.
        series = classical_series_operator(n)
        scale, offset = gen_weights(n)
        return sum_products([
            (N, self.mass("generalized", n)),
            (scale, series.apply(self.chain("charlier", n))),
            (-offset, series.apply(self.chain("shifted", n))),
        ])

    def mixed_difference(self, n: int, k: int, m: int) -> Poly:
        """Delta^k Nabla^m charlier(n), from one forward chain per (n, m)
        whose start is the backward difference of the previous one's."""
        chains = self._mixed.setdefault(n, [self.chain("charlier", n)])
        while len(chains) <= m:
            chains.append(DifferenceChain(chains[-1][0].nabla()))
        return chains[m][k]

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
    lhs = A * cn + (n - A - X) * shifted_charlier(n) + X * cn.shift_x(-2)
    return lhs + charlier(n - 1).shift_x(-2)


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
    return charlier(i - 1).substitute(Var.X, i - 2) * Fraction(
        parity_sign(i), factorial(i)
    )


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
    """Right-hand side of the unit triangular system that determines the
    coefficients of order 1..n once a0 is fixed."""
    if n < 1:
        raise ValueError("index must be >= 1")
    cn = charlier(n)
    prev = charlier(n - 1)
    return (
        cn.substitute(Var.X, -1) * prev.shift_x(-2)
        - prev.substitute(Var.X, -2) * cn.shift_x(-1)
    ) * parity_sign(n - 1)


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


def _resultant(pc: list[Fraction], qc: list[Fraction]) -> Fraction:
    """Resultant of two univariate polynomials from descending coefficients."""
    m, n = len(pc) - 1, len(qc) - 1
    size = m + n
    if size == 0:
        return Fraction(1)
    rows: list[list[Fraction]] = []
    for r in range(n):
        rows.append([Fraction(0)] * r + pc + [Fraction(0)] * (n - 1 - r))
    for r in range(m):
        rows.append([Fraction(0)] * r + qc + [Fraction(0)] * (m - 1 - r))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            if f:
                rows[r] = [rv - f * cv for rv, cv in zip(rows[r], rows[col])]
    return det


def _coeff_list_in_a(p: Poly) -> list[Fraction]:
    deg = p.degree_in(Var.A)
    if deg < 0:
        raise ValueError("zero polynomial has no coefficient list")
    return [p.coeff_of(Var.A, d).constant_value() for d in range(deg, -1, -1)]


def _strip_a_factor(coeffs: list[Fraction]) -> list[Fraction]:
    # Drop the common a^v monomial factor (trailing zeros in descending order).
    out = list(coeffs)
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def verify_leading_coprime(i: int) -> bool:
    """Consecutive leading x-coefficients share no root a > 0.

    For orders >= 2 every leading coefficient carries a plain factor a, so
    the two polynomials always meet at a = 0; that point lies outside the
    parameter domain of the weight.  After stripping the common a-power the
    resultant must be a nonzero rational, which certifies that no further
    root is shared anywhere.
    """
    h_i = _strip_a_factor(_coeff_list_in_a(leading_x_closed_form(i)))
    h_next = _strip_a_factor(_coeff_list_in_a(leading_x_closed_form(i + 1)))
    return bool(_resultant(h_i, h_next))
