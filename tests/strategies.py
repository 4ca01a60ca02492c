"""Shared hypothesis strategies for small exact polynomials."""

from fractions import Fraction

from hypothesis import strategies as st

from charlier.polynomials import Poly

exponents = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)

coefficients = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)

term_maps = st.dictionaries(exponents, coefficients, max_size=6)

polys = term_maps.map(Poly)
