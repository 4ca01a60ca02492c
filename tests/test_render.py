"""The one term renderer: ``str(p)`` and ``p.latex()``.

Hashes pin the LaTeX tables well beyond the order-3 golden (exponents up to
38, fractional magnitudes), and a property test checks ``Poly.latex`` against
a per-term reference that reads ``terms()``.  Monomial text is kept per
render style, so one style must never read the other's.
"""

import hashlib

from hypothesis import given

from charlier import polynomials
from charlier.cli import main
from charlier.polynomials import A, N, Poly, X
from strategies import polys

# SHA-256 of `charlier coeffs --max-i 12 --format latex` stdout.
LATEX_MAX12 = "f0e83204d35cf8d779840d3f26067f928d991eb7cadc91255495622e4a127d06"
# SHA-256 of `charlier coeffs --max-i 20 --format latex` stdout.
LATEX_MAX20 = "69f88e4589f2ec4736b77adf7e5dc2d56d1114e0962be6add4205044c3eb3f80"

# (polynomial, str, latex): the same monomials in both styles
STYLES = [
    (A**2 * X**3 / 2, "1/2*a^2*x^3", "\\frac{1}{2} a^{2} x^{3}"),
    (-N * X, "-N*x", "-N x"),
    (A * N**4 - X, "a*N^4 - x", "a N^{4} - x"),
]


def reference_latex(p: Poly) -> str:
    parts = []
    for (ex, ea, en), coeff in p.terms():
        factors = [
            name if e == 1 else f"{name}^{{{e}}}"
            for name, e in (("a", ea), ("N", en), ("x", ex))
            if e
        ]
        mag = abs(coeff)
        mag_s = str(mag) if mag.denominator == 1 else f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        body = " ".join(([] if factors and mag == 1 else [mag_s]) + factors)
        if parts:
            parts.append(f" - {body}" if coeff < 0 else f" + {body}")
        else:
            parts.append(f"-{body}" if coeff < 0 else body)
    return "".join(parts) or "0"


def test_latex_table_is_byte_stable(capsys):
    assert main(["coeffs", "--max-i", "12", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert "^{19}" in out
    assert sum("\\frac" in row for row in out.splitlines()) == 21
    assert hashlib.sha256(out.encode()).hexdigest() == LATEX_MAX12


def test_deeper_latex_table_is_byte_stable(capsys):
    assert main(["coeffs", "--max-i", "20", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert "^{38}" in out
    assert hashlib.sha256(out.encode()).hexdigest() == LATEX_MAX20


def test_render_styles_never_mix(monkeypatch):
    # An empty monomial table, so the first style to render fills it.
    monkeypatch.setattr(polynomials, "_MONOMIALS", {})
    for p, text, latex in STYLES:
        assert p.latex() == latex
        assert str(p) == text
    monkeypatch.setattr(polynomials, "_MONOMIALS", {})
    for p, text, latex in STYLES:
        assert str(p) == text
        assert p.latex() == latex


def test_latex_of_small_polynomials():
    assert Poly().latex() == "0"
    assert (-X).latex() == "-x"
    assert (A**2 * X**10 / 3 - 1).latex() == "\\frac{1}{3} a^{2} x^{10} - 1"
    assert str(A**2 * X**10 / 3 - 1) == "1/3*a^2*x^10 - 1"


@given(polys)
def test_latex_matches_per_term_reference(p):
    assert p.latex() == reference_latex(p)
