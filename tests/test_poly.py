"""Polynomial layer: parsing, arithmetic, derivatives."""

import random
from fractions import Fraction

import pytest

from koszulspec.poly import (
    HomogeneousPoly,
    NotHomogeneousError,
    PolySyntaxError,
    UnknownVariableError,
    generic_linear_form,
    parse_poly,
    partials,
    serialize_poly,
)

XYZ = ["x", "y", "z"]


def test_parse_basic():
    f = parse_poly("x^2*y^2 + z^4", XYZ)
    assert f.n == 3
    assert f.degree == 4
    assert f.terms == {(2, 2, 0): 1, (0, 0, 4): 1}


def test_parse_coefficients():
    f = parse_poly("1/2*x^2 - y^2 + 3*x*y", ["x", "y"])
    assert f.terms[(2, 0)] == Fraction(1, 2)
    assert f.terms[(0, 2)] == -1
    assert f.terms[(1, 1)] == 3


def test_parse_glued_coefficients():
    # a coefficient may be glued to its first factor
    xy = ["x", "y"]
    assert parse_poly("3x^2 - 2/3x*y + y^2", xy) == parse_poly("3*x^2 - 2/3*x*y + y^2", xy)


def test_parse_rejects_a_zero_denominator():
    for text in ("2/0x", "2/0*x"):
        with pytest.raises(PolySyntaxError):
            parse_poly(text, ["x", "y"])


def test_parse_leading_sign():
    assert parse_poly("-x^2 + y^2", ["x", "y"]).terms == {(2, 0): -1, (0, 2): 1}


def test_parse_rejects_full_cancellation():
    # the zero polynomial has no degree and no hypersurface
    with pytest.raises(NotHomogeneousError):
        parse_poly("x*y - x*y", ["x", "y"])
    with pytest.raises(NotHomogeneousError):
        parse_poly("5", ["x", "y"])


def test_parse_repeated_variable_factors():
    # x*x*y and x^2*y are the same monomial
    assert parse_poly("x*x*y", XYZ) == parse_poly("x^2*y", XYZ)


def test_parse_rejects_parentheses():
    # the grammar is flat: products of powers joined by + and -
    with pytest.raises(PolySyntaxError):
        parse_poly("x*y*z*(x+y+z)", XYZ)


def test_parse_rejects_trailing_operator():
    with pytest.raises(PolySyntaxError):
        parse_poly("x^2 + ", ["x", "y"])


def test_parse_rejects_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse_poly("x*q", ["x", "y"])


def test_parse_rejects_inhomogeneous_input():
    with pytest.raises(NotHomogeneousError):
        parse_poly("x^2 + y", ["x", "y"])


def test_serialize_round_trip():
    texts = [
        "x*y*z",
        "x^2*y^2 + z^4",
        "x^2*y*z + x*y^2*z + x*y*z^2",
        "1/2*x^3 - 2*y^3 + x*y*z",
        "x^5 + y^5 + x^2*y^2*z",
    ]
    for text in texts:
        f = parse_poly(text, XYZ)
        out = serialize_poly(f, XYZ)
        assert parse_poly(out, XYZ) == f
        # canonical form is a fixed point
        assert serialize_poly(parse_poly(out, XYZ), XYZ) == out


def test_serialize_default_variable_names():
    f = HomogeneousPoly(2, 2, {(1, 1): Fraction(1)})
    assert serialize_poly(f) == "x1*x2"


def test_constructor_validation():
    with pytest.raises(ValueError):
        HomogeneousPoly(1, 1, {(1,): Fraction(1)})
    with pytest.raises(NotHomogeneousError):
        HomogeneousPoly(2, 2, {(1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        HomogeneousPoly(2, 0, {(-1, 1): Fraction(1)})


def test_add_degree_mismatch():
    f = parse_poly("x^2", ["x", "y"])
    g = parse_poly("x^3", ["x", "y"])
    with pytest.raises(NotHomogeneousError):
        f.add(g)


def test_mul_and_pow():
    x_plus_y = parse_poly("x + y", ["x", "y"])
    square = parse_poly("x^2 + 2*x*y + y^2", ["x", "y"])
    assert x_plus_y.mul(x_plus_y) == square
    assert x_plus_y.pow(2) == square
    assert x_plus_y.pow(5) == x_plus_y.mul(x_plus_y).mul(x_plus_y).mul(x_plus_y).mul(x_plus_y)
    assert x_plus_y.pow(0).terms == {(0, 0): 1}


def test_partial_derivative():
    f = parse_poly("x^3*y + z^4", XYZ)
    assert f.partial(0) == parse_poly("3*x^2*y", XYZ)
    assert f.partial(1) == parse_poly("x^3", XYZ)
    assert f.partial(2) == parse_poly("4*z^3", XYZ)


def test_partials_euler_identity():
    """sum_i x_i * df/dx_i = d * f for homogeneous f of degree d."""
    rng = random.Random(7)
    names = XYZ
    for _ in range(10):
        terms = {}
        d = rng.randint(2, 5)
        for _ in range(rng.randint(1, 6)):
            a = rng.randint(0, d)
            b = rng.randint(0, d - a)
            expo = (a, b, d - a - b)
            terms[expo] = Fraction(rng.randint(-5, 5))
        f = HomogeneousPoly(3, d, terms)
        if f.is_zero():
            continue
        acc = HomogeneousPoly(3, d, {})
        for i, g in enumerate(partials(f)):
            xi = parse_poly(names[i], names)
            acc = acc.add(xi.mul(g))
        assert acc == f.scale(d)


def test_integer_terms():
    f = parse_poly("1/2*x^2 + 1/3*y^2", ["x", "y"])
    assert f.integer_terms() == {(2, 0): 3, (0, 2): 2}
    g = parse_poly("4*x^2 - 6*y^2", ["x", "y"])
    assert g.integer_terms() == {(2, 0): 2, (0, 2): -3}


def test_generic_linear_form_deterministic():
    a = generic_linear_form(3, 11)
    b = generic_linear_form(3, 11)
    c = generic_linear_form(3, 12)
    assert a == b
    assert a != c
    assert a.degree == 1
    # generic means all coordinates present
    assert len(a.terms) == 3
    assert all(v != 0 for v in a.terms.values())
