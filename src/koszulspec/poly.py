"""Homogeneous polynomials over Q with exact coefficients.

A polynomial is a dict mapping exponent tuples to nonzero Fractions.  All
arithmetic is exact; nothing in this package ever touches floating point.
The zero polynomial (empty dict) is allowed only as the result of an
operation such as a partial derivative, never as primary input.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd

Exponent = tuple[int, ...]

COEFF_BOUND = 2**20  # upper bound for generic linear form coefficients


class PolySyntaxError(ValueError):
    """Raised when input text violates the polynomial grammar."""


class NotHomogeneousError(ValueError):
    """Raised when the parsed terms do not share a common total degree."""


class UnknownVariableError(ValueError):
    """Raised when a term mentions a variable outside the declared list."""


class HomogeneousPoly:
    """A homogeneous polynomial in n >= 2 variables with Fraction coefficients.

    `terms` maps exponent tuples of length n to nonzero coefficients and every
    exponent tuple sums to `degree`.  Instances are treated as immutable.
    """

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: dict[Exponent, Fraction]):
        if n < 2:
            raise ValueError(f"need at least 2 variables, got {n}")
        clean: dict[Exponent, Fraction] = {}
        for expo, coeff in terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(expo) != n or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo!r} for n={n}")
            if sum(expo) != degree:
                raise NotHomogeneousError(
                    f"term of degree {sum(expo)} in polynomial declared degree {degree}"
                )
            clean[expo] = coeff
        if clean and degree < 0:
            raise ValueError("negative degree")
        self.n = n
        self.degree = degree
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"HomogeneousPoly(n={self.n}, degree={self.degree}, {serialize_poly(self)!r})"

    # -- arithmetic ---------------------------------------------------------

    def partial(self, i: int) -> "HomogeneousPoly":
        """Partial derivative with respect to variable i (0-based)."""
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            lowered = list(expo)
            lowered[i] -= 1
            out[tuple(lowered)] = coeff * expo[i]
        return HomogeneousPoly(self.n, max(self.degree - 1, 0), out)

    def add(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise NotHomogeneousError("sum of different degrees is not homogeneous")
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = out.get(expo, Fraction(0)) + coeff
            if acc:
                out[expo] = acc
            else:
                out.pop(expo, None)
        return HomogeneousPoly(self.n, self.degree, out)

    def scale(self, c) -> "HomogeneousPoly":
        c = Fraction(c)
        if c == 0:
            return HomogeneousPoly(self.n, self.degree, {})
        return HomogeneousPoly(
            self.n, self.degree, {e: coeff * c for e, coeff in self.terms.items()}
        )

    def mul(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                acc = out.get(key, Fraction(0)) + ca * cb
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return HomogeneousPoly(self.n, self.degree + other.degree, out)

    def pow(self, k: int) -> "HomogeneousPoly":
        if k < 0:
            raise ValueError("negative power")
        result = HomogeneousPoly(self.n, 0, {(0,) * self.n: Fraction(1)})
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base) if k > 1 else base
            k >>= 1
        return result

    def integer_terms(self) -> dict[Exponent, int]:
        """Terms rescaled by a positive rational so all coefficients become
        integers with no common factor.  Rescaling f changes none of the
        invariants computed downstream."""
        if not self.terms:
            return {}
        denom_lcm = 1
        for coeff in self.terms.values():
            denom_lcm = denom_lcm * coeff.denominator // gcd(denom_lcm, coeff.denominator)
        ints = {e: int(c * denom_lcm) for e, c in self.terms.items()}
        content = 0
        for v in ints.values():
            content = gcd(content, v)
        if content > 1:
            ints = {e: v // content for e, v in ints.items()}
        return ints


def partials(f: HomogeneousPoly) -> list[HomogeneousPoly]:
    """All n partial derivatives of f, in variable order."""
    return [f.partial(i) for i in range(f.n)]


# -- parsing ----------------------------------------------------------------

# a rational coefficient, alone or glued to the first factor as in "3x" or "2/3x^2"
_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?([A-Za-z_].*)?$")
_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def _parse_term(term: str, variables: list[str]) -> tuple[Fraction, Exponent]:
    pieces = [p for p in term.split("*") if p != ""]
    if not pieces:
        raise PolySyntaxError(f"empty term in {term!r}")
    coeff = Fraction(1)
    m = _COEFF_RE.match(pieces[0])
    if m:
        num, den, rest = m.groups()
        if den is not None and int(den) == 0:
            raise PolySyntaxError("zero denominator in coefficient")
        coeff = Fraction(int(num), int(den or 1))
        pieces[:1] = [rest] if rest else []
    exponents = [0] * len(variables)
    for piece in pieces:
        fm = _FACTOR_RE.match(piece)
        if not fm:
            raise PolySyntaxError(f"cannot parse factor {piece!r}")
        name, power_txt = fm.group(1), fm.group(2)
        if name not in variables:
            raise UnknownVariableError(f"unknown variable {name!r}")
        power = int(power_txt) if power_txt is not None else 1
        if power < 1:
            raise PolySyntaxError(f"exponent must be positive in {piece!r}")
        exponents[variables.index(name)] += power
    return coeff, tuple(exponents)


def parse_poly(text: str, variables: list[str]) -> HomogeneousPoly:
    """Parse `text` into a homogeneous polynomial over the given variables.

    Terms are separated by '+' or '-'; a term is an optional rational
    coefficient (p or p/q) followed by '*'-separated factors `var` or
    `var^k`.  Whitespace is ignored.  Raises PolySyntaxError,
    NotHomogeneousError or UnknownVariableError.
    """
    if len(variables) < 2:
        raise ValueError("need at least 2 variables")
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    compact = "".join(text.split())
    if not compact:
        raise PolySyntaxError("empty input")
    # split into signed terms on top-level + and -
    chunks: list[tuple[int, str]] = []
    sign, pos = 1, 0
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        pos = 1
    current = []
    for ch in compact[pos:]:
        if ch in "+-":
            chunks.append((sign, "".join(current)))
            current = []
            sign = -1 if ch == "-" else 1
        else:
            current.append(ch)
    chunks.append((sign, "".join(current)))

    accum: dict[Exponent, Fraction] = {}
    degree: int | None = None
    for sgn, chunk in chunks:
        if not chunk:
            raise PolySyntaxError("dangling sign or empty term")
        coeff, expo = _parse_term(chunk, variables)
        total = sum(expo)
        if degree is None:
            degree = total
        elif total != degree:
            raise NotHomogeneousError(
                f"terms of degree {degree} and {total} in the same polynomial"
            )
        acc = accum.get(expo, Fraction(0)) + sgn * coeff
        if acc:
            accum[expo] = acc
        else:
            accum.pop(expo, None)
    if not accum:
        raise NotHomogeneousError("all terms cancel; the zero polynomial has no degree")
    assert degree is not None
    if degree < 1:
        raise NotHomogeneousError("constant input; degree must be at least 1")
    return HomogeneousPoly(len(variables), degree, accum)


def serialize_poly(f: HomogeneousPoly, variables: list[str] | None = None) -> str:
    """Canonical text form; parse_poly(serialize_poly(f)) reproduces f."""
    if variables is None:
        variables = [f"x{i+1}" for i in range(f.n)]
    if len(variables) != f.n:
        raise ValueError("variable list has wrong length")
    if f.is_zero():
        return "0"
    parts: list[str] = []
    for expo in sorted(f.terms, reverse=True):
        coeff = f.terms[expo]
        factors = []
        for name, e in zip(variables, expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(parts)


def generic_linear_form(n: int, seed: int) -> HomogeneousPoly:
    """A deterministic pseudo-random linear form with coefficients in
    [1, 2^20].  Same (n, seed) always gives the same form."""
    rng = random.Random(seed)
    terms: dict[Exponent, Fraction] = {}
    for i in range(n):
        expo = [0] * n
        expo[i] = 1
        terms[tuple(expo)] = Fraction(rng.randint(1, COEFF_BOUND))
    return HomogeneousPoly(n, 1, terms)
