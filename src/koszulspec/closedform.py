"""Closed-form invariant tables and pole spectra for special families.

Binary forms (n = 2) admit complete formulas for every graded invariant
in terms of the root multiplicities alone.  Sums of polynomials in
disjoint variable sets, where the second summand has an isolated
singular point, reduce to coefficientwise products of the factors'
series.  Both paths are independent oracles for the rank engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .decomp import InvariantTable, classify_type
from .koszul import gamma_series
from .poly import HomogeneousPoly
from .polespec import PoleSpectrum


def _clamp(x: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, x))


@dataclass(frozen=True)
class Series:
    """Power series with integer coefficients, truncated to a window [0, k_max].

    Sums and products are window-exact whenever the factors have no
    support in negative degrees, which holds for everything built here.
    Equality is strict: same window, same coefficients.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("series window must contain degree 0")

    @property
    def k_max(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def _common(self, other: "Series") -> int:
        return min(self.k_max, other.k_max)

    def __add__(self, other: "Series") -> "Series":
        top = self._common(other)
        return Series(tuple(self.coeffs[k] + other.coeffs[k] for k in range(top + 1)))

    def __sub__(self, other: "Series") -> "Series":
        top = self._common(other)
        return Series(tuple(self.coeffs[k] - other.coeffs[k] for k in range(top + 1)))

    def __mul__(self, other: "Series") -> "Series":
        top = self._common(other)
        out = [0] * (top + 1)
        for i, c in enumerate(self.coeffs[: top + 1]):
            if c == 0:
                continue
            for j in range(top + 1 - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] += c * cj
        return Series(tuple(out))

    def __pow__(self, e: int) -> "Series":
        if e < 0:
            raise ValueError("negative powers are not defined for window series")
        out = Series((1,) + (0,) * self.k_max)
        for _ in range(e):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    @classmethod
    def from_coeffs(cls, values: list[int], k_max: int) -> "Series":
        if len(values) > k_max + 1:
            raise ValueError("coefficient list exceeds the window")
        return cls(tuple(values) + (0,) * (k_max + 1 - len(values)))


def interval_series(a: int, b: int | None, k_max: int) -> Series:
    """Indicator series of the degree interval [a, b]; b = None means no
    upper end (the tail is cut by the window, which is exact for window
    arithmetic)."""
    end = k_max if b is None else min(b, k_max)
    return Series(tuple(1 if a <= k <= end else 0 for k in range(k_max + 1)))


@dataclass(frozen=True)
class BinaryFormFactorization:
    """A binary form given as a product of powers of distinct linear forms.

    The multiplicity vector alone determines every invariant computed
    from it; linear forms are optional and only needed to expand an
    actual polynomial.  When present they must be pairwise
    non-proportional, one per multiplicity entry.
    """

    multiplicities: tuple[int, ...]
    factors: tuple[HomogeneousPoly, ...] | None = None

    def __post_init__(self) -> None:
        if not self.multiplicities:
            raise ValueError("need at least one root")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        if self.factors is None:
            return
        if len(self.factors) != len(self.multiplicities):
            raise ValueError("one linear form per multiplicity entry")
        for g in self.factors:
            if g.n != 2 or g.degree != 1 or not g.terms:
                raise ValueError("factors must be nonzero linear forms in two variables")
        for i in range(len(self.factors)):
            for j in range(i + 1, len(self.factors)):
                a = self.factors[i]
                b = self.factors[j]
                ax, ay = a.terms.get((1, 0), 0), a.terms.get((0, 1), 0)
                bx, by = b.terms.get((1, 0), 0), b.terms.get((0, 1), 0)
                if ax * by - ay * bx == 0:
                    raise ValueError("linear factors must be pairwise non-proportional")

    @classmethod
    def from_factors(cls, pairs: list[tuple[HomogeneousPoly, int]]) -> "BinaryFormFactorization":
        return cls(tuple(m for _, m in pairs), tuple(g for g, _ in pairs))

    @property
    def d(self) -> int:
        return sum(self.multiplicities)

    @property
    def r(self) -> int:
        return len(self.multiplicities)

    @property
    def gcd_exponent(self) -> int:
        return math.gcd(*self.multiplicities)

    @property
    def tau(self) -> int:
        return self.d - self.r

    def expand(self) -> HomogeneousPoly:
        if self.factors is None:
            raise ValueError("no linear forms were supplied")
        out = HomogeneousPoly(2, 0, {(0, 0): Fraction(1)})
        for g, m in zip(self.factors, self.multiplicities):
            out = out.mul(g.pow(m))
        return out


def binary_torsion_dim(fac: BinaryFormFactorization, k: int) -> int:
    """Torsion dimension of a binary form: a plateau of height r - 1
    centered at degree d."""
    return max(fac.r - 1 - abs(fac.d - k), 0)


def binary_free_dim(fac: BinaryFormFactorization, k: int) -> int:
    """Free-part dimension: the ramp k - 1 clamped to [0, tau]."""
    return _clamp(k - 1, 0, fac.tau)


def binary_nu_dim(fac: BinaryFormFactorization, k: int) -> int:
    """Syzygy cohomology dimension: the ramp starting at degree d + r."""
    return _clamp(k - fac.d - fac.r + 1, 0, fac.tau)


def binary_invariant_table(fac: BinaryFormFactorization, k_max: int | None = None) -> InvariantTable:
    """Invariant table of a binary form from its multiplicities alone."""
    d = fac.d
    if k_max is None:
        k_max = 3 * d
    gamma = gamma_series(2, d, k_max)
    mu_t = [binary_torsion_dim(fac, k) for k in range(k_max + 1)]
    mu_f = [binary_free_dim(fac, k) for k in range(k_max + 1)]
    nu = [binary_nu_dim(fac, k) for k in range(k_max + 1)]
    mu = [a + b for a, b in zip(mu_t, mu_f)]
    tab = InvariantTable(
        n=2,
        d=d,
        k_max=k_max,
        tau=fac.tau,
        gamma=gamma,
        mu=mu,
        mu_torsion=mu_t,
        mu_free=mu_f,
        nu=nu,
        type_flag="",
        seed=None,
    )
    tab.type_flag = classify_type(tab)
    return tab


def binary_series_triple(fac: BinaryFormFactorization, k_max: int) -> tuple[Series, Series, Series]:
    """(torsion, free, syzygy) series of a binary form as interval products.

    The product forms are the generating-function counterpart of the
    pointwise formulas; tests hold them equal.
    """
    d, r = fac.d, fac.r
    s_t = interval_series(1, r - 1, k_max) * interval_series(d - r + 1, d - 1, k_max)
    s_f = interval_series(1, None, k_max) * interval_series(1, d - r, k_max)
    # The tail factor starts at d + r - 1, one later than a naive reading
    # of the free-part factor pair suggests: the first syzygy class sits
    # in degree d + r, pinned down by the tau-complement identity.
    s_nu = interval_series(d + r - 1, None, k_max) * interval_series(1, d - r, k_max)
    return s_t, s_f, s_nu


def binary_spectrum_multiplicities(
    fac: BinaryFormFactorization,
) -> dict[tuple[int, Fraction], int]:
    """Hodge spectrum multiplicities of a binary form, keyed by
    (cohomology shift j, exponent alpha), nonzero entries only.

    j = 0 entries live at alpha in (0, 2); the only j = 1 entries sit at
    alpha = 1 + k/d when k times the multiplicity gcd is divisible by d.
    """
    d, r, e = fac.d, fac.r, fac.gcd_exponent
    mults = fac.multiplicities
    out: dict[tuple[int, Fraction], int] = {}
    for k in range(1, d + 1):
        ceil_sum = sum((k * m + d - 1) // d for m in mults)
        n0 = r - 1 + k - ceil_sum
        if n0:
            out[(0, Fraction(k, d))] = n0
    for k in range(1, d):
        ceil_sum = sum((k * m + d - 1) // d for m in mults)
        n0 = max(-k - 1 + ceil_sum, 0)
        alpha = 1 + Fraction(k, d)
        if n0:
            out[(0, alpha)] = n0
        if (k * e) % d == 0:
            out[(1, alpha)] = 1
    return out


@dataclass(frozen=True)
class BinaryPoleParts:
    """Pole spectrum of a binary form, with its two constituents kept
    separate: part0 counts coker/ker contributions plus the gcd
    correction terms at i/e, part1 is the same correction shifted by 1."""

    part0: tuple[tuple[Fraction, int], ...]
    part1: tuple[tuple[Fraction, int], ...]
    spectrum: PoleSpectrum


def binary_pole_spectrum(fac: BinaryFormFactorization) -> BinaryPoleParts:
    """Pole spectrum of a binary form from multiplicities alone."""
    d, e = fac.d, fac.gcd_exponent
    part0: dict[Fraction, int] = {}
    for k in range(1, 2 * d + 1):
        c = binary_torsion_dim(fac, k) + binary_free_dim(fac, k) - binary_nu_dim(fac, k + d)
        if c:
            part0[Fraction(k, d)] = part0.get(Fraction(k, d), 0) + c
    part1: dict[Fraction, int] = {}
    for i in range(1, e):
        part0[Fraction(i, e)] = part0.get(Fraction(i, e), 0) + 1
        part1[1 + Fraction(i, e)] = 1
    net: dict[Fraction, int] = dict(part0)
    for x, c in part1.items():
        net[x] = net.get(x, 0) - c
    support = [(x, net[x]) for x in sorted(net) if net[x] != 0]
    spectrum = PoleSpectrum(
        support=support,
        truncated=False,
        stabilization_stage=1 if fac.tau == 0 else 2,
    )
    return BinaryPoleParts(
        part0=tuple(sorted(part0.items())),
        part1=tuple(sorted(part1.items())),
        spectrum=spectrum,
    )


def binary_stage2_rows(fac: BinaryFormFactorization, k_max: int) -> tuple[list[int], list[int]]:
    """Stage-2 dimension rows (mu, nu) of a binary form.

    The nu row is an indicator: exactly one class at each degree d + i*d/e
    for 0 < i < e, where e is the multiplicity gcd; the mu row is the net
    spectrum coefficient plus the matching indicator below degree d.
    """
    d, e = fac.d, fac.gcd_exponent
    step = d // e
    mu2 = []
    nu2 = []
    for k in range(k_max + 1):
        extra0 = 1 if 0 < k < d and k % step == 0 else 0
        extra1 = 1 if d < k < 2 * d and (k - d) % step == 0 else 0
        net = (
            binary_torsion_dim(fac, k)
            + binary_free_dim(fac, k)
            - binary_nu_dim(fac, k + d)
        )
        mu2.append(net + extra0)
        nu2.append(extra1)
    return mu2, nu2


@dataclass(frozen=True)
class SeriesBundle:
    """The three graded series of one summand plus its pole spectrum
    support.

    A summand with an isolated singular point has everything in the
    torsion slot: mu_free and nu are zero series and mu_torsion carries
    the Milnor algebra dimensions.
    """

    mu_torsion: Series
    mu_free: Series
    nu: Series
    spectrum: tuple[tuple[Fraction, int], ...] | None = None

    def is_isolated(self) -> bool:
        return self.mu_free.is_zero() and self.nu.is_zero()


def table_bundle(tab: InvariantTable, spectrum: PoleSpectrum | None = None) -> SeriesBundle:
    """Bundle an engine table (and optionally its spectrum) for product
    comparisons."""
    return SeriesBundle(
        mu_torsion=Series(tuple(tab.mu_torsion)),
        mu_free=Series(tuple(tab.mu_free)),
        nu=Series(tuple(tab.nu)),
        spectrum=None if spectrum is None else tuple(spectrum.support),
    )


def binary_bundle(fac: BinaryFormFactorization, k_max: int) -> SeriesBundle:
    tab = binary_invariant_table(fac, k_max)
    return SeriesBundle(
        mu_torsion=Series(tuple(tab.mu_torsion)),
        mu_free=Series(tuple(tab.mu_free)),
        nu=Series(tuple(tab.nu)),
        spectrum=tuple(binary_pole_spectrum(fac).spectrum.support),
    )


def isolated_bundle(nvars: int, d: int, k_max: int) -> SeriesBundle:
    """Bundle of a degree-d form in nvars fresh variables with an
    isolated singular point at the origin.

    Its graded Milnor algebra twisted by the volume form has series
    S(1, d-1)^nvars regardless of which such form is chosen, and its
    pole spectrum has the same coefficients placed at exponents k/d.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    milnor = interval_series(1, d - 1, k_max) ** nvars
    spectrum = tuple(
        (Fraction(k, d), c) for k, c in enumerate(milnor.coeffs) if c != 0
    )
    return SeriesBundle(
        mu_torsion=milnor,
        mu_free=Series((0,) * (k_max + 1)),
        nu=Series((0,) * (k_max + 1)),
        spectrum=spectrum,
    )


def _support_product(
    a: tuple[tuple[Fraction, int], ...], b: tuple[tuple[Fraction, int], ...]
) -> tuple[tuple[Fraction, int], ...]:
    acc: dict[Fraction, int] = {}
    for xa, ma in a:
        for xb, mb in b:
            key = xa + xb
            acc[key] = acc.get(key, 0) + ma * mb
    return tuple((x, acc[x]) for x in sorted(acc) if acc[x] != 0)


def ts_product(a: SeriesBundle, b: SeriesBundle) -> SeriesBundle:
    """Series of a sum of two polynomials in disjoint variable sets.

    The second summand must have an isolated singular point; summands
    with positive-dimensional singular locus in that slot are exactly
    the case where these product formulas break down.
    """
    if not b.is_isolated():
        raise ValueError("second summand must have an isolated singular point")
    factor = b.mu_torsion
    spectrum = None
    if a.spectrum is not None and b.spectrum is not None:
        spectrum = _support_product(a.spectrum, b.spectrum)
    return SeriesBundle(
        mu_torsion=a.mu_torsion * factor,
        mu_free=a.mu_free * factor,
        nu=a.nu * factor,
        spectrum=spectrum,
    )


def degenerate_variable_oracle(d: int, n: int, k_max: int | None = None) -> InvariantTable:
    """Expected table when f uses only n-1 of its n variables (with an
    isolated singular point there): the whole cohomology is free, mu
    grows by the (n-1)-variable Milnor series and stabilizes at its
    total (d-1)^(n-1)."""
    if n < 2:
        raise ValueError("need at least two variables")
    if k_max is None:
        k_max = n * d + d
    milnor = interval_series(1, d - 1, k_max) ** (n - 1)
    mu = (interval_series(1, None, k_max) * milnor).to_list()
    nu = (interval_series(d, None, k_max) * milnor).to_list()
    tab = InvariantTable(
        n=n,
        d=d,
        k_max=k_max,
        tau=(d - 1) ** (n - 1),
        gamma=gamma_series(n, d, k_max),
        mu=mu,
        mu_torsion=[0] * (k_max + 1),
        mu_free=list(mu),
        nu=nu,
        type_flag="",
        seed=None,
    )
    tab.type_flag = classify_type(tab)
    return tab
