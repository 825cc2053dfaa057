"""Koszul complex layer: graded dimensions, wedge ranks, cohomology rows."""

import math
import random

import pytest

import support
import tables
from koszulspec import linalg
from koszulspec.koszul import (
    ColumnStore,
    KoszulWindow,
    assumption_evidence,
    gamma_series,
    omega_dim,
)
from koszulspec.polespec import _combine
from koszulspec.poly import generic_linear_form


def test_omega_dim_closed_form():
    """j-forms of ambient degree k: C(n, j) * C(k - j + n - 1, n - 1)."""
    for n in (2, 3, 4):
        for j in range(n + 1):
            for k in range(8):
                expect = 0
                if k >= j:
                    expect = math.comb(n, j) * math.comb(k - j + n - 1, n - 1)
                assert omega_dim(n, j, k) == expect


def test_omega_dim_edges():
    assert omega_dim(3, 0, 0) == 1
    assert omega_dim(3, 1, 1) == 3
    assert omega_dim(3, 3, 3) == 1
    assert omega_dim(3, 2, 1) == 0
    assert omega_dim(3, 4, 9) == 0


def _poly_coeffs(n, d, k_max):
    """Coefficients of t^n * (1 + t + ... + t^(d-2))^n by convolution."""
    block = [1] * (d - 1)
    acc = [1]
    for _ in range(n):
        out = [0] * (len(acc) + len(block) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(block):
                out[i + j] += a * b
        acc = out
    row = [0] * (k_max + 1)
    for i, a in enumerate(acc):
        if n + i <= k_max:
            row[n + i] = a
    return row


def test_gamma_series_matches_convolution():
    """gamma_series is the alternating sum of the dimensions of the Koszul
    complex, sum_j (-1)^(n-j) dim(j, k - (n-j)d); it equals the coefficients
    of t^n * (1 + ... + t^(d-2))^n.  Once every rank out of j <= n-2 is read
    off exactness, mu_k - nu_k telescopes to that sum, so the Euler identity
    mu - nu = gamma holds for every certified input."""
    for n in range(2, 6):
        for d in range(1, 8):
            k_max = n * d + d
            assert gamma_series(n, d, k_max) == _poly_coeffs(n, d, k_max), (n, d)


def test_gamma_series_symmetry_and_mass():
    for n, d in [(3, 4), (4, 4)]:
        g = gamma_series(n, d, n * d + d)
        assert sum(g) == (d - 1) ** n
        top = n * (d - 1)
        for k in range(n, top + 1):
            assert g[k] == g[n + top - k]
        assert all(g[k] == 0 for k in range(n))
        assert all(g[k] == 0 for k in range(top + 1, len(g)))


def test_window_defaults_and_dims():
    win = support.window("x*y*z", support.VARS3)
    assert win.n == 3 and win.d == 3
    assert win.k_max == 3 * 3 + 3
    for j in range(4):
        for m in range(6):
            assert win.dim(j, m) == omega_dim(3, j, m)


def test_window_rejects_tiny_window():
    f = support.poly("x*y*z", support.VARS3)
    with pytest.raises(ValueError):
        KoszulWindow(f, k_max=2)


def test_a_window_adopts_a_column_store_only_of_its_own_f_and_k_max():
    """Each window builds its own store unless handed one; a store of
    another polynomial or window top is refused."""
    f = support.poly("x*y*z", support.VARS3)
    a, b = KoszulWindow(f), KoszulWindow(f)
    assert isinstance(a.columns, ColumnStore) and a.columns is not b.columns
    shared = KoszulWindow(support.poly("x*y*z", support.VARS3), a.k_max, columns=a.columns)
    assert shared.columns is a.columns
    assert shared.wedge_columns(1, 3) is a.wedge_columns(1, 3)
    for other, k_max in ((support.poly("2*x*y*z", support.VARS3), a.k_max), (f, a.k_max + 1)):
        with pytest.raises(ValueError, match="same f and k_max"):
            KoszulWindow(other, k_max, columns=a.columns)


def test_wedge_rank_injective_on_functions():
    # g -> g*df is injective, so the rank at j=0 is the full source dimension
    win = support.window("x^2*y^2 + z^4", support.VARS3)
    for m in range(4):
        assert win.rank_wedge(0, m) == win.dim(0, m)


def test_wedge_squares_to_zero():
    """df wedge df wedge anything vanishes identically."""
    win = support.window("x*y*z", support.VARS3)
    for j in (0, 1):
        for m in (0, 1, 2, 3):
            first = win.wedge_columns(j, m)
            second = win.wedge_columns(j + 1, m + win.d)
            for col in first:
                acc = {}
                for r, a in col.items():
                    for rr, b in second[r].items():
                        acc[rr] = acc.get(rr, 0) + a * b
                assert all(v == 0 for v in acc.values())


def _derive(win, j, m, vec):
    return _combine(win.derivative_columns(j, m), vec)


def test_exterior_derivative_squares_to_zero():
    win = support.window("x*y*z", support.VARS3)
    for j in (0, 1):
        for m in (1, 2, 3):
            for i in range(win.dim(j, m)):
                once = _derive(win, j, m, {i: 1})
                twice = _derive(win, j + 1, m, once)
                assert twice == {}


def test_derivative_anticommutes_with_wedge():
    """D(df ^ w) = -df ^ D(w) because d(df) = 0."""
    win = support.window("x*y*z", support.VARS3)
    d = win.d
    for j in (0, 1):
        for m in (1, 2, 3):
            wedge_j = win.wedge_columns(j, m)
            wedge_next = win.wedge_columns(j + 1, m)
            for i in range(win.dim(j, m)):
                lhs = _derive(win, j + 1, m + d, wedge_j[i])
                dw = _derive(win, j, m, {i: 1})
                rhs = {}
                for r, a in dw.items():
                    for rr, b in wedge_next[r].items():
                        rhs[rr] = rhs.get(rr, 0) - a * b
                rhs = {k: v for k, v in rhs.items() if v}
                assert lhs == rhs, (j, m, i)


def test_euler_identity_per_degree():
    """mu_k - nu_k = gamma_k across the full window."""
    for label in ("xyz", "twoa3", "fermat3_3", "x2y2"):
        win = support.corpus_window(label)
        for k in range(win.k_max + 1):
            assert win.mu(k) - win.nu(k) == win.gamma(k), (label, k)


def test_gamma_row_matches_series():
    win = support.corpus_window("fourlines")
    series = gamma_series(win.n, win.d, win.k_max)
    assert [win.gamma(k) for k in range(win.k_max + 1)] == series


def test_xyz_frozen_rows():
    win = support.corpus_window("xyz")
    mu = [win.mu(k) for k in range(win.k_max + 1)]
    nu = [win.nu(k) for k in range(win.k_max + 1)]
    tables.assert_row(mu, tables.XYZ["mu"], label="mu")
    tables.assert_row(nu, tables.XYZ["nu"], label="nu")


def test_lower_cohomology_vanishes():
    """The complex is exact at n - 2 on isolated singularities, with every
    rank taken by eliminating its block."""
    for label in ("xyz", "twoa3", "cayley"):
        win = support.corpus_window(label)
        n, d = win.n, win.d
        for k in range(win.k_max + 1):
            m = k - 2 * d
            cycles = win.dim(n - 2, m) - support.reference_rank(win, n - 2, m)
            assert cycles == support.reference_rank(win, n - 3, m - d), (label, k)


def test_assumption_evidence_passes_on_good_input():
    win = support.corpus_window("xyz")
    ev = assumption_evidence(win)
    assert ev.passed and ev.certified and ev.mu_stabilized
    assert (ev.degree, ev.seed) == (support.certificate_degree(3, 3), 0) == (6, 0)
    assert win._exact_through == win.n - 2


def test_assumption_evidence_fails_on_bad_locus():
    # x^2 in three variables: the singular locus of the cone is a plane
    win = support.window("x^2", support.VARS3)
    ev = assumption_evidence(win)
    assert not ev.passed and not ev.certified
    assert (ev.degree, ev.seed, ev.mu_top_values) == (support.certificate_degree(3, 2), None, None)
    assert win._exact_through == -1


@pytest.mark.parametrize(
    "text, variables",
    [("x + 2*y - z", support.VARS3), ("x + y", support.VARS2),
     ("x^2 + y^2 + z^2", support.VARS3), ("x^3 + y^3 + z^3 + w^3", support.VARS4)],
)
def test_smooth_inputs_are_certified_by_mu(text, variables):
    """mu(n*d - n + 1) = 0 certifies a smooth input, with no linear form;
    the complex is then exact up to n - 1.  d = 1 included."""
    win = support.window(text, variables)
    n, d = win.n, win.d
    ev = assumption_evidence(win)
    assert ev.passed and (ev.degree, ev.seed) == (n * d - n + 1, None)
    assert win._exact_through == n - 1
    assert ev.mu_top_values == (0, 0)


# every entry of tests/tables.py and the ladder of ROADMAP.md
CERTIFIED = [
    (data["text"], data["variables"]) for data in tables.FIVE_EXAMPLES + [tables.FERMAT_CUBIC, tables.NON_WH]
] + [(support.pencil_text(m), support.VARS2) for m in tables.PENCIL_MU2] + [
    ("x^2*y^2 + z^4", support.VARS3),
    ("x^5 + y^5 + z^5", support.VARS3),
    ("x^12 + y^12 + x^5*y^5*z^2", support.VARS3),
    ("x^2*y^2 + z^4 + w^4", support.VARS4),
    ("x^2*y^3 + z^5 + w^5", support.VARS4),
    ("x^2*y^2*z^2 + x^6 + y^6 + z^6 + w^6", support.VARS4),
    ("x^2*y^2 + z^4 + w^4 + v^4", ("x", "y", "z", "w", "v")),
    # a cone over three points: one singular point, isolated
    ("x^3 + y^3", support.VARS3),
    # d = 2: a cone over two points, and two lines through a point
    ("x^2 + y^2", support.VARS3),
    ("x*y", support.VARS3),
    ("x^2", support.VARS2),
    # d = 1: hyperplanes, where k* = n = n*d
    ("x + y", support.VARS2),
    ("x + 2*y - z", support.VARS3),
]


@pytest.mark.parametrize("text, variables", CERTIFIED)
def test_certificate_holds_at_its_degree_with_seed_zero(text, variables):
    """J + (y), y the seed-0 linear form, fills the n-forms of degree
    k* = max(n, (n-1)(d-2) + n + 1), which is at most n*d, on smooth and
    isolated-singular inputs alike."""
    win = support.window(text, variables)
    n, d = win.n, win.d
    k = support.certificate_degree(n, d)
    assert k <= n * d
    assert win.fills(k, generic_linear_form(n, 0))
    assert assumption_evidence(KoszulWindow(win.f)).passed


@pytest.mark.parametrize(
    "text, variables",
    [("x^2", support.VARS3), ("x^2*y^2", support.VARS3), ("x^3 + y^3", support.VARS4),
     ("x^2*y^2 + z^4", support.VARS4), ("x^3 + y^3 + z^3", ("x", "y", "z", "w", "v"))],
)
def test_certificate_refuses_a_curve_of_singular_points(text, variables):
    """Each input is singular along a curve or more, which meets every
    hyperplane: no linear form makes J + (y) fill degree k*, over Q either,
    and the window reads no rank off exactness."""
    win = support.window(text, variables)
    n, d = win.n, win.d
    k = support.certificate_degree(n, d)
    assert not any(win.fills(k, generic_linear_form(n, s)) for s in range(3))
    assert (k, 0) in win._image_spans
    ev = assumption_evidence(win)
    assert not ev.certified and ev.degree == k and win._exact_through == -1


@pytest.mark.parametrize("factor", linalg.DEFAULT_PRIMES + (linalg.PRIME_PRODUCT,))
def test_a_short_modular_rank_refutes_nothing(factor):
    """x^2*y^2 + c*z^4 has two A3 points over Q.  With c = p0 or p1 the
    modular image span meets a zero divisor, with c = p0*p1 its rank modulo
    p0*p1 falls short; either way the exact span decides, and certifies."""
    win = support.window(f"x^2*y^2 + {factor}*z^4", support.VARS3)
    k = support.certificate_degree(3, 4)
    ev = assumption_evidence(win)
    assert ev.certified and (ev.degree, ev.seed) == (k, 0)
    assert (k, 0) in win._image_spans


# inputs on which every rank exactness gives is checked against its block
ORACLE = [
    ("x*y*z", support.VARS3),
    ("x^2*y^2 + z^4", support.VARS3),
    ("x^2*y*z + x*y^2*z + x*y*z^2", support.VARS3),
    ("x^3 + y^2*z", support.VARS3),
    ("x^5 + y^5 + x^2*y^2*z", support.VARS3),
    ("x^4 + y^4 + z^4", support.VARS3),
    ("x*y*z + x*y*w + x*z*w + y*z*w", support.VARS4),
    ("x^2*y^2 + z^4 + w^4", support.VARS4),
    ("x^3 + y^3 + z^3", support.VARS4),
    ("x^3 + y^3 + z^3 + w^3", support.VARS4),
    ("3*x^2*y^3 + 7*z^5 - 11*w^5 + 5*x*y*z*w^2", support.VARS4),
]


@pytest.mark.parametrize("text, variables", ORACLE)
def test_ranks_read_off_exactness_match_their_blocks(text, variables):
    """After the certificate every rank out of j <= n-2 in the window, and
    on a smooth input every rank out of n - 1 too, equals the rank of its
    eliminated block."""
    win = support.window(text, variables)
    ev = assumption_evidence(win)
    n, d = win.n, win.d
    top = n - 1 if ev.seed is None else n - 2
    assert ev.passed and win._exact_through == top
    ref = support.window(text, variables)
    keys = [(j, k - (n - j) * d) for k in range(win.k_max + 1) for j in range(top + 1)]
    keys = [(j, m) for j, m in keys if m >= j]
    assert keys
    assert {key: win.rank_wedge(*key) for key in keys} == {
        key: support.reference_rank(ref, *key) for key in keys
    }


# -- column builders against the tuple-keyed reference --------------------------

# (text, variables, largest source degree m checked); n = 2..5, with
# negative and non-unit coefficients and a mixed monomial
COLUMN_CASES = [
    ("x^3*y^2 - 7*x*y^4", support.VARS2, 9),
    ("x^5 + y^5 + x^2*y^2*z", support.VARS3, 9),
    ("3*x^2*y^3 + 7*z^5 - 11*w^5 + 5*x*y*z*w^2", support.VARS4, 9),
    ("x^2*y^2 + z^4 - 2*w^4 + v^4 + 3*x*y*z*v", ("x", "y", "z", "w", "v"), 7),
]


def _entries(cols):
    """Columns as key-ordered entry lists, so key order counts."""
    return [list(col.items()) for col in cols]


@pytest.mark.parametrize("text, variables, top", COLUMN_CASES)
def test_columns_match_reference_builders(text, variables, top):
    """df wedge, the exterior derivative and multiplication by y^p (the
    reference split's columns, from the window's offset maps) equal the
    tuple-keyed construction entry for entry and in key order, which pins
    every elimination tie-break downstream."""
    win = KoszulWindow(support.poly(text, variables))
    for j in range(win.n):
        for m in range(j, top + 1):
            assert _entries(win.wedge_columns(j, m)) == _entries(
                support.reference_wedge_columns(win, j, m)
            ), (j, m)
            assert _entries(win.derivative_columns(j, m)) == _entries(
                support.reference_derivative_columns(win, j, m)
            ), (j, m)
    y = generic_linear_form(win.n, 5)
    for k in range(win.n, top + 1):
        for p in (1, 2, 3):
            terms = y.pow(p).integer_terms()
            assert _entries(support.mult_columns(win, k, terms)) == _entries(
                support.reference_mult_columns(win, terms, k, p)
            ), (k, p)


def test_shift_maps_add_exponents():
    """monomials(m + |e|)[shift(m, e)[a]] == monomials(m)[a] + e, for every
    unit exponent up to degree 6 and for seeded random degrees and
    exponents."""
    rng = random.Random(20261018)
    for n in (2, 3, 4, 5):
        variables = tuple(f"x{i}" for i in range(n))
        store = KoszulWindow(support.poly(" + ".join(f"{v}^3" for v in variables), variables)).columns
        units = [(m, tuple(int(l == i) for l in range(n))) for m in range(7) for i in range(n)]
        drawn = [(rng.randint(0, 6), tuple(rng.randint(0, 3) for _ in range(n))) for _ in range(12)]
        for m, e in units + drawn:
            src, dst = store.monomials(m), store.monomials(m + sum(e))
            assert src == support.lex_monomials(n, m)
            table = store.shift(m, e)
            assert len(table) == len(src)
            for a, r in zip(src, table):
                assert dst[r] == tuple(x + y for x, y in zip(a, e)), (m, e, a)


def test_forced_window_eliminates_each_block_once_over_q(monkeypatch):
    """After the certificate and force_exact() the table's exact ranks and
    its exact push share their eliminations: an (n-1, m) block whose image
    lies in M_k, n <= k <= n*d, takes its rank from the exact image span the
    push reduces by, so every (n-1, m) block is eliminated over Q exactly
    once.  A rank out of j <= n-2 is read off exactness: no block of it is
    eliminated, before or after force_exact()."""
    win = support.window("x^3 + y^2*z", support.VARS3)
    exact = []  # every row list eliminated over Q, kept alive
    real = linalg._eliminate

    def eliminate(rows, p=0, rhs=None):
        if not p:
            exact.append(rows)
        return real(rows, p, rhs)

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    assert assumption_evidence(win).passed
    win.force_exact()
    ks = range(win.k_max + 1)
    rows = [win.mu(k) for k in ks], [win.nu(k) for k in ks]
    win.free_ranks(generic_linear_form(win.n, 0))
    monkeypatch.undo()
    counts = {key: sum(r is win.wedge_columns(*key) for r in exact) for key in win._rank}
    top = {key: c for key, c in counts.items() if key[0] == win.n - 1}
    lower = {key: c for key, c in counts.items() if key[0] < win.n - 1}
    n, d = win.n, win.d
    assert set(top) == {(n - 1, k - d) for k in range(n - 1 + d, win.k_max + 1)}
    assert set(top.values()) == {1}, top
    assert lower and set(lower.values()) == {0}, lower
    ref = support.window("x^3 + y^2*z", support.VARS3)
    assert rows == ([ref.mu(k) for k in ks], [ref.nu(k) for k in ks])
