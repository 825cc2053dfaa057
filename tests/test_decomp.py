"""Torsion/free decomposition, identity suite, local-data checks."""

import copy
import random
from fractions import Fraction
from math import prod

import pytest

import support
import tables
from koszulspec import decomp, koszul
from koszulspec.decomp import (
    AssumptionFailure,
    IdentityViolation,
    NotStabilizedError,
    build_invariant_table,
    check_free_generators,
    check_nodal_vanishing,
    classify_type,
    nodal_nu_bound,
    tau,
    verify_corollaries,
)
from koszulspec.koszul import KoszulWindow
from koszulspec.linalg import DEFAULT_PRIMES, PRIME_PRODUCT, ModularSpan
from koszulspec.poly import HomogeneousPoly, generic_linear_form


def test_tau_values():
    expected = {
        "xyz": 3,
        "x2y2": 2,
        "twoa3": 6,
        "fourlines": 6,
        "threenodes": 3,
        "fivelines": 10,
        "cusp": 2,
        "cayley": 4,
        "fermat3_3": 0,
        "fermat4_4": 0,
        "nonwh": 10,
        "conecubic_3": 4,
        "conecubic_4": 8,
    }
    for label, t in expected.items():
        assert support.corpus_table(label).tau == t, label


def test_tau_needs_stabilized_window():
    win = KoszulWindow(support.corpus_poly("xyz"), k_max=4)
    with pytest.raises(NotStabilizedError):
        tau(win)


def test_table_on_a_given_window(monkeypatch):
    """build_invariant_table runs on the window it is handed, of its own f
    and top only; without one, a top below n*d is refused before any window
    is built."""
    f = support.corpus_poly("xyz")
    win = KoszulWindow(f)
    assert build_invariant_table(f, win=win) == support.corpus_table("xyz")
    assert win._rank
    for g, k_max in ((support.corpus_poly("fourlines"), None), (f, win.k_max + 1)):
        with pytest.raises(ValueError, match="not one of f"):
            build_invariant_table(g, k_max, win=KoszulWindow(f))
    monkeypatch.setattr(decomp, "KoszulWindow", None)
    with pytest.raises(ValueError, match=r"k_max must be at least n\*d = 9"):
        build_invariant_table(f, k_max=8)


def test_frozen_example_tables():
    for data in tables.FIVE_EXAMPLES:
        tab = support.table(data["text"], data["variables"])
        assert tab.n == data["n"] and tab.d == data["d"]
        assert tab.tau == data["tau"]
        assert tab.type_flag == data["type"]
        for key in ("gamma", "mu_torsion", "mu_free", "mu", "nu"):
            tables.assert_row(getattr(tab, key), data[key], label=f"{data['label']}.{key}")


def test_table_is_internally_consistent():
    for label in ("xyz", "twoa3", "cayley", "x2y2"):
        tab = support.corpus_table(label)
        assert len(tab.mu) == tab.k_max + 1
        for k in range(tab.k_max + 1):
            assert tab.mu[k] == tab.mu_torsion[k] + tab.mu_free[k]
            assert tab.mu[k] - tab.nu[k] == tab.gamma[k]


def test_non_wh_table_rows():
    data = tables.NON_WH
    tab = support.table(data["text"], data["variables"])
    assert tab.k_max == data["k_max"]
    assert tab.tau == data["tau"]
    assert tab.mu == data["mu"]
    tables.assert_row(tab.mu_torsion, data["mu_torsion"], label="mu_torsion")
    tables.assert_row(tab.nu, data["nu"], label="nu")


def test_verify_corollaries_clean_corpus():
    for label in ("xyz", "fourlines", "twoa3", "cayley", "nonwh", "x3y2"):
        report = verify_corollaries(support.corpus_table(label))
        assert report.ok, label
        assert not report.violations
        assert report.min_defect_lhs >= 0, label
        assert report.min_defect_rhs >= 0, label
        assert report.defect_sides_nonnegative


def test_verify_corollaries_detects_tampering():
    tab = copy.deepcopy(support.corpus_table("xyz"))
    tab.mu_torsion[5] += 1
    report = verify_corollaries(tab)
    assert not report.ok
    names = {v[0] for v in report.violations}
    assert "torsion-symmetry" in names
    assert "torsion-from-mu" in names


def test_classify_type():
    assert classify_type(support.corpus_table("xyz")) == "I"
    assert classify_type(support.corpus_table("nonwh")) == "I"
    # a missing variable pushes nu below the midpoint once d is large enough
    assert classify_type(support.corpus_table("conecubic_4")) == "II"
    assert support.corpus_table("conecubic_4").type_flag == "II"


def test_free_generators_on_nodal_corpus():
    for label, span in support.SPAN_RANK.items():
        tab = support.corpus_table(label)
        report = check_free_generators(tab, span_rank=span)
        assert report.applicable, label
        assert report.base_ok, label
        assert report.span_ok, label
        assert report.mu_free_at_n == 1


def test_free_generators_span_shortfall():
    # there is no room for 4 independent generators one degree up
    report = check_free_generators(support.corpus_table("xyz"), span_rank=4)
    assert report.base_ok
    assert not report.span_ok


def test_free_generators_need_singularities():
    report = check_free_generators(support.corpus_table("fermat3_3"))
    assert not report.applicable


def test_independent_nodes_free_part():
    """Coordinate-point nodes: mu'' jumps from 1 straight to tau."""
    for label, n in (("xyz", 3), ("cayley", 4)):
        tab = support.corpus_table(label)
        row = tab.mu_free
        assert all(row[k] == 0 for k in range(n))
        assert row[n] == 1
        assert all(row[k] == tab.tau for k in range(n + 1, tab.k_max + 1))


def test_mu_split_values():
    """Torsion/free rows of the split at k = 2 and k = 4, on the modular
    path and again after force_exact()."""
    win = support.window("x^2*y^2", support.VARS2)
    y = generic_linear_form(2, 0)
    for _ in range(2):
        mu_t, mu_f = decomp._split_window(win, y)
        assert (mu_t[2], mu_f[2]) == (0, 1)
        assert (mu_t[4], mu_f[4]) == (1, 2)
        win.force_exact()


def test_seed_independence_of_split():
    """Different generic forms, identical torsion/free rows."""
    for label in ("xyz", "twoa3"):
        a = support.corpus_table(label, seed=0)
        b = support.corpus_table(label, seed=7)
        assert a.mu_torsion == b.mu_torsion
        assert a.mu_free == b.mu_free
        assert a.seed == 0 and b.seed == 7


def _skewed_split(monkeypatch, always: bool) -> list[str]:
    """Make `_split_window` return a split that breaks free-plus-nu (mu''
    one too large everywhere) on every attempt before force_exact(), or on
    every attempt when `always`; returns the calls of both in order."""
    real_split = decomp._split_window
    real_force = KoszulWindow.force_exact
    calls = []

    def skewed(win, y):
        calls.append("split")
        mu_t, mu_f = real_split(win, y)
        if always or "force_exact" not in calls:
            mu_f = [v + 1 for v in mu_f]
        return mu_t, mu_f

    def force_exact(self):
        calls.append("force_exact")
        real_force(self)

    monkeypatch.setattr(decomp, "_split_window", skewed)
    monkeypatch.setattr(KoszulWindow, "force_exact", force_exact)
    return calls


ATTEMPTS = ["split", "split", "split", "force_exact", "split"]


def test_table_falls_back_to_the_exact_attempt(monkeypatch):
    """Three modular attempts with advancing seeds fail; the exact attempt
    with the original seed gives the normal table."""
    normal = build_invariant_table(support.poly("x*y*z", support.VARS3), seed=3)
    calls = _skewed_split(monkeypatch, always=False)
    tab = build_invariant_table(support.poly("x*y*z", support.VARS3), seed=3)
    assert calls == ATTEMPTS
    assert tab == normal
    assert tab.seed == 3


def test_table_raises_when_every_attempt_fails(monkeypatch):
    calls = _skewed_split(monkeypatch, always=True)
    with pytest.raises(IdentityViolation) as err:
        build_invariant_table(support.poly("x*y*z", support.VARS3), seed=3)
    assert calls == ATTEMPTS
    assert err.value.violations[0][0] == "free-plus-nu"


def test_split_spans_survive_seed_retries(monkeypatch):
    """The image of df wedge in each degree n <= k <= n*d is eliminated once
    for the whole table, modulo p0*p1, while mu is read: the certificate and
    the first split attempt build them, and the two failing modular split
    attempts after it build no further span, and neither does the exact
    attempt."""
    real_init, real_span = KoszulWindow.__init__, ModularSpan.__init__
    windows, built = [], []
    calls = _skewed_split(monkeypatch, always=False)

    def window(self, *args):
        windows.append(self)
        real_init(self, *args)

    def counted(self, columns, p):
        calls.append("span")
        built.append((id(columns), p))
        real_span(self, columns, p)

    monkeypatch.setattr(KoszulWindow, "__init__", window)
    monkeypatch.setattr(ModularSpan, "__init__", counted)
    build_invariant_table(support.poly("x*y*z", support.VARS3), seed=3)
    [win] = windows
    n, d = win.n, win.d
    blocks = [id(win.wedge_columns(n - 1, k - d)) for k in range(n - 1 + d, n * d + 1)]
    assert sorted(built) == sorted((b, PRIME_PRODUCT) for b in blocks)
    assert [c for c in calls if c != "span"] == ATTEMPTS
    second = calls.index("split", calls.index("split") + 1)
    assert "span" not in calls[second:]


def test_one_modular_elimination_per_wedge_block(monkeypatch):
    """A table eliminates each (n-1, m) df wedge block it ranks exactly
    once, modulo p0*p1: one rank_mod call, or for an image in M_k, k <=
    n*d, the one ModularSpan that gives both its rank and the split's
    reductions.  It eliminates no block out of j <= n-2: those ranks are
    read off exactness, and count as exact.  On a smooth input it
    eliminates only the block behind mu(n*d - n + 1)."""
    windows, eliminated = [], []
    real_init, real_span, real_rank = KoszulWindow.__init__, ModularSpan.__init__, koszul.rank_mod

    def window(self, *args):
        windows.append(self)
        real_init(self, *args)

    def span(self, columns, p):
        eliminated.append((id(columns), p))
        real_span(self, columns, p)

    def rank(columns, nrows, p):
        eliminated.append((id(columns), p))
        return real_rank(columns, nrows, p)

    monkeypatch.setattr(KoszulWindow, "__init__", window)
    monkeypatch.setattr(ModularSpan, "__init__", span)
    monkeypatch.setattr(koszul, "rank_mod", rank)
    for text in ("x^2*y^2 + z^4", "x^4 + y^4 + z^4"):
        windows.clear()
        eliminated.clear()
        tab = build_invariant_table(support.poly(text, support.VARS3))
        [win] = windows
        n, d = win.n, win.d
        lower = {key for key in win._rank if key[0] <= n - 2}
        assert lower and lower <= win._exact
        if tab.tau:
            keys = [key for key in win._rank if key[0] == n - 1]
        else:
            keys = [(n - 1, n * d - n + 1 - d)]
        blocks = [id(win.wedge_columns(*key)) for key in keys if win.wedge_columns(*key)]
        assert sorted(eliminated) == sorted((b, PRIME_PRODUCT) for b in blocks), text


def test_assumption_failure_raised():
    with pytest.raises(AssumptionFailure) as err:
        build_invariant_table(support.poly("x^2", support.VARS3))
    assert err.value.evidence is not None
    assert not err.value.evidence.passed


def test_nodal_nu_bound_values():
    assert nodal_nu_bound(3, 3) == 5
    assert nodal_nu_bound(3, 4) == 7
    assert nodal_nu_bound(3, 5) == 9
    assert nodal_nu_bound(4, 3) == 6
    assert nodal_nu_bound(2, 4) == 4
    assert nodal_nu_bound(5, 3) == 8


def test_nodal_vanishing_on_nodal_corpus():
    for label in support.NODAL:
        check_nodal_vanishing(support.corpus_table(label))


def test_nodal_vanishing_rejects_early_nu():
    tab = copy.deepcopy(support.corpus_table("xyz"))
    tab.nu[4] = 1
    with pytest.raises(IdentityViolation):
        check_nodal_vanishing(tab)


def test_syzygy_counts_match_first_nu():
    # for the two detector examples the count equals the first nu entry
    assert support.corpus_table("xyz").nu[6] == 2
    assert support.corpus_table("twoa3").nu[7] == 1


def test_split_skips_a_zero_target(monkeypatch):
    """Where mu(n*d) = 0 the free rank is 0 without any push or elimination:
    on a smooth input the table never pushes, reduces by no span and ranks
    nothing.  On a singular one the certificate ranks once, against the span
    in its degree, and each attempt pushes once, where only the span in
    degree n*d ranks, once per degree n <= k <= n*d - n."""

    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called")

        return call

    for cls, name in [(KoszulWindow, "free_ranks"), (KoszulWindow, "_push"),
                      (ModularSpan, "reduce"), (ModularSpan, "added_rank")]:
        monkeypatch.setattr(cls, name, refuse(name))
    data = tables.FERMAT_CUBIC
    tab = build_invariant_table(support.poly(data["text"], data["variables"]))
    assert tab.tau == data["tau"]
    for key in ("mu", "mu_torsion", "mu_free", "nu"):
        tables.assert_row(getattr(tab, key), data[key], label=f"fermat cubic.{key}")
    monkeypatch.undo()

    real_free, real_added = KoszulWindow.free_ranks, ModularSpan.added_rank
    pushed, ranked = [], []

    def free(self, y):
        pushed.append(self)
        return real_free(self, y)

    def added(self, columns):
        ranked.append(self)
        return real_added(self, columns)

    monkeypatch.setattr(KoszulWindow, "free_ranks", free)
    monkeypatch.setattr(ModularSpan, "added_rank", added)
    tab = build_invariant_table(support.corpus_poly("xyz"))
    [win] = pushed
    top = win._image_span(win.n * win.d, PRIME_PRODUCT)
    cert = win._image_span(support.certificate_degree(win.n, win.d), PRIME_PRODUCT)
    assert ranked == [cert] + [top] * (win.n * win.d - 2 * win.n + 1)
    tables.assert_row(tab.mu_free, tables.XYZ["mu_free"], label="xyz.mu_free")


def _rescaled(f, label):
    """f with each x_i replaced by c_i * x_i, c_i seeded by the label."""
    rng = random.Random(f"rescale {label}")
    c = [rng.randint(2, 5) for _ in range(f.n)]
    terms = {e: a * prod(Fraction(ci) ** ei for ci, ei in zip(c, e)) for e, a in f.terms.items()}
    return HomogeneousPoly(f.n, f.degree, terms)


@pytest.mark.parametrize("rescale", [False, True])
@pytest.mark.parametrize(
    "label",
    [
        "ts_4_4_1", "ts_4_4_2", "cayley", "nonwh",
        "x^5 + y^4*z + x^2*y^2*z", "x^6 + y^6 + x^2*y^2*z^2",
        # x*y^3 + z^4 with y -> y + z
        "x*y^3 + 3*x*y^2*z + 3*x*y*z^2 + x*z^3 + z^4",
        # x^2*y^2 + z^4 with x -> x + z, y -> y + 2*z
        "x^2*y^2 + 4*x^2*y*z + 4*x^2*z^2 + 2*x*y^2*z + 8*x*y*z^2 + 8*x*z^3"
        " + y^2*z^2 + 4*y*z^3 + 5*z^4",
    ],
)
def test_free_ranks_match_the_y_power_reference(label, rescale):
    """The one-degree push gives the ranks of the y^p columns reduced in
    M_{n*d}, modulo p0*p1 and on a forced-exact window.  The modular window
    builds no exact echelon, and the exact one builds no span.

    On the exact path an image in M_{n*d} is summed again one degree down,
    so it must be the image itself, not a multiple with a scale of its own.
    On the last two curves the singular points are off the coordinate
    vertices, so y maps torsion onto torsion that no set of free monomials
    spans, and images kept up to such scales give mu_free 6, not 5, in
    degree n*d - n - 1."""
    if label in support.CORPUS:
        f = support.corpus_poly(label)
    else:
        f = support.poly(label, support.VARS3)
    if rescale:
        f = _rescaled(f, label)
    y = generic_linear_form(f.n, 11 if rescale else 0)
    win, exact = KoszulWindow(f), KoszulWindow(f)
    exact.force_exact()
    got = win.free_ranks(y)
    assert sorted(got) == list(range(f.n, f.n * f.degree - f.n + 1))
    assert got == support.reference_free_ranks(win, y)
    assert exact.free_ranks(y) == support.reference_free_ranks(exact, y, exact=True) == got
    assert {p for _, p in win._image_spans} == {PRIME_PRODUCT}
    assert {p for _, p in exact._image_spans} == {0}


@pytest.mark.parametrize("prime", DEFAULT_PRIMES)
@pytest.mark.parametrize(
    "text, variables",
    [("{}*x^3 + y^2*z", support.VARS3), ("x^2*y^2 + {}*z^4", support.VARS3),
     ("{}*x^3 + y^3", support.VARS2), ("x^2 + {}*y^2", support.VARS2)],
)
def test_free_ranks_fall_back_to_exact_on_a_zero_divisor(text, variables, prime):
    """A lone coefficient divisible by p0 or p1 makes a span meet a zero
    divisor: the push then runs exact, and agrees with the exact y^p
    reference."""
    f = support.poly(text.format(prime), variables)
    win = KoszulWindow(f)
    y = generic_linear_form(f.n, 0)
    got = win.free_ranks(y)
    assert None in win._image_spans.values() and (win.n * win.d, 0) in win._image_spans
    assert got == support.reference_free_ranks(KoszulWindow(f), y, exact=True)


@pytest.mark.parametrize(
    "text, p, q",
    [("x^5 + y^4*z + x^2*y^2*z", 4, 5), ("x^5 + y^5 + x^2*y^2*z", 5, 5),
     ("x^5*z + y^6 + x^2*y^2*z^2", 5, 6), ("x^6 + y^6 + x^2*y^2*z^2", 6, 6),
     ("x^7 + y^7 + x^2*y^2*z^3", 7, 7)],
)
def test_tau_of_a_single_t_pq_point(text, p, q):
    """Each curve has one singular point, a T_{p,q} germ x^p + y^q + x^2*y^2
    with 1/p + 1/q < 1/2.  Its Milnor number is p + q + 1, and since the
    germ is not quasi-homogeneous its Tjurina number is one less (K. Saito,
    Invent. Math. 14, 1971): tau = p + q.  The split passes every proved
    relation."""
    tab = build_invariant_table(support.poly(text, support.VARS3))
    assert tab.tau == p + q
    assert verify_corollaries(tab).ok
