"""Metamorphic oracles: changes of the input that no invariant can see.

Scaling one variable, an elementary unimodular substitution
x_i -> x_i + a*x_j, three of them in a row, and multiplying f by a nonzero
constant are invertible over Q: the new polynomial defines the same
hypersurface up to a linear change of coordinates.  So every table row, both stage-2 rows, the torsion
profile and the pole order spectrum must stay as they are.  So must
multiplying the coefficient of a term that is the only one holding some
variable x_i: over C that is scaling x_i by a root of the factor, and the
invariants are dimensions, which do not change from Q to C.  These checks
need no frozen value (Chen et al., "Metamorphic testing: a review of
challenges and opportunities", ACM Computing Surveys 51(1), 2018).  The
inputs have n <= 3, so that a substitution stays cheap.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

import support
from koszulspec import koszul
from koszulspec.decomp import build_invariant_table
from koszulspec.koszul import KoszulWindow
from koszulspec.linalg import DEFAULT_PRIMES, PRIME_PRODUCT, ModularSpan, ZeroDivisorError
from koszulspec.poly import HomogeneousPoly, generic_linear_form
from koszulspec.polespec import pole_spectrum, stage_snapshot, torsion_profile

LABELS = ["xyz", "twoa3", "cusp", "x3y2+x2y3", "nonwh"]


def _scaled(f, i, c):
    """f with x_i replaced by c * x_i."""
    return HomogeneousPoly(f.n, f.degree, {e: a * Fraction(c) ** e[i] for e, a in f.terms.items()})


def _substituted(f, i, j, a):
    """f with x_i replaced by x_i + a * x_j."""
    n = f.n
    images = [HomogeneousPoly(n, 1, {tuple(int(m == l) for m in range(n)): 1}) for l in range(n)]
    images[i] = images[i].add(images[j].scale(a))
    out = HomogeneousPoly(n, f.degree, {})
    for e, c in f.terms.items():
        term = HomogeneousPoly(n, 0, {(0,) * n: c})
        for image, k in zip(images, e):
            term = term.mul(image.pow(k))
        out = out.add(term)
    return out


def _invariants(f):
    tab = build_invariant_table(f)
    win = KoszulWindow(f)
    return {
        "table": (tab.tau, tab.type_flag, tab.gamma, tab.mu, tab.mu_torsion, tab.mu_free, tab.nu),
        "stage 2": stage_snapshot(win, 2),
        "torsion profile": torsion_profile(win),
        "spectrum": pole_spectrum(win),
    }


def _input(label):
    """A corpus entry, or the one input kept outside the corpus."""
    if label == "x2+y2":
        return support.poly("x^2 + y^2", support.VARS2)
    return support.corpus_poly(label)


@lru_cache(maxsize=None)
def _plain(label):
    return _invariants(_input(label))


def _moves(label):
    """The seeded changes of one input, by name."""
    f = support.corpus_poly(label)
    rng = random.Random(label)
    i, j = rng.sample(range(f.n), 2)
    return {
        "scale": _scaled(f, rng.randrange(f.n), rng.randint(2, 5)),
        "substitute": _substituted(f, i, j, rng.choice((-2, -1, 1, 2))),
        "constant": f.scale(Fraction(rng.choice((-7, -3, 2, 5)), rng.choice((1, 2, 3)))),
    }


@pytest.mark.parametrize("move", ["scale", "substitute", "constant"])
@pytest.mark.parametrize("label", LABELS)
def test_invariants_survive_a_change_of_coordinates(label, move):
    g = _moves(label)[move]
    assert g != support.corpus_poly(label)
    assert _invariants(g) == _plain(label)


@pytest.mark.parametrize("label", ["xyz", "cusp", "x3y2+x2y3"])
def test_invariants_survive_a_unimodular_substitution(label):
    """Three seeded elementary substitutions in a row, a unimodular change
    of coordinates with integer inverse; on the cheapest inputs only, as
    the substituted polynomials fill in."""
    f = support.corpus_poly(label)
    rng = random.Random(f"unimodular {label}")
    g = f
    for _ in range(3):
        i, j = rng.sample(range(f.n), 2)
        g = _substituted(g, i, j, rng.choice((-2, -1, 1, 2)))
    assert g != f
    assert _invariants(g) == _plain(label)


@pytest.mark.xfail(
    strict=True,
    reason="fixed-prime hole: p0*p1 vanishes modulo both default primes, so the "
    "modular ranks see f without its terms in x; open until the ranks are certified",
)
@pytest.mark.parametrize("label", ["twoa3", "x3y2+x2y3"])
def test_scaling_by_the_prime_product(label):
    f = support.corpus_poly(label)
    assert _invariants(_scaled(f, 0, DEFAULT_PRIMES[0] * DEFAULT_PRIMES[1])) == _plain(label)


# per input, a term that is the only one holding some variable
LONE_TERMS = {"cusp": (3, 0, 0), "twoa3": (0, 0, 4), "x3+y3": (3, 0), "x2+y2": (0, 2)}


@pytest.mark.parametrize("factor", [2, 3, 4, 5, *DEFAULT_PRIMES])
@pytest.mark.parametrize("label", list(LONE_TERMS))
def test_invariants_survive_scaling_a_lone_coefficient(monkeypatch, label, factor):
    """A factor p0 or p1 makes the elimination modulo p0*p1 meet a zero
    divisor: those cases must fall back to exact elimination, never to a
    modulus other than p0*p1, and every wedge rank and the free ranks of
    the split must equal those of a forced-exact window."""
    f = _input(label)
    lone = LONE_TERMS[label]
    assert any(lone[i] and all(not e[i] for e in f.terms if e != lone) for i in range(f.n))
    g = HomogeneousPoly(f.n, f.degree, {e: c * factor if e == lone else c for e, c in f.terms.items()})
    moduli, raised = [], []
    real_rank, real_span = koszul.rank_mod, ModularSpan.__init__

    def rank(columns, nrows, p):
        moduli.append(p)
        try:
            return real_rank(columns, nrows, p)
        except ZeroDivisorError:
            raised.append(p)
            raise

    def span(self, columns, p):
        moduli.append(p)
        try:
            real_span(self, columns, p)
        except ZeroDivisorError:
            raised.append(p)
            raise

    monkeypatch.setattr(koszul, "rank_mod", rank)
    monkeypatch.setattr(ModularSpan, "__init__", span)
    got = _invariants(g)
    # the window's own ranks, which the table's exact retry cannot mask
    win, exact = KoszulWindow(g), KoszulWindow(g)
    exact.force_exact()
    k = g.n * g.degree
    y = generic_linear_form(g.n, 0)
    blocks = [(j, m) for j in range(g.n) for m in range(j, k - g.degree + 1)]
    assert [win.rank_wedge(*b) for b in blocks] == [exact.rank_wedge(*b) for b in blocks]
    assert win.free_ranks(y) == exact.free_ranks(y)
    monkeypatch.undo()
    assert set(moduli) == {PRIME_PRODUCT}
    assert bool(raised) == (factor in DEFAULT_PRIMES)
    assert got == _plain(label)
