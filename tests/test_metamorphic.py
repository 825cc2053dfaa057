"""Metamorphic oracles: changes of the input that no invariant can see.

Scaling one variable, an elementary unimodular substitution
x_i -> x_i + a*x_j and multiplying f by a nonzero constant are invertible
over Q: the new polynomial defines the same hypersurface up to a linear
change of coordinates.  So every table row, both stage-2 rows, the torsion
profile and the pole order spectrum must stay as they are.  These checks
need no frozen value (Chen et al., "Metamorphic testing: a review of
challenges and opportunities", ACM Computing Surveys 51(1), 2018).  The
inputs have n <= 3, so that a substitution stays cheap.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

import support
from koszulspec.decomp import build_invariant_table
from koszulspec.koszul import KoszulWindow
from koszulspec.linalg import DEFAULT_PRIMES
from koszulspec.poly import HomogeneousPoly
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


@lru_cache(maxsize=None)
def _plain(label):
    return _invariants(support.corpus_poly(label))


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


@pytest.mark.xfail(
    strict=True,
    reason="fixed-prime hole: p0*p1 vanishes modulo both default primes, so the "
    "modular ranks see f without its terms in x; open until the ranks are certified",
)
@pytest.mark.parametrize("label", ["twoa3", "x3y2+x2y3"])
def test_scaling_by_the_prime_product(label):
    f = support.corpus_poly(label)
    assert _invariants(_scaled(f, 0, DEFAULT_PRIMES[0] * DEFAULT_PRIMES[1])) == _plain(label)
