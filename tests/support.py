"""Shared builders and corpora.

Polynomials and tables are cached per input so the expensive objects are
built once and shared across test modules.  Windows are built fresh on every
call: a window is mutable (its rank cache takes exact ranks from a tower run
or force_exact(), and it caches its tower's result), so no test reads what
another one left in it.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import lcm

from koszulspec.closedform import BinaryFormFactorization
from koszulspec.decomp import build_invariant_table
from koszulspec.koszul import KoszulWindow
from koszulspec.linalg import (
    DEFAULT_PRIMES,
    PRIME_PRODUCT,
    IntEchelon,
    ModularSpan,
    combo_kernel,
    rank_exact_rows,
    rank_mod,
)
from koszulspec.poly import HomogeneousPoly, parse_poly, serialize_poly

VARS2 = ("x", "y")
VARS3 = ("x", "y", "z")
VARS4 = ("x", "y", "z", "w")


@lru_cache(maxsize=None)
def poly(text, variables):
    return parse_poly(text, list(variables))


def window(text, variables, k_max=None):
    return KoszulWindow(poly(text, variables), k_max=k_max)


@lru_cache(maxsize=None)
def table(text, variables, k_max=None, seed=0):
    return build_invariant_table(poly(text, variables), k_max=k_max, seed=seed)


# -- binary forms -------------------------------------------------------------

# distinct linear forms; patterns index into this list
LINS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, -1), (1, 3), (3, 1)]

PATTERNS = [
    (1, 1), (2,), (2, 1), (3,), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (4,),
    (1, 1, 1, 1), (3, 2), (2, 2, 1), (4, 1), (3, 3), (2, 2, 2), (4, 2),
    (5, 1), (2, 2, 1, 1), (3, 3, 3), (6, 2),
]


def linear_form(a, b):
    return HomogeneousPoly(2, 1, {(1, 0): Fraction(a), (0, 1): Fraction(b)})


@lru_cache(maxsize=None)
def binary_factorization(pattern):
    pairs = [(linear_form(*LINS[i]), m) for i, m in enumerate(pattern)]
    return BinaryFormFactorization.from_factors(pairs)


def pencil_member(m):
    """(x^m + y^m) x^m y^m: m simple factors plus x, y with multiplicity m.

    The simple factors are not rational, so only the multiplicity vector is
    recorded; every closed form below depends on nothing else."""
    return BinaryFormFactorization((1,) * m + (m, m))


def pencil_text(m):
    return f"x^{2 * m}*y^{m} + x^{m}*y^{2 * m}"


@lru_cache(maxsize=None)
def binary_text(pattern):
    """Expanded text of the standard factorization, for feeding the engine."""
    return serialize_poly(binary_factorization(pattern).expand(), list(VARS2))


# -- the identity corpus ------------------------------------------------------

# label -> (text, variables).  Everything is fully expanded because the
# parser has no parentheses; products were expanded by hand once.
CORPUS = {
    # n = 2
    "xy": ("x*y", VARS2),
    "x2": ("x^2", VARS2),
    "x2y": ("x^2*y", VARS2),
    "x3+y3": ("x^3 + y^3", VARS2),
    "x2y2": ("x^2*y^2", VARS2),
    "x3y": ("x^3*y", VARS2),
    "x3y2": ("x^3*y^2", VARS2),
    "x3y2+x2y3": ("x^3*y^2 + x^2*y^3", VARS2),
    # n = 3
    "fermat2_3": ("x^2 + y^2 + z^2", VARS3),
    "fermat3_3": ("x^3 + y^3 + z^3", VARS3),
    "fermat4_3": ("x^4 + y^4 + z^4", VARS3),
    "fermat5_3": ("x^5 + y^5 + z^5", VARS3),
    "xyz": ("x*y*z", VARS3),
    "fourlines": ("x^2*y*z + x*y^2*z + x*y*z^2", VARS3),
    "threenodes": ("x^2*y^2 + x^2*z^2 + y^2*z^2", VARS3),
    "twoa3": ("x^2*y^2 + z^4", VARS3),
    "cusp": ("x^3 + y^2*z", VARS3),
    "conecubic_3": ("x^3 + y^3", VARS3),
    "ts_3_4_1": ("x*y^3 + z^4", VARS3),
    "ts_3_5_1": ("x*y^4 + z^5", VARS3),
    "ts_3_5_2": ("x^2*y^3 + z^5", VARS3),
    "fivelines": (None, VARS3),  # filled below
    "nonwh": ("x^5 + y^5 + x^2*y^2*z", VARS3),
    # n = 4
    "fermat2_4": ("x^2 + y^2 + z^2 + w^2", VARS4),
    "fermat3_4": ("x^3 + y^3 + z^3 + w^3", VARS4),
    "fermat4_4": ("x^4 + y^4 + z^4 + w^4", VARS4),
    "fermat5_4": ("x^5 + y^5 + z^5 + w^5", VARS4),
    "cayley": ("x*y*z + x*y*w + x*z*w + y*z*w", VARS4),
    "ts_4_4_1": ("x*y^3 + z^4 + w^4", VARS4),
    "ts_4_4_2": ("x^2*y^2 + z^4 + w^4", VARS4),
    "ts_4_5_2": ("x^2*y^3 + z^5 + w^5", VARS4),
    "conecubic_4": ("x^3 + y^3 + z^3", VARS4),
}


def _expand_product(texts, variables):
    f = parse_poly(texts[0], list(variables))
    for t in texts[1:]:
        f = f.mul(parse_poly(t, list(variables)))
    return f


@lru_cache(maxsize=None)
def corpus_poly(label):
    if label == "fivelines":
        return _expand_product(["x", "y", "z", "x + y + z", "x + 2*y + 3*z"], VARS3)
    text, variables = CORPUS[label]
    return parse_poly(text, list(variables))


@lru_cache(maxsize=None)
def corpus_table(label, seed=0):
    return build_invariant_table(corpus_poly(label), seed=seed)


def corpus_window(label):
    return KoszulWindow(corpus_poly(label))


# nodes with known coordinates: how much of the ambient space they span
SPAN_RANK = {"xyz": 3, "fourlines": 3, "fivelines": 3, "threenodes": 3, "cayley": 4}

# all singular points are ordinary nodes
NODAL = ["xyz", "fourlines", "threenodes", "fivelines", "cayley"]

# n = 3 entries with known smallest local spectral exponent
ALPHA_MIN = {
    "xyz": Fraction(1),
    "fourlines": Fraction(1),
    "threenodes": Fraction(1),
    "fivelines": Fraction(1),
    "twoa3": Fraction(3, 4),
    "cusp": Fraction(5, 6),
}

# weighted homogeneous singularities throughout: the tower must stop by
# stage two with nothing in the torsion profile
WEIGHTED_HOMOGENEOUS = [
    "xyz",
    "fourlines",
    "threenodes",
    "twoa3",
    "x2y2",
    "fermat2_3",
    "fermat3_3",
    "fermat4_3",
    "fermat5_3",
    "cusp",
    "fivelines",
    "conecubic_3",
    "cayley",
    "ts_3_4_1",
    "ts_3_5_1",
    "ts_3_5_2",
]


# -- randomized rank check ----------------------------------------------------


def random_sparse(rng, rows, cols, density=0.4):
    """Integer columns of a random sparse rational matrix: the entries are
    drawn as fractions, row by row, and each column is then cleared of
    denominators, which keeps its rank."""
    fracs = [dict() for _ in range(cols)]
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                num = rng.randint(-9, 9)
                den = rng.choice([1, 1, 1, 2, 3])
                if num:
                    fracs[c][r] = Fraction(num, den)
    columns = []
    for col in fracs:
        scale = lcm(*(v.denominator for v in col.values()))
        columns.append({r: int(v * scale) for r, v in col.items()})
    return columns


def dense_rank(columns, nrows):
    """Plain fraction Gaussian elimination; independent of the library code."""
    ncols = len(columns)
    a = [[Fraction(columns[c].get(r, 0)) for c in range(ncols)] for r in range(nrows)]
    rk, row = 0, 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(nrows):
            if i != row and a[i][col]:
                f = a[i][col] / a[row][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        rk += 1
        row += 1
    return rk


def modular_ranks(columns, nrows):
    """Ranks modulo each of the two fixed primes."""
    return tuple(rank_mod(columns, nrows, p) for p in DEFAULT_PRIMES)


def modular_rank_agreement(count=100, seed=20260825):
    """Number of random matrices where the rank modulo each fixed prime, the
    exact rank, and a dense oracle all agree."""
    rng = random.Random(seed)
    agree = 0
    for _ in range(count):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        cols = random_sparse(rng, nrows, ncols)
        r_exact = rank_exact_rows(cols)
        if modular_ranks(cols, nrows) == (r_exact, r_exact) and r_exact == dense_rank(cols, nrows):
            agree += 1
    return agree


# -- reference column builders --------------------------------------------------
#
# The tuple-keyed construction the window's offset maps replaced: a basis
# listed as (index set, exponent) pairs, a dict from pair to position, and
# one tuple lookup per entry.  Slow but plain; the column tests compare the
# window's builders with it entry for entry and in key order.


def lex_monomials(n, m):
    """Exponent tuples of degree m in lexicographic order."""
    out = []
    for factors in combinations_with_replacement(range(n), m):
        expo = [0] * n
        for v in factors:
            expo[v] += 1
        out.append(tuple(expo))
    return sorted(out)


def reference_basis(n, j, k):
    """(index set, exponent) pairs of the degree-k piece of j-forms, index
    sets first, both in lexicographic order."""
    if j < 0 or j > n or k < j:
        return []
    return [(idx, expo) for idx in combinations(range(n), j) for expo in lex_monomials(n, k - j)]


def _reference_index(n, j, k):
    return {item: p for p, item in enumerate(reference_basis(n, j, k))}


def _inserted(i, idx):
    return tuple(sorted(idx + (i,)))


def _sign(i, idx):
    return -1 if sum(1 for l in idx if l < i) & 1 else 1


def reference_wedge_columns(win, j, m):
    cols = []
    if 0 <= j < win.n and m >= j:
        target = _reference_index(win.n, j + 1, m + win.d)
        for idx, expo in reference_basis(win.n, j, m):
            col = {}
            for i in range(win.n):
                if i in idx:
                    continue
                for pexp, c in win.partial_terms[i].items():
                    r = target[(_inserted(i, idx), tuple(a + b for a, b in zip(expo, pexp)))]
                    acc = col.get(r, 0) + _sign(i, idx) * c
                    if acc:
                        col[r] = acc
                    else:
                        del col[r]
            cols.append(col)
    return cols


def reference_derivative_columns(win, j, m):
    cols = []
    if 0 <= j < win.n and m >= j:
        target = _reference_index(win.n, j + 1, m)
        for idx, expo in reference_basis(win.n, j, m):
            col = {}
            for i in range(win.n):
                if i in idx or expo[i] == 0:
                    continue
                low = list(expo)
                low[i] -= 1
                col[target[(_inserted(i, idx), tuple(low))]] = _sign(i, idx) * expo[i]
            cols.append(col)
    return cols


def reference_mult_columns(win, terms, k, p):
    """Multiplication by the form with exponent -> coefficient `terms`, of
    degree p, from n-forms of degree k."""
    target = _reference_index(win.n, win.n, k + p)
    return [
        {target[(idx, tuple(a + b for a, b in zip(expo, add)))]: c for add, c in terms.items()}
        for idx, expo in reference_basis(win.n, win.n, k)
    ]


def mult_columns(win, k, terms):
    """Columns of multiplication by the form with exponent -> integer
    coefficient `terms`, from n-forms of degree k, built from the window's
    offset maps; n-forms have a single index set, so a row is a monomial
    position."""
    cols = [{} for _ in win.monomials(k - win.n)]
    for add, c in terms.items():
        for col, r in zip(cols, win.shift(k - win.n, add)):
            col[r] = c
    return cols


def reference_free_ranks(win, y, exact=False):
    """The y^p-column split: for n <= k <= n*d - n, the rank of
    multiplication by y^p, p = n*d - k, from n-forms of degree k into
    M_{n*d}, with y^p expanded as integer terms and its columns reduced
    against the df wedge image in degree n*d.  Modulo p0*p1 (which may
    raise ZeroDivisorError), or exact by the residuals `combo_kernel`
    keeps.  The window's free ranks push one degree at a time instead."""
    n, nd = win.n, win.n * win.d
    image = win.wedge_columns(n - 1, nd - win.d)
    if exact:
        ech = IntEchelon()
        ech.add_many(image)
    else:
        span = ModularSpan(image, PRIME_PRODUCT)
    y_terms = y.integer_terms()
    power = {(0,) * n: 1}
    ranks = {}
    for p in range(1, nd - n + 1):
        nxt = {}
        for ea, ca in power.items():
            for eb, cb in y_terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                nxt[key] = nxt.get(key, 0) + ca * cb
        power = nxt
        if p >= n:
            cols = mult_columns(win, nd - p, power)
            ranks[nd - p] = len(combo_kernel(cols, ech)[1]) if exact else span.added_rank(cols)
    return ranks
