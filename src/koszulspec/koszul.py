"""Graded pieces of the Koszul complex of the partials of f.

Forms carry the grading deg x_i = deg dx_i = 1, so the degree-k piece of
j-forms has monomials of degree k - j.  Two degree-preserving families of
maps matter here: multiplication by df (raises the grading by d) and the
exterior derivative (preserves it).  Everything downstream is assembled
from ranks and kernels of these matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .linalg import (
    DEFAULT_PRIMES,
    IntEchelon,
    ModularSpan,
    SparseVec,
    combo_kernel,
    rank_exact_rows,
    rank_mod,
)
from .poly import HomogeneousPoly

IndexSet = tuple[int, ...]
Exponent = tuple[int, ...]


def omega_dim(n: int, j: int, k: int) -> int:
    """Dimension of the degree-k piece of j-forms in n variables."""
    if j < 0 or j > n or k < j:
        return 0
    return comb(n, j) * comb(k - j + n - 1, n - 1)


def _monomials(n: int, m: int):
    """All exponent tuples of total degree m, in lexicographic order."""
    if m < 0:
        return
    if n == 1:
        yield (m,)
        return
    for first in range(m + 1):
        for rest in _monomials(n - 1, m - first):
            yield (first,) + rest


def wedge_sign(i: int, idx: IndexSet) -> int:
    """Sign of dx_i wedged onto dx_idx, i.e. (-1)^#{l in idx : l < i}."""
    flips = sum(1 for l in idx if l < i)
    return -1 if flips & 1 else 1


def _unit(n: int, i: int) -> Exponent:
    return tuple(int(l == i) for l in range(n))


def _insert_index(i: int, idx: IndexSet) -> IndexSet:
    out = sorted(idx + (i,))
    return tuple(out)


def gamma_series(n: int, d: int, k_max: int) -> list[int]:
    """Coefficients 0..k_max of t^n * (1 + t + ... + t^(d-2))^n, the common
    Euler characteristic sequence for degree-d forms in n variables."""
    base = [1] * (d - 1)
    poly = [1]
    for _ in range(n):
        if not base:
            poly = []
            break
        nxt = [0] * (len(poly) + len(base) - 1)
        for a, pa in enumerate(poly):
            if pa:
                for b, pb in enumerate(base):
                    nxt[a + b] += pa * pb
        poly = nxt
    out = [0] * (k_max + 1)
    for i, v in enumerate(poly):
        k = i + n
        if k <= k_max:
            out[k] = v
    return out


class KoszulWindow:
    """All graded data of the Koszul complex of f up to degree k_max.

    Ranks are cached per (form degree, grading degree).  The default rank
    path reduces modulo two fixed primes and promotes to exact elimination
    on disagreement; force_exact() recomputes every cached rank exactly and
    sends every later rank, class_rank's included, down the exact path.
    class_rank reduces forms against the df wedge image in M_k, eliminated
    once per prime (or once exactly) and kept for every later call.
    The monomial lists and offset maps the columns are built from are
    cached on the window too, never module-wide, so every window starts
    from the same cold state.
    """

    def __init__(self, f: HomogeneousPoly, k_max: int | None = None):
        if f.is_zero():
            raise ValueError("zero polynomial has no Koszul complex")
        self.f = f
        self.n = f.n
        self.d = f.degree
        self.k_max = k_max if k_max is not None else self.n * self.d + self.d
        if self.k_max < self.n:
            raise ValueError("window too small to contain any top forms")
        terms = f.integer_terms()
        self.partial_terms: list[dict[Exponent, int]] = []
        for i in range(self.n):
            pd: dict[Exponent, int] = {}
            for expo, c in terms.items():
                if expo[i]:
                    low = list(expo)
                    low[i] -= 1
                    pd[tuple(low)] = c * expo[i]
            self.partial_terms.append(pd)
        self._monos: dict[int, list[Exponent]] = {}
        self._shifts: dict[tuple[int, Exponent], list[int]] = {}
        self._subsets: dict[int, dict[IndexSet, int]] = {}
        self._wedge_cols: dict[tuple[int, int], list[SparseVec]] = {}
        self._deriv_cols: dict[tuple[int, int], list[SparseVec]] = {}
        self._rank: dict[tuple[int, int], int] = {}
        self._image_spans: dict[tuple[int, int], ModularSpan] = {}
        self._image_echelons: dict[int, IntEchelon] = {}
        self._exact_ranks = False
        self._gamma = gamma_series(self.n, self.d, self.k_max)
        # the pole order tower's result, cached by polespec._run_tower
        self._tower_result = None

    # -- bases ---------------------------------------------------------------
    #
    # The degree-k piece of j-forms has the basis dx_idx * x^a: index sets
    # idx in lexicographic order, and within each the exponents a of degree
    # k - j in lexicographic order.  So (idx, a) sits at column position
    # subsets(j)[idx] * N + (position of a in monomials(k - j)), N being the
    # number of monomials of degree k - j.

    def dim(self, j: int, k: int) -> int:
        return omega_dim(self.n, j, k)

    def monomials(self, m: int) -> list[Exponent]:
        """Exponents of degree m in lexicographic order; cached."""
        if m not in self._monos:
            self._monos[m] = list(_monomials(self.n, m))
        return self._monos[m]

    def subsets(self, j: int) -> dict[IndexSet, int]:
        """Position of each j-element index set in lexicographic order."""
        if j not in self._subsets:
            self._subsets[j] = {idx: p for p, idx in enumerate(combinations(range(self.n), j))}
        return self._subsets[j]

    def shift(self, m: int, e: Exponent) -> list[int]:
        """Offset map of multiplication by x^e: for each monomial x^a of
        degree m, in lexicographic order, the position of x^(a+e) among the
        monomials of degree m + |e|.  The unit maps of a degree are built
        together from one index of the degree above; every other map is a
        unit map composed with a cached shorter one, one list pass each."""
        key = (m, e)
        table = self._shifts.get(key)
        if table is not None:
            return table
        nonzero = [i for i, a in enumerate(e) if a]
        if not nonzero:
            table = list(range(len(self.monomials(m))))
        elif sum(e) == 1:
            pos = {a: p for p, a in enumerate(self.monomials(m + 1))}
            for i in range(self.n):
                self._shifts[(m, _unit(self.n, i))] = [
                    pos[a[:i] + (a[i] + 1,) + a[i + 1 :]] for a in self.monomials(m)
                ]
            return self._shifts[key]
        else:
            i = nonzero[-1]
            step = self.shift(m + sum(e) - 1, _unit(self.n, i))
            table = [step[r] for r in self.shift(m, e[:i] + (e[i] - 1,) + e[i + 1 :])]
        self._shifts[key] = table
        return table

    # -- matrices --------------------------------------------------------------
    #
    # Both builders fill a whole index-set block at once: for a fixed index
    # set, target index set and monomial factor, column q gets its entry at
    # row base + shift[q].  Different (i, factor) pairs hit different rows,
    # so nothing accumulates, and each column receives its keys with i
    # ascending, then in the order of the factor's terms.

    def wedge_columns(self, j: int, m: int) -> list[SparseVec]:
        """Integer columns of df wedge : (j-forms, degree m) -> (j+1, m+d)."""
        key = (j, m)
        if key in self._wedge_cols:
            return self._wedge_cols[key]
        cols: list[SparseVec] = []
        if 0 <= j < self.n and m >= j:
            deg = m - j
            size = len(self.monomials(deg + self.d - 1))
            target = self.subsets(j + 1)
            maps = [
                [(self.shift(deg, pexp), c) for pexp, c in terms.items()]
                for terms in self.partial_terms
            ]
            count = len(self.monomials(deg))
            for idx in combinations(range(self.n), j):
                block: list[SparseVec] = [{} for _ in range(count)]
                for i in range(self.n):
                    if i in idx:
                        continue
                    s = wedge_sign(i, idx)
                    base = target[_insert_index(i, idx)] * size
                    for offsets, c in maps[i]:
                        v = s * c
                        for col, r in zip(block, offsets):
                            col[base + r] = v
                cols.extend(block)
        self._wedge_cols[key] = cols
        return cols

    def derivative_columns(self, j: int, m: int) -> list[SparseVec]:
        """Integer columns of the exterior derivative (j, m) -> (j+1, m)."""
        key = (j, m)
        if key in self._deriv_cols:
            return self._deriv_cols[key]
        cols: list[SparseVec] = []
        if 0 <= j < self.n and m >= j:
            deg = m - j
            monos = self.monomials(deg)
            size = len(self.monomials(deg - 1))
            target = self.subsets(j + 1)
            # the unit map (deg - 1, i) inverts d/dx_i: it sends x^b to the
            # column of x^(b + e_i), whose derivative lands on row x^b
            units = [self.shift(deg - 1, _unit(self.n, i)) for i in range(self.n)]
            for idx in combinations(range(self.n), j):
                block: list[SparseVec] = [{} for _ in monos]
                for i in range(self.n):
                    if i in idx:
                        continue
                    s = wedge_sign(i, idx)
                    base = target[_insert_index(i, idx)] * size
                    for r, q in enumerate(units[i]):
                        block[q][base + r] = s * monos[q][i]
                cols.extend(block)
        self._deriv_cols[key] = cols
        return cols

    # -- ranks -----------------------------------------------------------------

    def rank_wedge(self, j: int, m: int) -> int:
        """Rank of df wedge out of (j, m); cached."""
        if j < 0 or j > self.n - 1 or m < j:
            return 0
        key = (j, m)
        if key in self._rank:
            return self._rank[key]
        cols = self.wedge_columns(j, m)
        nrows = self.dim(j + 1, m + self.d)
        if self._exact_ranks:
            r = rank_exact_rows(cols)
        else:
            r0 = rank_mod(cols, nrows, DEFAULT_PRIMES[0])
            r1 = rank_mod(cols, nrows, DEFAULT_PRIMES[1])
            r = r0 if r0 == r1 else rank_exact_rows(cols)
        self._rank[key] = r
        return r

    def force_exact(self) -> None:
        """Recompute every cached rank with exact elimination."""
        self._exact_ranks = True
        for key in list(self._rank):
            self._rank[key] = rank_exact_rows(self.wedge_columns(*key))

    def promote_exact(self, j: int, m: int) -> None:
        """Replace one cached rank by its exact value.  Called when a
        downstream identity fails, before trusting the failure."""
        if 0 <= j <= self.n - 1 and m >= j:
            self._rank[(j, m)] = rank_exact_rows(self.wedge_columns(j, m))

    def class_rank(self, k: int, forms: list[SparseVec]) -> int:
        """Rank of the classes of the given n-forms of degree k in M_k, the
        n-forms modulo the image of df wedge out of (n-1, k-d).  Reduced
        against that image modulo both fixed primes; when they disagree, or
        after force_exact(), by exact elimination."""
        image = (self.n - 1, k - self.d)
        if not self._exact_ranks:
            ranks = []
            for p in DEFAULT_PRIMES:
                span = self._image_spans.get((k, p))
                if span is None:
                    span = self._image_spans[(k, p)] = ModularSpan(self.wedge_columns(*image), p)
                ranks.append(span.added_rank(forms))
            if ranks[0] == ranks[1]:
                return ranks[0]
        ech = self._image_echelons.get(k)
        if ech is None:
            ech = self._image_echelons[k] = IntEchelon()
            ech.add_many(self.wedge_columns(*image))
        return len(combo_kernel(forms, ech)[1])

    # -- graded invariants -------------------------------------------------------

    def gamma(self, k: int) -> int:
        if k < 0 or k > self.k_max:
            return 0
        return self._gamma[k]

    def mu(self, k: int) -> int:
        """dim of (n-forms of degree k) / df wedge (n-1 forms)."""
        if k < 0 or k > self.k_max:
            raise ValueError(f"degree {k} outside window 0..{self.k_max}")
        return self.dim(self.n, k) - self.rank_wedge(self.n - 1, k - self.d)

    def nu(self, k: int) -> int:
        """dim of middle Koszul cohomology at grading degree k."""
        if k < 0 or k > self.k_max:
            raise ValueError(f"degree {k} outside window 0..{self.k_max}")
        cycles = self.dim(self.n - 1, k - self.d) - self.rank_wedge(self.n - 1, k - self.d)
        return cycles - self.rank_wedge(self.n - 2, k - 2 * self.d)

    def h_minus2(self, k: int) -> int:
        """dim of the next-lower Koszul cohomology; zero under the
        one-dimensional-singular-locus assumption."""
        cycles = self.dim(self.n - 2, k - 2 * self.d) - self.rank_wedge(self.n - 2, k - 2 * self.d)
        return cycles - self.rank_wedge(self.n - 3, k - 3 * self.d)


@dataclass(frozen=True)
class AssumptionEvidence:
    """Necessary-condition checks for the singular locus of the affine cone
    being at most one-dimensional.  Evidence only; passing does not certify
    the assumption, failing refutes it."""

    h2_ok: bool
    first_h2_offender: int | None
    euler_ok: bool
    first_euler_offender: int | None
    mu_stabilized: bool
    mu_top_values: tuple[int, int]

    @property
    def passed(self) -> bool:
        return self.h2_ok and self.euler_ok and self.mu_stabilized


def assumption_evidence(win: KoszulWindow) -> AssumptionEvidence:
    """Scan the window for vanishing of the lower Koszul cohomology, the
    per-degree Euler identity mu - nu = gamma, and stabilization of mu."""
    d = win.d
    h2_ok, h2_off = True, None
    for k in range(win.k_max + 1):
        if win.h_minus2(k) != 0:
            win.promote_exact(win.n - 2, k - 2 * d)
            win.promote_exact(win.n - 3, k - 3 * d)
            if win.h_minus2(k) != 0:
                h2_ok, h2_off = False, k
                break
    euler_ok, euler_off = True, None
    for k in range(win.k_max + 1):
        if win.mu(k) - win.nu(k) != win.gamma(k):
            win.promote_exact(win.n - 1, k - d)
            win.promote_exact(win.n - 2, k - 2 * d)
            if win.mu(k) - win.nu(k) != win.gamma(k):
                euler_ok, euler_off = False, k
                break
    top = (win.mu(win.k_max - 1), win.mu(win.k_max))
    return AssumptionEvidence(
        h2_ok=h2_ok,
        first_h2_offender=h2_off,
        euler_ok=euler_ok,
        first_euler_offender=euler_off,
        mu_stabilized=top[0] == top[1],
        mu_top_values=top,
    )
