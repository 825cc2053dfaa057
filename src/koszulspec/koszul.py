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
    PRIME_PRODUCT,
    IntEchelon,
    ModularSpan,
    SparseVec,
    ZeroDivisorError,
    rank_exact_rows,
    rank_mod,
    vec_from_fractions,
)
from .poly import HomogeneousPoly, generic_linear_form

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
    Euler characteristic sequence for degree-d forms in n variables: the
    alternating sum of the dimensions of the Koszul complex in degree k."""
    return [
        sum((-1) ** (n - j) * omega_dim(n, j, k - (n - j) * d) for j in range(n + 1))
        for k in range(k_max + 1)
    ]


class KoszulWindow:
    """All graded data of the Koszul complex of f up to degree k_max.

    Ranks are cached per (form degree, grading degree).  The default rank
    path is one elimination modulo p0*p1, which stands for both fixed
    primes; when it meets a pivot divisible by one prime, the rank is
    computed by exact elimination instead.
    force_exact() recomputes every cached rank that is not exact yet and
    sends every later rank, free_ranks' included, down the exact path.
    For n <= k <= n*d the (n-1, k-d) block, the df wedge image in M_k, is
    eliminated once modulo p0*p1 and kept as a span (an empty block gets
    none): rank_wedge reads its rank from it, and free_ranks reduces by it
    as it pushes a basis of M_k up one degree at a time.  Its exact rank,
    forced or after a zero divisor, is read from the same block's span
    over Q, which the exact push reduces by, so each block is eliminated
    once per table and modulus.
    Once assumption_evidence certifies f, a rank out of j <= n-2 (n-1 if f
    is smooth) is exact, read off exactness: dim(j, m) - r(j-1, m-d).
    record_exact_rank caches a rank found exactly elsewhere; on the tower
    window stage 1 records every (n-1, m) and (n-2, m) rank (no span).
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
        self._exact: set[tuple[int, int]] = set()  # cached ranks known exact
        self._image_spans: dict[tuple[int, int], IntEchelon | ModularSpan | None] = {}
        self._exact_ranks = False
        self._exact_through = -1  # largest j at which the complex is known exact
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
        if j <= self._exact_through:
            r = self.dim(j, m) - self.rank_wedge(j - 1, m - self.d)
            self._exact.add(key)
        else:
            r = self._block_rank(j, m, 0 if self._exact_ranks else PRIME_PRODUCT)
        self._rank[key] = r
        return r

    def _block_rank(self, j: int, m: int, p: int) -> int:
        """Rank of df wedge out of (j, m) by one elimination modulo p =
        p0*p1, exact on a zero divisor, or by exact elimination for p = 0.
        A block whose image lies in M_k, n <= k <= n*d, is eliminated as the
        span the torsion/free split reduces by, so it is eliminated once per
        modulus, and once over Q."""
        if j == self.n - 1 and m + self.d <= self.n * self.d:
            span = self._image_span(m + self.d, p)
            return span.rank if span is not None else self._block_rank(j, m, 0)
        cols = self.wedge_columns(j, m)
        if p:
            try:
                return rank_mod(cols, self.dim(j + 1, m + self.d), p)
            except ZeroDivisorError:
                pass
        return rank_exact_rows(cols)

    def force_exact(self) -> None:
        """Recompute every cached rank that is not exact yet with exact
        elimination."""
        self._exact_ranks = True
        for key in [key for key in self._rank if key not in self._exact]:
            self._rank[key] = self._block_rank(*key, 0)

    def promote_exact(self, j: int, m: int) -> None:
        """Replace one cached rank by its exact value unless it is exact."""
        exact = (j, m) in self._exact or self._exact_ranks and (j, m) in self._rank
        if not exact and 0 <= j <= self.n - 1 and m >= j:
            self.record_exact_rank(j, m, self._block_rank(j, m, 0))

    def record_exact_rank(self, j: int, m: int, r: int) -> None:
        """Cache a rank of df wedge out of (j, m) found by exact elimination."""
        if 0 <= j <= self.n - 1 and m >= j:
            self._rank[(j, m)] = r
            self._exact.add((j, m))

    def exact_through(self, level: int) -> None:
        """Read every rank out of j <= level off exactness from now on; a
        cached exact rank there (stage 1's) must agree with it."""
        kept = {key: self._rank.pop(key) for key in list(self._rank) if key[0] <= level}
        self._exact_through = level
        for key, r in kept.items():
            if key in self._exact and (closed := self.rank_wedge(*key)) != r:
                raise RuntimeError(f"exact rank {r} out of {key} contradicts exactness: {closed}")

    def fills(self, k: int, y: HomogeneousPoly) -> bool:
        """Whether J + (y) fills the n-forms of degree k: modulo p0*p1, whose
        full rank is full over Q, else (or on a zero divisor) over Q."""
        maps = [(self.shift(k - self.n - 1, e), c) for e, c in y.integer_terms().items()]
        cols = [{s[i]: c for s, c in maps} for i in range(len(self.monomials(k - self.n - 1)))]
        for p in (PRIME_PRODUCT, 0):
            span = self._image_span(k, p)
            try:
                if span is not None and span.rank + span.added_rank(cols) == self.dim(self.n, k):
                    return True
            except ZeroDivisorError:
                pass
        return False

    def _image_span(self, k: int, p: int) -> IntEchelon | ModularSpan | None:
        """Span of the df wedge image in M_k modulo p, or over Q for p = 0,
        built once; None, also kept, when it met a zero divisor."""
        key = (k, p)
        if key not in self._image_spans:
            cols = self.wedge_columns(self.n - 1, k - self.d)
            try:
                self._image_spans[key] = ModularSpan(cols, p) if p else IntEchelon(cols)
            except ZeroDivisorError:
                self._image_spans[key] = None
        return self._image_spans[key]

    def _quotient(self, k: int, p: int):
        """M_k as (free monomial positions, map of an n-form onto its class
        on them) by the kept span, modulo p or over Q for p = 0; below
        degree n - 1 + d the image is 0."""
        dim = self.dim(self.n, k)
        if k - self.d < self.n - 1:
            return range(dim), lambda v: v
        span = self._image_span(k, p)
        if span is None:
            raise ZeroDivisorError(f"the image in degree {k} met a zero divisor")
        free = [i for i in range(dim) if i not in span.step]
        if p:
            return free, span.reduce
        def exact(v: SparseVec) -> SparseVec:
            res, scale = span.reduce_full(v)
            return {c: x / scale for c, x in res.items()}
        return free, exact

    def free_ranks(self, y: HomogeneousPoly) -> dict[int, int]:
        """Rank of y^(n*d - k) from M_k into M_{n*d}, n <= k <= n*d - n, as
        the composite of the maps M_k -> M_{k+1}: from the top down, each free
        monomial times y is reduced in degree k + 1 and sent on through the
        images of that degree.  Modulo p0*p1; exact after force_exact() or on
        a zero divisor."""
        if not self._exact_ranks:
            try:
                return self._push(y, PRIME_PRODUCT)
            except ZeroDivisorError:
                pass
        return self._push(y, 0)

    def _push(self, y: HomogeneousPoly, p: int) -> dict[int, int]:
        """free_ranks modulo p, or exact for p = 0; img maps each free
        position to its image in M_{n*d}, over Q, as the next degree sums it."""
        n, nd = self.n, self.n * self.d
        terms = y.integer_terms()
        top, reduce = self._quotient(nd, p)
        img = {i: {i: 1} for i in top}
        ranks: dict[int, int] = {}
        for k in range(nd - 1, n - 1, -1):
            free, below = self._quotient(k, p)
            maps = [(self.shift(k - n, e), c) for e, c in terms.items()]
            nxt = {}
            for i in free:
                vec: SparseVec = {}
                for j, a in reduce({s[i]: c for s, c in maps}).items():
                    for t, x in img.get(j, {}).items():
                        vec[t] = vec.get(t, 0) + a * x
                nxt[i] = {t: z for t, x in vec.items() if (z := x % p if p else x)}
            img, reduce = nxt, below
            if k <= nd - n:
                vecs = [v if p else vec_from_fractions(v)[0] for v in img.values()]
                ranks[k] = self._image_span(nd, p).added_rank(vecs)
        return ranks

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


@dataclass(frozen=True)
class AssumptionEvidence:
    """Certificate that f has only isolated singularities, and whether mu
    has stabilized at the window top.  With seed None, mu(`degree`) = 0 (f
    is smooth); else J + (y) fills the n-forms of that degree for y of that
    seed, or, not certified, of no seed tried."""

    certified: bool
    degree: int
    seed: int | None
    mu_stabilized: bool
    mu_top_values: tuple[int, int] | None

    @property
    def passed(self) -> bool:
        return self.certified and self.mu_stabilized


def assumption_evidence(win: KoszulWindow, seed: int = 0) -> AssumptionEvidence:
    """Certify the singularities of f isolated (seeds seed..seed + 2), read
    the window's ranks out of j <= n-2 (n-1 if f is smooth) off exactness,
    as finite V(J) has height n - 1 (Eisenbud, Commutative Algebra, Thm.
    17.4), and check that mu has stabilized.  A curve of singular points
    meets every hyperplane; if V(J) misses y = 0, S/(J, y) is a quotient of
    a complete intersection of n - 1 forms of degree d - 1 in n - 1
    variables, of socle degree (n-1)(d-2), so J + (y) fills degree k*."""
    n, d = win.n, win.d
    smooth = n * d - n + 1  # mu there is 0 exactly when f is smooth
    if win.dim(n, smooth) == win.rank_wedge(n - 1, smooth - d):
        degree, found, level = smooth, None, n - 1
    else:
        degree, level = max(n, (n - 1) * (d - 2) + n + 1), n - 2
        for found in range(seed, seed + 3):
            if win.fills(degree, generic_linear_form(n, found)):
                break
        else:
            return AssumptionEvidence(False, degree, None, False, None)
    win.exact_through(level)
    top = (win.mu(win.k_max - 1), win.mu(win.k_max))
    return AssumptionEvidence(True, degree, found, top[0] == top[1], top)
