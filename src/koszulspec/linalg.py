"""Sparse exact linear algebra over Q on integer vectors, with modular
ranks as the fast path.

Vectors are sparse dicts {index: int}; a matrix is a list of its columns.
Rational data enters only through `vec_from_fractions`, which clears
denominators.  Exact elimination works on integer rows with
cross-multiplication and content stripping, so no Fractions appear in inner
loops.  Pivot rows are taken in Markowitz order (fewest entries first) from
a heap, with a column-to-rows index for the rows each pivot touches.
Kernels and solutions are read off a fraction-free back-reduction of the
pivot rows: kernels as primitive sparse integer vectors, solutions as an
integer vector with a common denominator.

Ranks go through reduction modulo two fixed word-size primes p0, p1 first,
in one elimination modulo their product N = p0*p1 (below); the exact path
is run when that elimination meets a zero divisor or when an exact result
is requested.  The modular path is the same sparse engine over Z/m, m a
prime or N: the columns are eliminated as dict rows reduced
mod m, each pivot row scaled to 1 at its pivot index, so a step costs only
the entries it touches.
`ModularSpan` keeps its pivot rows in elimination order and reduces a new
vector only by the pivots it hits.

One elimination modulo N = p0*p1 stands for both primes.  Z/N is Z/p0 x
Z/p1, so while every pivot is a unit mod N the elimination mod N is the
elimination mod p0 and mod p1 at once, with the same pivots: its rank is
the rank mod each prime, and the two agree.  A pivot that is not a unit
mod N (divisible by exactly one of the primes) raises `ZeroDivisorError`;
the caller then falls back to exact elimination.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

# Fixed default primes, both above 2**30, and their product, the modulus
# that checks both in one elimination.
DEFAULT_PRIMES = (2147483647, 2147483629)
PRIME_PRODUCT = DEFAULT_PRIMES[0] * DEFAULT_PRIMES[1]

SparseVec = dict[int, int]


def _strip_content(vec: SparseVec) -> tuple[SparseVec, int]:
    """Divide out the gcd of the entries; returns (vector, removed content)."""
    g = 0
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            return vec, 1
    if g <= 1:
        return vec, 1
    return {c: v // g for c, v in vec.items()}, g


def strip_joint_content(a: SparseVec, b: SparseVec) -> tuple[SparseVec, SparseVec]:
    """Divide both vectors by the gcd of all their entries together."""
    g = 0
    for v in a.values():
        g = gcd(g, v)
    for v in b.values():
        g = gcd(g, v)
    if g <= 1:
        return a, b
    return {c: v // g for c, v in a.items()}, {c: v // g for c, v in b.items()}


def _cross(mu: int, u: SparseVec, mv: int, v: SparseVec) -> SparseVec:
    """mu * u - mv * v."""
    out = {c: mu * x for c, x in u.items()}
    for c, x in v.items():
        acc = out.get(c, 0) - mv * x
        if acc:
            out[c] = acc
        else:
            out.pop(c, None)
    return out


def vec_from_fractions(values) -> tuple[SparseVec, Fraction]:
    """Sparse integer vector proportional to `values`; returns (vec, scale)
    with vec = scale * values and scale > 0."""
    if isinstance(values, dict):
        items = values.items()
    else:
        items = enumerate(values)
    fracs = {i: Fraction(v) for i, v in items if v}
    if not fracs:
        return {}, Fraction(1)
    denom = 1
    for v in fracs.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = {i: int(v * denom) for i, v in fracs.items()}
    ints, content = _strip_content(ints)
    return ints, Fraction(denom, content)


def _rows_of(columns) -> dict[int, SparseVec]:
    """Rows of the matrix with the given columns, keyed by row index."""
    rows: dict[int, SparseVec] = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    return rows


# -- exact elimination -------------------------------------------------------


def _pivot_key(row: SparseVec, idx: int) -> tuple[int, int, int]:
    """Markowitz-style pivot row order: fewest entries, then smallest
    coefficient bit length, then index, for deterministic sparse elimination."""
    return (len(row), min(abs(v).bit_length() for v in row.values()), idx)


def _pick_pivot_col(row: SparseVec, col_rows: dict[int, set[int]]) -> int:
    """Column within `row` minimizing fill: fewest uses among active rows,
    then smallest coefficient, then smallest index."""
    return min(row, key=lambda c: (len(col_rows[c]), abs(row[c]).bit_length(), c))


def _eliminate(
    rows: list[SparseVec],
    rhs: list[SparseVec] | None = None,
) -> tuple[list[tuple[int, int]], list[SparseVec], list[SparseVec] | None]:
    """Forward sparse elimination over the integers.

    Returns (pivots, rows, rhs) where pivots is a list of (column, row index)
    in elimination order.  Rows are modified in place; rhs entries (parallel
    per-row dicts over a separate column namespace) receive the same row
    operations, so [A | rhs] stays row-equivalent to the input.

    Active rows wait in a heap keyed by `_pivot_key`; an entry whose key no
    longer matches its row's current key is stale and skipped.  `col_rows`
    maps each column to the active rows that contain it.
    """
    work = [dict(r) for r in rows]
    side = [dict(r) for r in rhs] if rhs is not None else None
    active = {i: work[i] for i in range(len(work)) if work[i]}
    col_rows: dict[int, set[int]] = {}
    for i, row in active.items():
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    keys = {i: _pivot_key(row, i) for i, row in active.items()}
    heap = list(keys.values())
    heapq.heapify(heap)
    pivots: list[tuple[int, int]] = []
    while heap:
        key = heapq.heappop(heap)
        i = key[2]
        if keys.get(i) != key:
            continue
        del keys[i]
        row = active.pop(i)
        for cc in row:
            col_rows[cc].discard(i)
        c = _pick_pivot_col(row, col_rows)
        pivots.append((c, i))
        p = row[c]
        for j in list(col_rows[c]):
            other = active[j]
            a = other[c]
            for cc in other:
                col_rows[cc].discard(j)
            g = gcd(p, a)
            mp, ma = p // g, a // g
            new = _cross(mp, other, ma, row)
            if side is not None:
                new, side[j] = strip_joint_content(new, _cross(mp, side[j], ma, side[i]))
            else:
                new, _ = _strip_content(new)
            work[j] = new
            if new:
                active[j] = new
                for cc in new:
                    col_rows[cc].add(j)
                keys[j] = _pivot_key(new, j)
                heapq.heappush(heap, keys[j])
            else:
                del active[j]
                del keys[j]
        work[i] = row
    return pivots, work, side


def pivot_columns(rows: list[SparseVec]) -> dict[int, int]:
    """Pivot columns of one sparse exact elimination of `rows`, each mapped
    to its pivot row, and those rows are a basis of the span of `rows`: on
    these columns they have full rank, the rank of `rows`, since each pivot
    row holds no earlier pivot column (a triangular, nonzero diagonal)."""
    pivots, _, _ = _eliminate(rows)
    return dict(pivots)


def rank_exact_rows(rows: list[SparseVec]) -> int:
    return len(pivot_columns(rows))


def _back_reduce(
    pivots: list[tuple[int, int]],
    rows: list[SparseVec],
    side: list[SparseVec] | None = None,
) -> None:
    """Clear every later pivot column from each pivot row of `_eliminate`,
    in place, so each keeps only its own pivot and free columns.  Side
    vectors, when given, receive the same row operations.

    Rows are handled in reverse pivot order; a row already handled holds no
    other pivot column, so subtracting it from an earlier row brings in free
    columns only.  Integer cross-multiplication, content stripped per row
    (jointly with its side vector).
    """
    row_of = dict(pivots)
    for c, i in reversed(pivots):
        row = rows[i]
        for cp in [cc for cc in row if cc != c and cc in row_of]:
            k = row_of[cp]
            p, a = rows[k][cp], row[cp]
            g = gcd(p, a)
            mp, ma = p // g, a // g
            row = _cross(mp, row, ma, rows[k])
            if side is not None:
                side[i] = _cross(mp, side[i], ma, side[k])
        if side is None:
            rows[i], _ = _strip_content(row)
        else:
            rows[i], side[i] = strip_joint_content(row, side[i])


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return (-num, -den) if den < 0 else (num, den)


def kernel_int_columns(columns: list[SparseVec]) -> dict[int, SparseVec]:
    """Exact kernel of the matrix with the given columns; vectors indexed by
    column position.

    One vector per free column f, keyed by f in increasing order: the kernel
    vector that is zero on every other free column, as a primitive sparse
    integer vector with keys in increasing order and its leading entry
    positive.  The pivot rows are back-reduced fraction-free, so each vector
    is read off directly: with lowest-terms x[c] = -row[f] / row[c] over the
    pivot rows that touch f, scaling by the lcm L of their denominators
    (x[f] = L) gives a primitive integer vector.
    """
    pivots, reduced, _ = _eliminate(list(_rows_of(columns).values()))
    _back_reduce(pivots, reduced)
    touching: dict[int, list[tuple[int, int, int]]] = {}
    for c, i in pivots:
        row = reduced[i]
        for f, v in row.items():
            if f != c:
                touching.setdefault(f, []).append((c, *_lowest_terms(-v, row[c])))
    pivot_cols = {c for c, _ in pivots}
    out: dict[int, SparseVec] = {}
    for f in range(len(columns)):
        if f in pivot_cols:
            continue
        terms = touching.get(f, ())
        L = lcm(*(den for _, _, den in terms))
        vec = {c: num * (L // den) for c, num, den in terms}
        vec[f] = L
        vec = dict(sorted(vec.items()))
        if next(iter(vec.values())) < 0:
            vec = {c: -v for c, v in vec.items()}
        out[f] = vec
    return out


def solve_into(
    columns: list[SparseVec],
    targets: list[SparseVec],
    modulo: list[SparseVec] = (),
) -> list[tuple[SparseVec, int] | None]:
    """Solve A x = b modulo the span of `modulo`, for every target b at once,
    where A has the given columns; one elimination serves all targets.

    Per target: None when b is not reachable, else (x, den) with den > 0 and
    x a sparse integer vector over the positions of `columns`, keys
    increasing, such that A x - den * b lies in the span of `modulo`.  Free
    unknowns are zero, so after back-reduction of [A | modulo] each pivot
    row gives its unknown directly as side / pivot; den is the lcm of the
    denominators over the columns of A.
    """
    ncols = len(columns)
    rows = _rows_of(chain(columns, modulo))
    rhs: dict[int, SparseVec] = {}
    for t, b in enumerate(targets):
        for r, v in b.items():
            rows.setdefault(r, {})
            rhs.setdefault(r, {})[t] = v
    order = list(rows)
    pivots, reduced, side = _eliminate(
        [rows[r] for r in order], [rhs.get(r, {}) for r in order]
    )
    _back_reduce(pivots, reduced, side)
    pivot_rows = {i for _, i in pivots}
    unreachable = {t for i, b in enumerate(side) if i not in pivot_rows for t in b}
    parts: list[dict[int, tuple[int, int]]] = [{} for _ in targets]
    for c, i in sorted(pivots):
        if c < ncols:
            for t, v in side[i].items():
                parts[t][c] = _lowest_terms(v, reduced[i][c])
    out: list[tuple[SparseVec, int] | None] = []
    for t, part in enumerate(parts):
        if t in unreachable:
            out.append(None)
            continue
        den = lcm(*(q for _, q in part.values()))
        out.append(({c: num * (den // q) for c, (num, q) in part.items()}, den))
    return out


# -- incremental exact echelon ------------------------------------------------


class IntEchelon:
    """Incremental row echelon over Q held as integer rows.

    Each stored row's minimum column is its pivot and pivots are unique, so
    full reduction of a vector (ascending pivot sweep) is linear and leaves a
    residual supported on free columns only.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, SparseVec] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce_full(self, vec: SparseVec) -> tuple[SparseVec, Fraction]:
        """Return (residual, scale): residual = scale * vec - (row combo),
        scale > 0, residual has no entry in any pivot column.

        The scale is kept as two integers while reducing, the product of
        the positive multipliers of vec and the product of the contents
        stripped from it, and becomes one Fraction on return."""
        v = {c: x for c, x in vec.items() if x}
        num = den = 1
        if not v:
            return v, Fraction(1)
        hits = sorted(c for c in v if c in self.rows)
        while hits:
            for c in hits:
                a = v.get(c)
                if not a:
                    continue
                row = self.rows[c]
                p = row[c]
                g = gcd(p, a)
                mp, ma = p // g, a // g
                if mp < 0:
                    mp, ma = -mp, -ma
                v = _cross(mp, v, ma, row)
                num *= mp
            if not v:
                break
            v, content = _strip_content(v)
            den *= content
            hits = sorted(c for c in v if c in self.rows)
        return v, Fraction(num, den)

    def add(self, vec: SparseVec) -> bool:
        """Insert vec's residual; True if it enlarged the span."""
        res, _ = self.reduce_full(vec)
        if not res:
            return False
        lead = min(res)
        if res[lead] < 0:
            res = {c: -x for c, x in res.items()}
        self.rows[lead] = res
        return True

    def add_many(self, vectors) -> int:
        return sum(1 for v in vectors if self.add(v))

    def contains(self, vec: SparseVec) -> bool:
        res, _ = self.reduce_full(vec)
        return not res


def combo_kernel(
    vectors: list[SparseVec], echelon: IntEchelon
) -> tuple[list[SparseVec], list[SparseVec]]:
    """(coefficients, residuals).  The coefficients are the vectors c such
    that sum_a c[a] * vectors[a] lies in the span of `echelon`, as a basis
    of that space, exact: primitive sparse integer vectors with their
    leading entry positive.  The residuals are those of `reduce_full` at
    the pivot columns of that kernel: each is a positive multiple of its
    vector minus a combination of the echelon's rows, they are independent
    modulo the echelon, and adding them to it spans what adding all the
    vectors would."""
    residuals: list[SparseVec] = []
    scales: list[Fraction] = []
    for v in vectors:
        r, s = echelon.reduce_full(v)
        residuals.append(r)
        scales.append(s)
    raw = kernel_int_columns(residuals)
    coeffs = [vec_from_fractions({a: v * scales[a] for a, v in b.items()})[0] for b in raw.values()]
    return coeffs, [r for a, r in enumerate(residuals) if a not in raw]


# -- modular ranks ------------------------------------------------------------


class ZeroDivisorError(ArithmeticError):
    """A modular elimination met a pivot that is not a unit modulo a
    composite modulus; its rank says nothing about either prime."""


def _eliminate_mod(vectors: list[SparseVec], p: int) -> list[tuple[int, SparseVec]]:
    """Forward sparse elimination of `vectors` modulo p, a prime or
    `PRIME_PRODUCT`.

    Returns the pivots in elimination order as (pivot index, row), each row
    reduced mod p and scaled to 1 at its pivot index; a row holds no entry
    at the pivot index of any earlier pivot.  The input is not modified.
    Modulo `PRIME_PRODUCT` the pivots count the rank modulo both primes,
    which then agree; a pivot divisible by one of them raises
    `ZeroDivisorError` instead.

    Same engine as `_eliminate`: active rows wait in a heap keyed by
    (number of entries, row index), an entry whose count no longer matches
    its row is stale, and `col_rows` maps each index to the active rows
    containing it.  The pivot index is the row's entry used by the fewest
    active rows.  Rows are updated in place by the pivot row's entries only.
    """
    active: dict[int, SparseVec] = {}
    for i, vec in enumerate(vectors):
        row = {c: y for c, x in vec.items() if (y := x % p)}
        if row:
            active[i] = row
    col_rows: dict[int, set[int]] = {}
    for i, row in active.items():
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in active.items()]
    heapq.heapify(heap)
    pivots: list[tuple[int, SparseVec]] = []
    while heap:
        n, i = heapq.heappop(heap)
        row = active.get(i)
        if row is None or len(row) != n:
            continue
        del active[i]
        for c in row:
            col_rows[c].discard(i)
        c = min(row, key=lambda cc: (len(col_rows[cc]), cc))
        try:
            inv = pow(row[c], -1, p)
        except ValueError:
            raise ZeroDivisorError(f"pivot {row[c]} is not a unit modulo {p}") from None
        if inv != 1:
            row = {cc: x * inv % p for cc, x in row.items()}
        pivots.append((c, row))
        rest = [(cc, x) for cc, x in row.items() if cc != c]
        for j in col_rows.pop(c):
            other = active[j]
            a = other.pop(c)
            for cc, x in rest:
                y = other.get(cc)
                if y is None:
                    other[cc] = -a * x % p
                    col_rows[cc].add(j)
                else:
                    y = (y - a * x) % p
                    if y:
                        other[cc] = y
                    else:
                        del other[cc]
                        col_rows[cc].discard(j)
            if other:
                heapq.heappush(heap, (len(other), j))
            else:
                del active[j]
    return pivots


def rank_mod(columns: list[SparseVec], nrows: int, p: int) -> int:
    """Rank modulo p of the matrix with the given columns and `nrows` rows
    (the sparse elimination needs only the columns).  Modulo
    `PRIME_PRODUCT` it is the rank modulo both primes, or raises
    `ZeroDivisorError`."""
    return len(_eliminate_mod(columns, p))


class ModularSpan:
    """Span of integer vectors modulo a fixed prime or `PRIME_PRODUCT`,
    supporting incremental added-rank queries.  Used for rank computations
    of stacked matrices [A | B] - rank(A) without re-eliminating A.  The
    pivots are kept in elimination order, `step` maps each pivot index to
    its place there.  Modulo `PRIME_PRODUCT` both the build and
    `added_rank` may raise `ZeroDivisorError`."""

    __slots__ = ("p", "pivots", "step")

    def __init__(self, columns: list[SparseVec], p: int):
        self.p = p
        self.pivots = _eliminate_mod(columns, p)
        self.step = {c: k for k, (c, _) in enumerate(self.pivots)}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: SparseVec) -> SparseVec:
        """vec mod p minus its combination of pivot rows: the residual has no
        entry at any pivot index.  The pivots it hits are taken in
        elimination order; a pivot row only brings in later pivot indices."""
        p, step, pivots = self.p, self.step, self.pivots
        v = {c: y for c, x in vec.items() if (y := x % p)}
        hits = [step[c] for c in v if c in step]
        heapq.heapify(hits)
        while hits:
            c, row = pivots[heapq.heappop(hits)]
            a = v.pop(c, 0)
            if not a:
                continue
            for cc, x in row.items():
                if cc == c:
                    continue
                y = v.get(cc)
                if y is None:
                    v[cc] = -a * x % p
                    if cc in step:
                        heapq.heappush(hits, step[cc])
                else:
                    y = (y - a * x) % p
                    if y:
                        v[cc] = y
                    else:
                        del v[cc]
        return v

    def added_rank(self, columns: list[SparseVec]) -> int:
        """rank([A | columns]) - rank(A) modulo p, A being the span."""
        return len(_eliminate_mod([self.reduce(v) for v in columns], self.p))
