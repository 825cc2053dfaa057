"""Sparse exact linear algebra over Q on integer vectors, with modular
ranks as the fast path.

Vectors are sparse dicts {index: int}; a matrix is a list of its columns.
Rational data enters only through `vec_from_fractions`, which clears
denominators.

One sparse elimination engine, `_eliminate`, and one span, `_Span`, serve
both arithmetics; only the pivot step and the tie-breaks depend on it.
The engine takes pivot rows in Markowitz order (fewest entries first) from
a heap, with a column-to-rows index for the rows each pivot touches, and
updates a row in place at the pivot row's entries.  Over the integers,
rows are combined by cross-multiplication with their content stripped, so
no Fractions appear in inner loops, and ties go to the smaller coefficient
bit length.  Modulo m, a prime or N (below), each pivot row is scaled to 1
at its pivot index, and ties go to the smaller index.  Many pivot rows of a
df wedge block hold a single entry, and those take a shortcut that changes
no pivot, row or tie-break: the entry is the pivot, a unit test by gcd
replaces the inverse modulo m (the row is {c: 1} whatever the inverse is),
and modulo m the rows it touches only lose that column.  Kernels and
solutions are read off a fraction-free back-reduction of the exact pivot
rows.  A span, exact (`IntEchelon`) or modulo m (`ModularSpan`), keeps its
pivot rows in the order they were added and reduces a vector only by the
pivots it hits.

Ranks are taken modulo two fixed word-size primes p0, p1 first, in one
elimination modulo their product N = p0*p1; the exact path runs when that
elimination meets a zero divisor or when an exact result is requested.
Z/N is Z/p0 x Z/p1, so while every pivot is a unit mod N the elimination
mod N is the elimination mod p0 and mod p1 at once, with the same pivots:
its rank is the rank mod each prime, and the two agree.  A pivot that is
not a unit mod N (divisible by exactly one prime) raises
`ZeroDivisorError`; the caller then falls back to exact elimination.
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


# -- sparse elimination -------------------------------------------------------


class ZeroDivisorError(ArithmeticError):
    """A modular elimination met a pivot that is not a unit modulo a
    composite modulus; its rank says nothing about either prime."""


def _pivot_key(row: SparseVec, idx: int) -> tuple[int, int, int]:
    """Markowitz-style pivot row order over the integers: fewest entries,
    then smallest coefficient bit length (`int.bit_length` ignores the
    sign), then index.  Modulo p the key is (fewest entries, index), which
    `_eliminate` builds inline."""
    return (len(row), min(map(int.bit_length, row.values())), idx)


def _pick_pivot_col(row: SparseVec, col_rows: dict[int, set[int]], p: int) -> int:
    """Column within `row` minimizing fill: fewest uses among active rows,
    then over the integers smallest coefficient, then smallest index."""
    if p:
        return min(row, key=lambda c: (len(col_rows[c]), c))
    return min(row, key=lambda c: (len(col_rows[c]), row[c].bit_length(), c))


def _eliminate(
    rows: list[SparseVec],
    p: int = 0,
    rhs: list[SparseVec] | None = None,
) -> tuple[list[tuple[int, int]], list[SparseVec], list[SparseVec] | None]:
    """Forward sparse elimination of `rows` over the integers (p = 0) or
    modulo p, a prime or `PRIME_PRODUCT`; the input is not modified.

    Returns (pivots, rows, rhs): the pivots as (column, row index) in
    elimination order, and the eliminated copies of the rows, where a pivot
    row holds no earlier pivot column and every other row ends empty.  The
    rhs rows (over a separate column namespace) get the same integer row
    operations, so [A | rhs] stays row-equivalent to the input.  Modulo p
    each pivot row is scaled to 1 at its pivot column; modulo
    `PRIME_PRODUCT` a pivot divisible by one prime raises `ZeroDivisorError`.

    Active rows wait in a heap keyed by `_pivot_key`, or modulo p by
    (entries, index); an entry whose key no longer matches its row's
    current key is stale and skipped.  `col_rows` maps each column to the
    active rows that contain it.  A pivot row with one entry skips the
    column search and, modulo p, the inverse and the entry-wise update of
    the rows it touches, with the same result as the general step.
    """
    if p:
        work = [{c: y for c, x in r.items() if (y := x % p)} for r in rows]
    else:
        work = [dict(r) for r in rows]
    side = [dict(r) for r in rhs] if rhs is not None else None
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(work):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    if p:
        keys = {i: (len(row), i) for i, row in enumerate(work) if row}
    else:
        keys = {i: _pivot_key(row, i) for i, row in enumerate(work) if row}
    heap = list(keys.values())
    heapq.heapify(heap)
    pivots: list[tuple[int, int]] = []
    while heap:
        key = heapq.heappop(heap)
        i = key[-1]
        if keys.get(i) != key:
            continue
        del keys[i]
        row = work[i]
        single = len(row) == 1
        if single:
            c = next(iter(row))
            col_rows[c].discard(i)
        else:
            for c in row:
                col_rows[c].discard(i)
            c = _pick_pivot_col(row, col_rows, p)
        piv = row[c]
        if p:
            if gcd(piv, p) != 1:
                raise ZeroDivisorError(f"pivot {piv} is not a unit modulo {p}")
            if single:
                row[c] = 1
            elif piv != 1:
                inv = pow(piv, -1, p)
                for cc in row:
                    row[cc] = row[cc] * inv % p
        pivots.append((c, i))
        if p and single:
            for j in col_rows.pop(c):
                other = work[j]
                del other[c]
                if other:
                    keys[j] = key = (len(other), j)
                    heapq.heappush(heap, key)
                else:
                    del keys[j]
            continue
        rest = [(cc, x) for cc, x in row.items() if cc != c]
        for j in col_rows.pop(c):
            other = work[j]
            a = other.pop(c)
            if not p:
                g = gcd(piv, a)
                mp, a = piv // g, a // g
                if mp != 1:
                    for cc in other:
                        other[cc] *= mp
                if side is not None:
                    side[j] = _cross(mp, side[j], a, side[i])
            for cc, x in rest:
                y = other.get(cc)
                if y is None:
                    y = -a * x % p if p else -a * x
                    if y:
                        other[cc] = y
                        col_rows[cc].add(j)
                else:
                    y = (y - a * x) % p if p else y - a * x
                    if y:
                        other[cc] = y
                    else:
                        del other[cc]
                        col_rows[cc].discard(j)
            if not p:
                if side is None:
                    other, _ = _strip_content(other)
                else:
                    other, side[j] = strip_joint_content(other, side[j])
                work[j] = other
            if other:
                keys[j] = key = (len(other), j) if p else _pivot_key(other, j)
                heapq.heappush(heap, key)
            else:
                del keys[j]
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
    positive.  Each is read off the fraction-free back-reduction of the
    pivot rows: with lowest-terms x[c] = -row[f] / row[c] over the pivot
    rows that touch f, scaling by the lcm L of their denominators
    (x[f] = L) gives a primitive integer vector.
    """
    pivots, reduced, _ = _eliminate(list(_rows_of(columns).values()))
    _back_reduce(pivots, reduced)
    rows = [(c, reduced[i]) for c, i in pivots]
    pivot_cols = {c for c, _ in pivots}
    out: dict[int, SparseVec] = {}
    for f in range(len(columns)):
        if f in pivot_cols:
            continue
        terms = [(c, *_lowest_terms(-row[f], row[c])) for c, row in rows if f in row]
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
        [rows[r] for r in order], rhs=[rhs.get(r, {}) for r in order]
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


# -- spans --------------------------------------------------------------------


class _Span:
    """Span of integer vectors over Q (p = 0) or modulo p, as pivot rows in
    the order they were added, `step` mapping each pivot index to its place.
    No row holds an earlier row's pivot index, so a reduction takes the
    pivots it hits from a heap in step order, each at most once."""

    __slots__ = ("p", "pivots", "step")

    def __init__(self, columns: list[SparseVec], p: int):
        self.p = p
        pivots, rows, _ = _eliminate(columns, p)
        self.pivots = [(c, rows[i]) for c, i in pivots]
        self.step = {c: k for k, (c, _) in enumerate(self.pivots)}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: SparseVec) -> tuple[SparseVec, int, int]:
        """(residual, num, den): num/den * vec minus a combination of pivot
        rows, with no entry at any pivot index.  Over the integers num is the
        product of the positive cross-multipliers of vec and den the content
        stripped once a pivot was hit; modulo p (rows scaled to 1) both are 1."""
        p, step, pivots = self.p, self.step, self.pivots
        if p:
            v = {c: y for c, x in vec.items() if (y := x % p)}
        else:
            v = {c: x for c, x in vec.items() if x}
        num = den = 1
        hits = [step[c] for c in v if c in step]
        strip = not p and bool(hits)
        heapq.heapify(hits)
        while hits:
            c, row = pivots[heapq.heappop(hits)]
            a = v.pop(c, 0)
            if not a:
                continue
            if not p:
                piv = row[c]
                g = gcd(piv, a)
                mp, a = piv // g, a // g
                if mp < 0:
                    mp, a = -mp, -a
                if mp != 1:
                    for cc in v:
                        v[cc] *= mp
                    num *= mp
            for cc, x in row.items():
                if cc == c:
                    continue
                y = v.get(cc)
                if y is None:
                    y = -a * x % p if p else -a * x
                    if y:
                        v[cc] = y
                        if cc in step:
                            heapq.heappush(hits, step[cc])
                else:
                    y = (y - a * x) % p if p else y - a * x
                    if y:
                        v[cc] = y
                    else:
                        del v[cc]
        if strip:
            v, den = _strip_content(v)
        return v, num, den

    def reduce(self, vec: SparseVec) -> SparseVec:
        """vec (mod p) minus its combination of pivot rows, up to a positive
        multiple over Q: the residual has no entry at any pivot index."""
        return self._reduce(vec)[0]

    def added_rank(self, columns: list[SparseVec]) -> int:
        """rank([A | columns]) - rank(A), A being the span."""
        return len(_eliminate([self.reduce(v) for v in columns], self.p)[0])


class IntEchelon(_Span):
    """Exact span over Q held as integer rows, built from columns (whose
    pivots may be negative) or empty, and grown by `add`: an added row is
    the residual of its vector, with its minimum index as pivot."""

    __slots__ = ()

    def __init__(self, columns: list[SparseVec] = ()):
        super().__init__(columns, 0)

    def reduce_full(self, vec: SparseVec) -> tuple[SparseVec, Fraction]:
        """Return (residual, scale): residual = scale * vec - (row combo),
        scale > 0, residual has no entry at any pivot index.  The scale is
        kept as two integers while reducing, one Fraction on return."""
        v, num, den = self._reduce(vec)
        return v, Fraction(num, den)

    def add(self, vec: SparseVec) -> bool:
        """Insert vec's residual; True if it enlarged the span."""
        res, _ = self.reduce_full(vec)
        if not res:
            return False
        lead = min(res)
        self.step[lead] = len(self.pivots)
        self.pivots.append((lead, res))
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


def rank_mod(columns: list[SparseVec], nrows: int, p: int) -> int:
    """Rank modulo p of the matrix with the given columns and `nrows` rows
    (the sparse elimination needs only the columns).  Modulo
    `PRIME_PRODUCT` it is the rank modulo both primes, or raises
    `ZeroDivisorError`."""
    return len(_eliminate(columns, p)[0])


class ModularSpan(_Span):
    """Span modulo a fixed prime or `PRIME_PRODUCT`, for added ranks of
    stacked matrices [A | B] - rank(A) without re-eliminating A.  Modulo
    `PRIME_PRODUCT` the build and `added_rank` may raise `ZeroDivisorError`."""

    __slots__ = ()
