"""Sparse exact linear algebra over Q, with a modular fast path for ranks.

Vectors are sparse dicts {index: int} (or Fraction at the API boundary).
Exact elimination works on integer rows with cross-multiplication and
content stripping, so no Fractions appear in inner loops.  Pivot rows are
taken in Markowitz order (fewest entries first) from a heap, with a
column-to-rows index for the rows each pivot touches.  Kernels come out as
primitive sparse integer vectors, read off a fraction-free back-reduction
of the pivot rows.  Ranks go through reduction modulo two fixed word-size
primes first; the exact path is run whenever the primes disagree or when an
exact result is requested.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

import numpy as np

# Fixed default primes, both above 2**30, products fit comfortably in int64.
DEFAULT_PRIMES = (2147483647, 2147483629)

SparseVec = dict[int, int]


class NoSolution:
    """Marker type: solve_into returns NO_SOLUTION when b is not reachable."""

    def __repr__(self):
        return "NO_SOLUTION"


NO_SOLUTION = NoSolution()


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


def vec_from_fractions(values) -> tuple[SparseVec, Fraction]:
    """Sparse integer vector proportional to `values`; returns (vec, scale)
    with vec = scale * values and scale > 0."""
    entries = {}
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


class SparseMatrix:
    """Sparse matrix over Q stored column-wise."""

    __slots__ = ("rows", "cols", "coldata")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.coldata: list[dict[int, Fraction]] = [dict() for _ in range(cols)]
        if entries:
            for (r, c), v in entries.items():
                self.set(r, c, v)

    @classmethod
    def from_columns(cls, nrows: int, columns: list[dict[int, Fraction]]) -> "SparseMatrix":
        m = cls(nrows, len(columns))
        for c, col in enumerate(columns):
            for r, v in col.items():
                m.set(r, c, v)
        return m

    def set(self, r: int, c: int, value) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) outside {self.rows}x{self.cols}")
        value = Fraction(value)
        if value:
            self.coldata[c][r] = value
        else:
            self.coldata[c].pop(r, None)

    def get(self, r: int, c: int) -> Fraction:
        return self.coldata[c].get(r, Fraction(0))

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        return {(r, c): v for c, col in enumerate(self.coldata) for r, v in col.items()}

    def nnz(self) -> int:
        return sum(len(col) for col in self.coldata)

    def int_columns(self) -> list[SparseVec]:
        """Columns rescaled to integer vectors (rank/image-safe)."""
        return [vec_from_fractions(col)[0] for col in self.coldata]

    def int_rows(self) -> list[SparseVec]:
        """Rows rescaled to integer vectors (rank/kernel-safe)."""
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for c, col in enumerate(self.coldata):
            for r, v in col.items():
                rows[r][c] = v
        return [vec_from_fractions(row)[0] for row in rows]

    def transpose(self) -> "SparseMatrix":
        out = SparseMatrix(self.cols, self.rows)
        for c, col in enumerate(self.coldata):
            for r, v in col.items():
                out.coldata[r][c] = v
        return out


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
            new: SparseVec = {}
            for cc, v in other.items():
                new[cc] = mp * v
            for cc, v in row.items():
                acc = new.get(cc, 0) - ma * v
                if acc:
                    new[cc] = acc
                else:
                    new.pop(cc, None)
            if side is not None:
                bnew: SparseVec = {cc: mp * v for cc, v in side[j].items()}
                for cc, v in side[i].items():
                    acc = bnew.get(cc, 0) - ma * v
                    if acc:
                        bnew[cc] = acc
                    else:
                        bnew.pop(cc, None)
                joint = 0
                for v in new.values():
                    joint = gcd(joint, v)
                for v in bnew.values():
                    joint = gcd(joint, v)
                if joint > 1:
                    new = {cc: v // joint for cc, v in new.items()}
                    bnew = {cc: v // joint for cc, v in bnew.items()}
                side[j] = bnew
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


def rank_exact_rows(rows: list[SparseVec]) -> int:
    pivots, _, _ = _eliminate(rows)
    return len(pivots)


def _back_reduce(pivots: list[tuple[int, int]], rows: list[SparseVec]) -> None:
    """Clear every later pivot column from each pivot row of `_eliminate`,
    in place, so each keeps only its own pivot and free columns.

    Rows are handled in reverse pivot order; a row already handled holds no
    other pivot column, so subtracting it from an earlier row brings in free
    columns only.  Integer cross-multiplication, content stripped per row.
    """
    row_of = dict(pivots)
    for c, i in reversed(pivots):
        row = rows[i]
        for cp in [cc for cc in row if cc != c and cc in row_of]:
            other = rows[row_of[cp]]
            p, a = other[cp], row[cp]
            g = gcd(p, a)
            mp, ma = p // g, a // g
            new: SparseVec = {cc: mp * v for cc, v in row.items()}
            for cc, v in other.items():
                acc = new.get(cc, 0) - ma * v
                if acc:
                    new[cc] = acc
                else:
                    del new[cc]
            row = new
        rows[i], _ = _strip_content(row)


def kernel_int_columns(
    columns: list[SparseVec], ncols_hint: int | None = None
) -> list[SparseVec]:
    """Exact kernel of the matrix with the given columns; vectors indexed by
    column position.

    One vector per free column f, in increasing f: the kernel vector that is
    zero on every other free column, as a primitive sparse integer vector
    with keys in increasing order and its leading entry positive.  The
    pivot rows are back-reduced fraction-free, so each vector is read off
    directly: with lowest-terms x[c] = -row[f] / row[c] over the pivot rows
    that touch f, scaling by the lcm L of their denominators (x[f] = L)
    gives a primitive integer vector.
    """
    ncols = len(columns) if ncols_hint is None else ncols_hint
    rows: dict[int, SparseVec] = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    pivots, reduced, _ = _eliminate(list(rows.values()))
    _back_reduce(pivots, reduced)
    touching: dict[int, list[tuple[int, int, int]]] = {}
    for c, i in pivots:
        row = reduced[i]
        p = row[c]
        for f, v in row.items():
            if f != c:
                g = gcd(v, p)
                num, den = -v // g, p // g
                if den < 0:
                    num, den = -num, -den
                touching.setdefault(f, []).append((c, num, den))
    pivot_cols = {c for c, _ in pivots}
    out: list[SparseVec] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        terms = touching.get(f, ())
        L = lcm(*(den for _, _, den in terms))
        vec = {c: num * (L // den) for c, num, den in terms}
        vec[f] = L
        vec = dict(sorted(vec.items()))
        if next(iter(vec.values())) < 0:
            vec = {c: -v for c, v in vec.items()}
        out.append(vec)
    return out


def solve_rows(
    rows: list[SparseVec],
    b: SparseVec,
    nunknowns: int,
) -> list[Fraction] | None:
    """Solve (rows as the matrix) . x = b exactly; None when inconsistent.
    Free unknowns are set to zero."""
    rhs = [{0: b[r]} if r in b else {} for r in range(len(rows))]
    pivots, reduced, side = _eliminate(rows, rhs)
    assert side is not None
    pivot_rows = {i for _, i in pivots}
    for i in range(len(rows)):
        if i not in pivot_rows and side[i]:
            return None
    x: dict[int, Fraction] = {}
    for c, i in reversed(pivots):
        row = reduced[i]
        acc = Fraction(side[i].get(0, 0))
        for cc, v in row.items():
            if cc != c:
                xv = x.get(cc)
                if xv is not None:
                    acc -= v * xv
        x[c] = acc / row[c] if acc else Fraction(0)
    return [x.get(c, Fraction(0)) for c in range(nunknowns)]


# -- incremental exact echelon ------------------------------------------------


class IntEchelon:
    """Incremental row echelon over Q held as integer rows.

    Each stored row's minimum column is its pivot and pivots are unique, so
    full reduction of a vector (ascending pivot sweep) is linear and leaves a
    residual supported on free columns only.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, SparseVec] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce_full(self, vec: SparseVec) -> tuple[SparseVec, Fraction]:
        """Return (residual, scale): residual = scale * vec - (row combo),
        scale > 0, residual has no entry in any pivot column."""
        v = dict(vec)
        scale = Fraction(1)
        if not v:
            return v, scale
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
                nv: SparseVec = {cc: mp * x for cc, x in v.items()}
                for cc, x in row.items():
                    acc = nv.get(cc, 0) - ma * x
                    if acc:
                        nv[cc] = acc
                    else:
                        nv.pop(cc, None)
                v = nv
                scale *= mp
            if not v:
                break
            v, content = _strip_content(v)
            scale /= content
            hits = sorted(c for c in v if c in self.rows)
        return v, scale

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

    def added_rank(self, vectors) -> int:
        """Rank of `vectors` over the current span, without mutating."""
        probe = IntEchelon(self.ncols)
        count = 0
        for v in vectors:
            res, _ = self.reduce_full(v)
            if res and probe.add(res):
                count += 1
        return count

    def contains(self, vec: SparseVec) -> bool:
        res, _ = self.reduce_full(vec)
        return not res

    def basis_rows(self) -> list[SparseVec]:
        return [dict(self.rows[c]) for c in sorted(self.rows)]


def combo_kernel(vectors: list[SparseVec], echelon: IntEchelon) -> list[SparseVec]:
    """Coefficient vectors c such that sum_a c[a] * vectors[a] lies in the
    span of `echelon`.  Basis of that coefficient space, exact: primitive
    sparse integer vectors with their leading entry positive."""
    residuals: list[SparseVec] = []
    scales: list[Fraction] = []
    for v in vectors:
        r, s = echelon.reduce_full(v)
        residuals.append(r)
        scales.append(s)
    raw = kernel_int_columns(residuals, ncols_hint=len(vectors))
    return [vec_from_fractions({a: v * scales[a] for a, v in b.items()})[0] for b in raw]


# -- canonical subspaces -------------------------------------------------------


class Subspace:
    """Subspace of Q^ambient in canonical form: integer basis rows in fully
    reduced echelon form with positive pivots, pivot columns increasing.
    Equality of subspaces is plain data comparison."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, vectors=()):  # vectors: sparse dicts or dense
        ech = IntEchelon(ambient_dim)
        for v in vectors:
            if not isinstance(v, dict):
                v, _ = vec_from_fractions(v)
            ech.add(v)
        self.ambient_dim = ambient_dim
        basis, pivots = _canonical_rows(ech)
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def _from_echelon(cls, ech: IntEchelon) -> "Subspace":
        s = cls.__new__(cls)
        s.ambient_dim = ech.ncols
        s.basis, s.pivots = _canonical_rows(ech)
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        if not isinstance(vec, dict):
            vec, _ = vec_from_fractions(vec)
        v = dict(vec)
        for pivot, row in zip(self.pivots, self.basis):
            a = v.get(pivot)
            if not a:
                continue
            p = row[pivot]
            g = gcd(p, a)
            mp, ma = p // g, a // g
            nv = {c: mp * x for c, x in v.items()}
            for c, x in row.items():
                acc = nv.get(c, 0) - ma * x
                if acc:
                    nv[c] = acc
                else:
                    nv.pop(c, None)
            v = nv
        return not v

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _canonical_rows(ech: IntEchelon) -> tuple[tuple[SparseVec, ...], tuple[int, ...]]:
    """Fully reduce echelon rows against each other; strip content, make
    pivots positive. The result is the unique reduced basis of the span."""
    pivots = sorted(ech.rows)
    rows = {c: dict(ech.rows[c]) for c in pivots}
    for c in reversed(pivots):
        row = rows[c]
        for c2 in pivots:
            if c2 <= c:
                continue
            a = row.get(c2)
            if not a:
                continue
            other = rows[c2]
            p = other[c2]
            g = gcd(p, a)
            mp, ma = p // g, a // g
            if mp < 0:
                mp, ma = -mp, -ma
            row = {cc: mp * x for cc, x in row.items()}
            for cc, x in other.items():
                acc = row.get(cc, 0) - ma * x
                if acc:
                    row[cc] = acc
                else:
                    row.pop(cc, None)
        row, _ = _strip_content(row)
        if row[c] < 0:
            row = {cc: -x for cc, x in row.items()}
        rows[c] = row
    return tuple(rows[c] for c in pivots), tuple(pivots)


# -- modular fast path --------------------------------------------------------


def _dense_mod(columns: list[SparseVec], nrows: int, p: int) -> np.ndarray:
    """Dense (ncols x nrows) int64 array: column vectors as rows, reduced mod p."""
    M = np.zeros((len(columns), nrows), dtype=np.int64)
    for i, col in enumerate(columns):
        for r, v in col.items():
            M[i, r] = v % p
    return M


def _echelon_mod_inplace(M: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Row echelon of M mod p in place; pivot rows normalized to leading 1.
    Returns (rank, pivot column list)."""
    nrows, ncols = M.shape
    r = 0
    pivot_cols: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        col = M[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        below = M[r + 1 :, c]
        sel = np.nonzero(below)[0]
        if sel.size:
            block = M[r + 1 :][sel]
            block = (block - np.outer(below[sel], M[r])) % p
            M[r + 1 :][sel] = block
        pivot_cols.append(c)
        r += 1
    return r, pivot_cols


def rank_mod(columns: list[SparseVec], nrows: int, p: int) -> int:
    M = _dense_mod(columns, nrows, p)
    r, _ = _echelon_mod_inplace(M, p)
    return r


class ModularSpan:
    """Span of integer vectors modulo a fixed prime, supporting incremental
    added-rank queries.  Used for rank computations of stacked matrices
    [A | B] - rank(A) without re-eliminating A."""

    __slots__ = ("p", "dim", "pivot_rows", "pivot_cols")

    def __init__(self, columns: list[SparseVec], nrows: int, p: int):
        self.p = p
        self.dim = nrows
        M = _dense_mod(columns, nrows, p)
        r, pivots = _echelon_mod_inplace(M, p)
        self.pivot_rows = M[:r].copy()
        self.pivot_cols = pivots

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def added_rank(self, columns: list[SparseVec]) -> int:
        if not columns:
            return 0
        p = self.p
        B = _dense_mod(columns, self.dim, p)
        for i, c in enumerate(self.pivot_cols):
            coeffs = B[:, c]
            sel = np.nonzero(coeffs)[0]
            if sel.size:
                B[sel] = (B[sel] - np.outer(coeffs[sel], self.pivot_rows[i])) % p
        r, _ = _echelon_mod_inplace(B, p)
        return r


# -- public operations ---------------------------------------------------------


def rank(A: SparseMatrix, exact: bool = False, primes=DEFAULT_PRIMES) -> int:
    """Rank of A.  By default reduces modulo two fixed primes and falls back
    to exact elimination when they disagree; exact=True forces the exact
    path straight away."""
    cols = A.int_columns()
    if exact:
        return rank_exact_rows(cols)
    r0 = rank_mod(cols, A.rows, primes[0])
    r1 = rank_mod(cols, A.rows, primes[1])
    if r0 == r1:
        return r0
    return rank_exact_rows(cols)


def kernel(A: SparseMatrix) -> Subspace:
    """Exact kernel of A as a canonical subspace of Q^cols."""
    # per-column rescaling changes the kernel coordinates; undo it per entry
    cols: list[SparseVec] = []
    scales: list[Fraction] = []
    for col in A.coldata:
        v, s = vec_from_fractions(col)
        cols.append(v)
        scales.append(s)
    vectors = kernel_int_columns(cols, ncols_hint=A.cols)
    fixed = [{c: v * scales[c] for c, v in y.items()} for y in vectors]
    return Subspace(A.cols, [vec_from_fractions(f)[0] for f in fixed])


def image(A: SparseMatrix) -> Subspace:
    """Column span of A as a canonical subspace of Q^rows."""
    return Subspace(A.rows, A.int_columns())


def solve_into(A: SparseMatrix, b, modulo: Subspace | None = None):
    """x with A x = b, or A x = b modulo the given subspace of the target.
    Returns a list of Fractions, or NO_SOLUTION."""
    bvec, bscale = vec_from_fractions(b)
    columns: list[SparseVec] = []
    colscales: list[Fraction] = []
    for col in A.coldata:
        v, s = vec_from_fractions(col)
        columns.append(v)
        colscales.append(s)
    extra: list[SparseVec] = []
    if modulo is not None:
        if modulo.ambient_dim != A.rows:
            raise ValueError("modulo subspace must live in the target space")
        extra = [dict(row) for row in modulo.basis]
    allcols = columns + extra
    rows: dict[int, SparseVec] = {}
    for c, col in enumerate(allcols):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    row_list: list[SparseVec] = []
    bshift: SparseVec = {}
    row_index: dict[int, int] = {}
    for r, row in rows.items():
        row_index[r] = len(row_list)
        row_list.append(row)
    for r, v in bvec.items():
        if r not in row_index:
            if v:
                return NO_SOLUTION
            continue
        bshift[row_index[r]] = v
    sol = solve_rows(row_list, bshift, len(allcols))
    if sol is None:
        return NO_SOLUTION
    # we solved (scale_c * A_c) x' = bscale * b, so x_c = x'_c * scale_c / bscale
    return [sol[c] * colscales[c] / bscale for c in range(A.cols)]


def quotient_dim(ambient_dim: int, rel: Subspace) -> int:
    """Dimension of ambient / rel."""
    if rel.ambient_dim != ambient_dim:
        raise ValueError("relation subspace has wrong ambient dimension")
    return ambient_dim - rel.dim
