"""Exact sparse linear algebra: ranks, kernels, spans and lift solves."""

import random
from fractions import Fraction
from math import gcd

import pytest
import support
from koszulspec import cli, linalg
from koszulspec.linalg import (
    IntEchelon,
    ModularSpan,
    DEFAULT_PRIMES,
    PRIME_PRODUCT,
    ZeroDivisorError,
    combo_kernel,
    kernel_int_columns,
    pivot_columns,
    rank_exact_rows,
    rank_mod,
    solve_into,
    vec_from_fractions,
)

F = Fraction


def _matvec(columns, x):
    """sum_c x[c] * columns[c] as a sparse dict without zero entries."""
    out = {}
    for c, a in x.items():
        for r, v in columns[c].items():
            out[r] = out.get(r, 0) + a * v
    return {r: v for r, v in out.items() if v}


def _ranks(columns, nrows):
    """(rank mod p0, rank mod p1, exact rank)."""
    return (*support.modular_ranks(columns, nrows), rank_exact_rows(columns))


def test_small_rank_values():
    assert _ranks([{0: 1, 1: 2}, {0: 2, 1: 4}], 2) == (1, 1, 1)
    assert _ranks([{0: 1, 1: 2}, {0: 2, 1: 5}], 2) == (2, 2, 2)
    assert _ranks([{}] * 4, 3) == (0, 0, 0)


def test_rank_fractional_entries():
    cols = [
        vec_from_fractions({0: F(1, 2), 1: F(3, 2)})[0],
        vec_from_fractions({0: F(1, 3), 1: F(1)})[0],
    ]
    assert _ranks(cols, 2) == (1, 1, support.dense_rank(cols, 2))


def test_rank_modular_vs_exact_randomized():
    """Ranks modulo each fixed prime, exact ranks and a dense oracle agree
    on 100 randomized matrices."""
    agree = support.modular_rank_agreement(count=100, seed=20260825)
    print("modular/exact rank agreement:", agree, "/ 100")
    assert agree == 100


def test_rank_invariant_under_permutation():
    rng = random.Random(3)
    for _ in range(15):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        m = support.random_sparse(rng, nrows, ncols)
        rows = list(range(nrows))
        cols = list(range(ncols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        p = [None] * ncols
        for c, col in enumerate(m):
            p[cols[c]] = {rows[r]: v for r, v in col.items()}
        assert _ranks(p, nrows) == _ranks(m, nrows)


def test_rank_invariant_under_row_scaling():
    rng = random.Random(4)
    m = support.random_sparse(rng, 6, 6)
    s = [vec_from_fractions({r: v * F(r + 1, 7) for r, v in col.items()})[0] for col in m]
    assert _ranks(s, 6) == _ranks(m, 6)


def test_kernel_annihilates():
    rng = random.Random(5)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
        m = support.random_sparse(rng, nrows, ncols)
        ker = kernel_int_columns(m)
        assert len(ker) == ncols - rank_exact_rows(m)
        for vec in ker.values():
            assert _matvec(m, vec) == {}


def test_image_contains_columns():
    rng = random.Random(6)
    m = support.random_sparse(rng, 5, 7)
    im = IntEchelon()
    im.add_many(m)
    assert im.rank == rank_exact_rows(m)
    for col in m:
        # a column scaled by a fraction spans the same line once cleared
        assert im.contains(col)
        assert im.contains(vec_from_fractions({r: F(v, 6) for r, v in col.items()})[0])


def test_subspace_contains_and_sum():
    s = IntEchelon()
    s.add({0: 1, 2: 2})
    assert s.contains({0: 3, 2: 6})
    assert s.contains(vec_from_fractions([F(1, 2), 0, F(1), 0])[0])
    assert not s.contains({0: 1})
    s.add({1: 1})
    assert s.rank == 2
    assert s.contains({0: 2, 1: 5, 2: 4})


def test_solve_into_reproduces_target():
    cols = [{0: 1, 1: 2}, {1: 1, 2: 3}]
    b = {0: 2, 1: 5, 2: 3}
    [sol] = solve_into(cols, [b])
    assert sol is not None
    x, den = sol
    assert den > 0
    assert _matvec(cols, x) == {r: den * v for r, v in b.items()}


def test_solve_into_unreachable():
    assert solve_into([{0: 1}], [{1: 1}]) == [None]
    # a target row no column touches, next to a reachable target
    assert solve_into([{0: 1}], [{0: 3}, {1: 1}]) == [({0: 3}, 1), None]


def test_solve_into_modulo():
    # unreachable on the nose, solvable modulo the second axis
    [sol] = solve_into([{0: 1}], [{0: 2, 1: 9}], modulo=[{1: 1}])
    assert sol is not None
    x, den = sol
    assert _matvec([{0: 1}], x) == {0: 2 * den}


def test_solve_into_fractional_columns():
    """Column content must not leak into the solution."""
    cols = [{0: 4}, {1: 6}]
    [sol] = solve_into(cols, [{0: 2, 1: 9}])
    assert sol == ({0: 1, 1: 3}, 2)
    assert _matvec(cols, sol[0]) == {0: 4, 1: 18}


def test_solve_into_property():
    """Several targets per system, entries up to p0*p1, some targets
    reachable only modulo the extra columns: A x - den * b lies in their
    span exactly, and unreachable targets give None.  Inputs untouched."""
    rng = random.Random(20261019)
    p0p1 = DEFAULT_PRIMES[0] * DEFAULT_PRIMES[1]

    def entry():
        if rng.random() < 0.15:
            return rng.choice((1, -1, 2)) * p0p1
        return rng.randint(-5, 5) if rng.random() < 0.5 else 0

    def vec(nrows):
        return {r: v for r in range(nrows) if (v := entry())}

    def combo(vectors):
        out = {}
        for v in vectors:
            a = rng.randint(-3, 3)
            for r, x in v.items():
                out[r] = out.get(r, 0) + a * x
        return {r: x for r, x in out.items() if x}

    seen = {"direct": 0, "modulo": 0, "none": 0}
    for _ in range(60):
        nrows = rng.randint(2, 9)
        cols = [vec(nrows) for _ in range(rng.randint(1, 6))]
        extra = [vec(nrows) for _ in range(rng.randint(0, 3))]
        targets = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.random()
            if kind < 0.4:
                targets.append(combo(cols))
            elif kind < 0.7:
                targets.append(combo(cols + extra))
            else:
                targets.append(vec(nrows))
        span = IntEchelon()
        span.add_many(cols + extra)
        w = IntEchelon()
        w.add_many(extra)
        frozen = [[dict(v) for v in vs] for vs in (cols, extra, targets)]
        sols = solve_into(cols, targets, extra)
        assert [cols, extra, targets] == frozen
        assert len(sols) == len(targets)
        for b, sol in zip(targets, sols):
            if sol is None:
                assert not span.contains(b)
                seen["none"] += 1
                continue
            x, den = sol
            assert den > 0 and all(isinstance(v, int) and v for v in x.values())
            assert list(x) == sorted(x) and all(0 <= c < len(cols) for c in x)
            got = _matvec(cols, x)
            resid = {r: got.get(r, 0) - den * b.get(r, 0) for r in set(got) | set(b)}
            assert w.contains({r: v for r, v in resid.items() if v})
            plain = IntEchelon()
            plain.add_many(cols)
            seen["direct" if plain.contains(b) else "modulo"] += 1
    assert min(seen.values()) >= 10, seen


def test_int_echelon_ignores_explicit_zeros():
    """A zero entry off the pivot columns is no entry at all."""
    ech = IntEchelon()
    ech.add({1: 1})
    assert ech.contains({0: 0, 1: -9})
    assert ech.reduce_full({0: 0, 1: -9})[0] == {}
    assert not ech.add({0: 0, 1: 4})
    # rank added to the span = number of vectors - dimension of combo_kernel
    assert 2 - len(combo_kernel([{0: 0}, {0: 0, 1: 2}], ech)[0]) == 0


def test_int_echelon_rank_tracking():
    ech = IntEchelon()
    assert ech.add({0: 1, 1: 1})
    assert not ech.add({0: 2, 1: 2})
    assert ech.add({2: 5})
    assert ech.contains({0: 3, 1: 3, 2: -5})
    assert not ech.contains({0: 1})
    assert 2 - len(combo_kernel([{0: 1}, {1: 1}], ech)[0]) == 1


def test_combo_kernel_combinations_land_in_span():
    ech = IntEchelon()
    ech.add({0: 1, 1: 1})
    vectors = [{0: 1, 1: 1}, {0: 2, 1: 2}, {2: 1}]
    combos, residuals = combo_kernel(vectors, ech)
    assert combos, "the first two vectors are dependent modulo the span"
    for c in combos:
        acc = {}
        for a, coeff in c.items():
            for k, v in vectors[a].items():
                acc[k] = acc.get(k, 0) + coeff * v
        residue = {k: v for k, v in acc.items() if v}
        assert ech.contains(residue)
        # the third vector never participates: it is independent
        assert c.get(2, 0) == 0
    # one residual per independent vector: none carries a pivot column of
    # the span, and together they extend it exactly as the vectors do
    assert len(residuals) == len(vectors) - len(combos) == 1
    assert not any(c in ech.step for r in residuals for c in r)
    with_residuals = IntEchelon()
    with_residuals.add_many(row for _, row in ech.pivots)
    assert with_residuals.add_many(residuals) == len(residuals)
    assert all(with_residuals.contains(v) for v in vectors)


def _random_low_rank_columns(rng, nrows, ncols, rank, big):
    """Columns of U V for random integer U (nrows x rank), V (rank x ncols);
    with `big`, some entries are multiples of p0*p1."""
    p0p1 = DEFAULT_PRIMES[0] * DEFAULT_PRIMES[1]

    def entry():
        if big and rng.random() < 0.3:
            return rng.choice((1, -1, 3)) * p0p1
        return rng.randint(-4, 4) if rng.random() < 0.6 else 0

    U = [[entry() for _ in range(rank)] for _ in range(nrows)]
    V = [[entry() for _ in range(ncols)] for _ in range(rank)]
    cols = []
    for c in range(ncols):
        col = {}
        for r in range(nrows):
            v = sum(U[r][t] * V[t][c] for t in range(rank))
            if v:
                col[r] = v
        cols.append(col)
    return cols


def test_kernel_int_columns_property():
    """Exact annihilation, full dimension, primitive vectors with a
    positive leading entry, on random rank-deficient integer matrices; each
    vector is keyed by its free column, where the basis is diagonal.
    Input untouched."""
    rng = random.Random(20261018)
    for trial in range(120):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 10)
        cols = _random_low_rank_columns(
            rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), big=trial % 3 == 0
        )
        frozen = [dict(c) for c in cols]
        ker = kernel_int_columns(cols)
        assert cols == frozen
        assert type(ker) is dict
        assert len(ker) == ncols - rank_exact_rows(cols)
        assert list(ker) == sorted(ker)
        for f, vec in ker.items():
            assert vec and all(isinstance(v, int) and v for v in vec.values())
            assert list(vec) == sorted(vec)
            assert vec[min(vec)] > 0
            # nonzero at its own free column (not necessarily the leading
            # entry, which is the positive one), zero at every other
            assert vec[f] != 0
            assert all(g == f or g not in vec for g in ker)
            g = 0
            for v in vec.values():
                g = gcd(g, v)
            assert g == 1
            image_ = {}
            for c, x in vec.items():
                for r, v in cols[c].items():
                    image_[r] = image_.get(r, 0) + x * v
            assert not any(image_.values())


def test_kernel_matches_the_eager_reference():
    """Every kernel vector, and the order of the free columns, equals the
    reference read-off's, which indexes the pivot rows touching each free
    column instead of scanning the pivot rows per free column, on random
    sparse matrices of every shape and rank."""
    rng = random.Random(20261019)
    for trial in range(150):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 10)
        if trial % 2:
            cols = support.random_sparse(rng, nrows, ncols, density=rng.choice((0.2, 0.5)))
        else:
            cols = _random_low_rank_columns(
                rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), big=trial % 4 == 0
            )
        ker = kernel_int_columns(cols)
        ref = support.reference_kernel(cols)
        assert ker == ref and list(ker) == list(ref)
        for f in ref:
            assert list(ker[f]) == list(ref[f])


def test_kernel_int_columns_frozen_basis():
    """Kernel basis of a fixed 6x8 matrix: the free columns, and so the
    basis, pin the pivot order and its tie-break."""
    A = [
        [1, 2, 0, -1, 3, 0, 2, 1],
        [0, 1, 1, 2, 0, -2, 1, 0],
        [1, 3, 1, 1, 3, -2, 3, 1],
        [2, 0, -4, -10, 6, 8, 0, 2],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [3, 1, 0, 4, -1, 5, 0, 6],
    ]
    cols = [{r: A[r][c] for r in range(6) if A[r][c]} for c in range(8)]
    assert kernel_int_columns(cols) == {
        0: {0: 2, 1: -6, 2: 1, 6: 5},
        3: {1: 8, 2: 5, 3: -2, 6: -9},
        4: {1: 2, 2: 3, 4: 2, 6: -5},
        5: {1: 5, 2: -2, 5: -1, 6: -5},
        7: {1: 12, 2: -1, 6: -11, 7: -2},
    }


def test_pivot_orders_frozen():
    """Both pivot orders on one fixed matrix whose last row is the sum of
    rows 0 and 3: the exact map (pivot column -> row, in elimination order,
    bit-length tie-breaks) and the modular pivots (index and row scaled to 1
    modulo p0*p1, entries in order), which tie-break by index alone.  Rows 1
    and 5 have three entries each, and only row 5 holds a 1.  Input
    untouched."""
    A = [
        [2, 0, 5, 0, 1, 0, 3, 0],
        [0, 4, 0, 2, 0, 12, 0, 0],
        [1, 1, 0, 0, 2, 0, 0, 7],
        [0, 0, 3, 2, 0, 0, 1, 1],
        [6, 0, 0, 1, 0, 3, 0, 2],
        [0, 9, 2, 0, 1, 0, 0, 0],
        [2, 0, 8, 2, 1, 0, 4, 1],
    ]
    vecs = [{c: v for c, v in enumerate(row) if v} for row in A]
    assert list(pivot_columns(vecs).items()) == [(1, 5), (6, 0), (5, 4), (2, 2), (3, 1), (4, 3)]
    pivots = ModularSpan(vecs, PRIME_PRODUCT).pivots
    assert [(c, list(row.items())) for c, row in pivots] == [
        (5, [(1, 3074457316985143309), (3, 3843071646231429136), (5, 1)]),
        (1, [(1, 1), (2, 3586866869816000527), (4, 4099276422646857745)]),
        (6, [(0, 1537228658492571655), (2, 1537228658492571656), (4, 3074457316985143309), (6, 1)]),
        (0, [(0, 1), (4, 512409552830857220), (7, 7), (2, 1024819105661714436)]),
        (2, [(2, 1), (3, 2017612614271500298), (7, 4179340415276679190), (4, 4179340415276679186)]),
        (3, [(3, 1), (7, 3390945570204202201), (4, 135637822808168093)]),
    ]
    assert vecs == [{c: v for c, v in enumerate(row) if v} for row in A]


def test_pivot_choice_ignores_signs():
    """Over the integers a row and its negation get the same pivot key and
    the same pivot column (`int.bit_length` ignores the sign), so negating
    rows leaves the exact pivot order unchanged."""
    row = {0: -6, 3: 5, 7: -1, 9: 12}
    neg = {c: -v for c, v in row.items()}
    assert linalg._pivot_key(row, 4) == linalg._pivot_key(neg, 4) == (4, 1, 4)
    col_rows = {0: {1, 2}, 3: {1}, 7: {1, 2}, 9: {1}}
    assert linalg._pick_pivot_col(row, col_rows, 0) == linalg._pick_pivot_col(neg, col_rows, 0) == 3
    rng = random.Random(20261020)
    vecs = support.random_sparse(rng, 9, 12)
    flipped = [{c: -v for c, v in vec.items()} if i % 2 else vec for i, vec in enumerate(vecs)]
    assert pivot_columns(flipped) == pivot_columns(vecs)


def test_reduce_full_scale_property():
    """On seeded random integer spans, some with entries that are multiples
    of p0*p1, each held both as an echelon grown by `add` and as one built
    at once from the columns, whose pivots may be negative: the scale is a
    positive Fraction, the residual has no pivot column, and
    scale * vec - residual lies in the span.  For a vector outside the span
    that pins the scale: any other scale moves the difference out of the
    span by a multiple of the vector."""
    rng = random.Random(20261019)
    seen = {"inside": 0, "outside": 0, "fractional": 0, "negative pivot": 0}
    for trial in range(100):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        big = trial % 3 == 0
        span = _random_low_rank_columns(
            rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), big
        )
        grown = IntEchelon()
        grown.add_many(span)
        built = IntEchelon(span)
        rank = rank_exact_rows(span)
        assert grown.rank == built.rank == rank
        seen["negative pivot"] += any(row[c] < 0 for c, row in built.pivots)
        for _ in range(3):
            vec = _matvec(span, {c: rng.randint(-3, 3) for c in range(ncols)})
            if rng.random() < 0.5:
                r = rng.randrange(nrows + 1)
                vec[r] = vec.get(r, 0) + rng.choice((1, -2, 5, DEFAULT_PRIMES[0] * DEFAULT_PRIMES[1]))
            vec = {r: v * 2 for r, v in vec.items() if v}
            inside = rank_exact_rows([*span, vec]) == rank
            for ech in (grown, built):
                res, scale = ech.reduce_full(vec)
                assert isinstance(scale, Fraction) and scale > 0
                assert not any(c in ech.step for c in res)
                assert all(isinstance(v, int) and v for v in res.values())
                diff = {
                    r: scale.numerator * vec.get(r, 0) - scale.denominator * res.get(r, 0)
                    for r in set(vec) | set(res)
                }
                assert rank_exact_rows([*span, {r: v for r, v in diff.items() if v}]) == rank
                assert inside == (not res) == ech.contains(vec)
                seen["fractional"] += scale.denominator > 1
            seen["inside" if inside else "outside"] += 1
    assert min(seen.values()) >= 10, seen


def test_reduce_full_and_combo_kernel_frozen():
    """Scales, residuals and combo_kernel coefficients on one small case,
    some scales fractional; frozen from the reduction that multiplied a
    Fraction scale at every step."""
    ech = IntEchelon()
    ech.add_many([{0: 4, 1: 6, 3: 3}, {1: 9, 2: -6, 4: 2}, {2: 10, 3: 5, 4: -5}])
    vectors = [
        {0: 8, 2: 12, 4: 4},
        {1: 6, 3: -8},
        {0: 6, 1: 3, 2: -2, 3: 7, 4: 5},
        {3: 4, 4: -4},
        {0: 10, 5: 2},
        {0: 4, 1: 6, 3: 9, 5: 6},
    ]
    assert [ech.reduce_full(v) for v in vectors] == [
        ({4: 13, 3: -12}, F(3, 2)),
        ({3: -15, 4: 1}, F(3, 2)),
        ({3: 33, 4: 20}, F(6)),
        ({3: 4, 4: -4}, F(1)),
        ({5: 12, 3: -15, 4: -10}, F(6)),
        ({3: 1, 5: 1}, F(1, 6)),
    ]
    assert combo_kernel(vectors, ech) == (
        [{0: 28, 1: 2, 3: 61}, {1: 106, 2: 112, 3: 111}, {1: 222, 3: 177, 4: -336, 5: 112}],
        [{3: -15, 4: 1}, {3: 4, 4: -4}, {3: 1, 5: 1}],
    )


def test_vec_from_fractions_scaling():
    # vec = scale * values, scale positive
    vec, scale = vec_from_fractions({0: F(1, 2), 3: F(-2, 3)})
    assert vec == {0: 3, 3: -4}
    assert scale == 6
    assert all(F(v) == scale * w for v, w in [(3, F(1, 2)), (-4, F(-2, 3))])
    assert vec_from_fractions({}) == ({}, 1)


def test_modular_span_added_rank():
    span = ModularSpan([{0: 1, 1: 2}], DEFAULT_PRIMES[0])
    assert span.rank == 1
    assert span.added_rank([{0: 2, 1: 4}]) == 0
    assert span.added_rank([{2: 1}, {2: 3}]) == 1
    assert span.added_rank([]) == 0


def test_modular_products_of_both_primes_leave_no_zero_entry():
    """Modulo p0*p1 a multiple of p0 times a multiple of p1 is 0, so it is
    not stored: no elimination picks it as a spurious pivot, and no residual
    keeps it.  The rank is 4, as modulo each prime and over Q."""
    p0, p1 = DEFAULT_PRIMES
    cols = [{0: 1, 1: p1}, {0: p0, 4: 1}, {1: 1, 3: 1}, {4: 1, 5: 1}]
    assert [rank_mod(cols, 6, p) for p in (p0, p1, PRIME_PRODUCT)] == [4, 4, 4]
    assert rank_exact_rows(cols) == 4
    assert ModularSpan(cols[:1], PRIME_PRODUCT).reduce({0: p0, 4: 1}) == {4: 1}


def _dense_rank_mod(columns, nrows, p):
    """Plain dense Gaussian elimination over Z/p; independent of the library."""
    a = [[columns[c].get(r, 0) % p for c in range(len(columns))] for r in range(nrows)]
    rk = 0
    for col in range(len(columns)):
        piv = next((i for i in range(rk, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        inv = pow(a[rk][col], p - 2, p)
        for i in range(rk + 1, nrows):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rk])]
        rk += 1
    return rk


def test_modular_path_property():
    """Sparse ranks mod each fixed prime against a dense oracle mod that
    prime, on entries that vanish mod one prime or both (multiples of p0,
    p1, p0*p1, negative too) and with empty columns; added ranks of a
    ModularSpan against the rank of the stacked columns.  Modulo p0*p1
    the rank, the span build and its added rank each either raise
    ZeroDivisorError or give the rank modulo both primes, which then agree;
    the rank takes each outcome on at least 10 matrices, and at least 10
    span builds and 10 added ranks succeed.  Inputs untouched."""
    p0, p1 = DEFAULT_PRIMES
    rng = random.Random(20261018)
    pool = [1, -1, 2, -3, 7, p0, -p0, 3 * p1, -p1, p0 * p1, -2 * p0 * p1, p0 * p1 + 1, -p0 - 5]
    split = raised = units = built = added_ok = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 9), rng.randint(0, 9)
        density = rng.choice([0.2, 0.5, 0.9])
        cols = [
            {r: rng.choice(pool) for r in range(nrows) if rng.random() < density}
            for _ in range(ncols)
        ]
        if ncols >= 2 and rng.random() < 0.5:
            a, b = rng.sample(range(ncols), 2)
            u, v = rng.choice(pool), rng.choice(pool)
            mix = {r: u * cols[a].get(r, 0) + v * cols[b].get(r, 0) for r in range(nrows)}
            cols.append({r: x for r, x in mix.items() if x})
        cols.insert(rng.randint(0, len(cols)), {})
        k = rng.randint(0, len(cols))
        frozen = [dict(c) for c in cols]
        ranks, prefix = [], []
        for p in DEFAULT_PRIMES:
            full = rank_mod(cols, nrows, p)
            assert full == _dense_rank_mod(cols, nrows, p)
            span = ModularSpan(cols[:k], p)
            assert span.rank == rank_mod(cols[:k], nrows, p)
            assert span.added_rank(cols[k:]) == full - span.rank
            assert span.added_rank(cols[k:]) == full - span.rank  # span unchanged
            ranks.append(full)
            prefix.append(span.rank)
        try:
            assert rank_mod(cols, nrows, PRIME_PRODUCT) == ranks[0] == ranks[1]
            units += 1
        except ZeroDivisorError:
            raised += 1
        try:
            span = ModularSpan(cols[:k], PRIME_PRODUCT)
        except ZeroDivisorError:
            pass
        else:
            assert span.rank == prefix[0] == prefix[1]
            built += 1
            try:
                added = span.added_rank(cols[k:])
            except ZeroDivisorError:
                pass
            else:
                assert added == ranks[0] - span.rank == ranks[1] - span.rank
                added_ok += 1
        assert cols == frozen
        split += ranks[0] != ranks[1]
    assert split >= 10
    assert raised >= 10 and units >= 10
    assert built >= 10 and added_ok >= 10


def _random_rows(rng, pool, shape):
    """Rows of a random matrix: `singleton` rows mostly hold one entry, on
    few columns, so single-entry pivots clear each other and the rows they
    touch; `dense` rows fill most of a small matrix."""
    if shape == "singleton":
        ncols = rng.randint(1, 12)
        sizes = [rng.choice([0, 1, 1, 1, 1, 2, 3]) for _ in range(rng.randint(1, 30))]
    else:
        ncols = rng.randint(1, 7)
        sizes = [rng.randint(0, ncols) for _ in range(rng.randint(1, 7))]
    return [{c: rng.choice(pool) for c in rng.sample(range(ncols), min(k, ncols))} for k in sizes]


def test_eliminate_matches_the_reference_engine():
    """On seeded random matrices, singleton-heavy and dense, with entries
    p0, p1, p0*p1, their negatives and multiples and 60-bit integers, the
    engine returns exactly what the reference engine returns, key order
    included, or raises ZeroDivisorError with the same message: over the
    integers with and without side vectors, modulo each fixed prime and
    modulo p0*p1.  Inputs untouched."""
    p0, p1 = DEFAULT_PRIMES
    rng = random.Random(20261022)
    big = [rng.randrange(2**59, 2**60) * rng.choice([1, -1]) for _ in range(4)]
    pool = [1, -1, 2, -3, 5, p0, -p0, p1, 3 * p1, PRIME_PRODUCT, -PRIME_PRODUCT,
            PRIME_PRODUCT + 1, -2 * p0 - 1, *big]
    raised = compared = 0
    for trial in range(400):
        rows = _random_rows(rng, pool, "singleton" if trial % 2 else "dense")
        frozen = [dict(r) for r in rows]
        for p in (0, p0, p1, PRIME_PRODUCT):
            rhs = None
            if not p and trial % 4 < 2:
                rhs = [{t: rng.choice(pool) for t in range(3) if rng.random() < 0.4} for _ in rows]
            want = support.elimination_outcome(support.reference_eliminate, rows, p, rhs)
            assert support.elimination_outcome(linalg._eliminate, rows, p, rhs) == want
            raised += want[0] == "raises"
            compared += 1
        assert rows == frozen
    assert compared == 1600 and raised >= 20


def test_eliminate_replays_the_spectrum_blocks(monkeypatch, capsys):
    """Every elimination that `spectrum --kmax 17` runs on the df wedge and
    derivative blocks of twoa3, the Cayley cubic and x^2*y^2 + z^4 + w^4,
    exact and modulo p0*p1, returns exactly what the reference engine
    returns on the same input."""
    real = linalg._eliminate
    seen = {"exact": 0, "modular": 0, "single": 0}

    def eliminate(rows, p=0, rhs=None):
        want = support.elimination_outcome(support.reference_eliminate, rows, p, rhs)
        assert support.elimination_outcome(real, rows, p, rhs) == want
        seen["modular" if p else "exact"] += 1
        seen["single"] += sum(len(r) == 1 for r in rows)
        return real(rows, p, rhs)

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    for label in ("twoa3", "cayley", "ts_4_4_2"):
        text, variables = support.CORPUS[label]
        assert cli.main(["spectrum", "-v", ",".join(variables), text, "--kmax", "17"]) == 0
    capsys.readouterr()
    assert seen["exact"] >= 30 and seen["modular"] >= 30 and seen["single"] >= 1000, seen


def test_singleton_pivot_edge_cases():
    """A single-entry pivot p0*c or p1*c modulo p0*p1 raises the message it
    always raised; an entry that is 0 modulo p0*p1 is gone before any pivot is
    chosen, so its row pivots on its other entry; modulo a prime a
    single-entry pivot row is {c: 1}."""
    p0, p1 = DEFAULT_PRIMES
    N = PRIME_PRODUCT
    for rows, bad in (([{3: 5 * p0}], 5 * p0), ([{0: 1, 1: 2}, {1: 7 * p1}, {1: 3, 2: 1}], 7 * p1)):
        message = f"pivot {bad} is not a unit modulo {N}"
        with pytest.raises(ZeroDivisorError) as exc:
            linalg._eliminate(rows, N)
        assert str(exc.value) == message
        assert support.elimination_outcome(support.reference_eliminate, rows, N) == ("raises", message)
    pivots, out, _ = linalg._eliminate([{0: 5 * N, 1: 3}, {1: 7, 2: 1}, {0: -N}], N)
    assert pivots == [(1, 0), (2, 1)]
    assert [list(r.items()) for r in out] == [[(1, 1)], [(2, 1)], []]
    for p in DEFAULT_PRIMES:
        pivots, out, _ = linalg._eliminate([{4: -3}, {4: 6, 2: 1}], p)
        assert pivots == [(4, 0), (2, 1)]
        assert out[0] == {4: 1} and out[1] == {2: 1}
