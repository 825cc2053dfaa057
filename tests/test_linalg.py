"""Exact sparse linear algebra: ranks, kernels, canonical subspaces."""

import random
from fractions import Fraction
from math import gcd

import pytest

import support
from koszulspec.linalg import (
    NO_SOLUTION,
    IntEchelon,
    ModularSpan,
    SparseMatrix,
    Subspace,
    DEFAULT_PRIMES,
    combo_kernel,
    image,
    kernel,
    kernel_int_columns,
    rank,
    rank_exact_rows,
    solve_into,
    vec_from_fractions,
)

F = Fraction


def _matvec(m, coeffs):
    """m times a coefficient list, as a dense Fraction list."""
    out = [F(0)] * m.rows
    for c, a in enumerate(coeffs):
        if not a:
            continue
        for r, v in m.coldata[c].items():
            out[r] += a * v
    return out


def test_small_rank_values():
    m = SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    assert rank(m) == 1
    m.set(1, 1, 5)
    assert rank(m) == 2
    assert rank(SparseMatrix(3, 4)) == 0


def test_rank_fractional_entries():
    m = SparseMatrix(2, 2, {(0, 0): F(1, 2), (0, 1): F(1, 3), (1, 0): F(3, 2), (1, 1): 1})
    assert rank(m) == rank(m, exact=True) == support.dense_rank(m)


def test_rank_modular_vs_exact_randomized():
    """Fast-path ranks, exact ranks and a dense oracle agree on 100
    randomized matrices."""
    agree = support.modular_rank_agreement(count=100, seed=20260825)
    print("modular/exact rank agreement:", agree, "/ 100")
    assert agree == 100


def test_rank_invariant_under_permutation():
    rng = random.Random(3)
    for _ in range(15):
        m = support.random_sparse(rng, rng.randint(2, 7), rng.randint(2, 7))
        rows = list(range(m.rows))
        cols = list(range(m.cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        p = SparseMatrix(m.rows, m.cols)
        for (r, c), v in m.entries.items():
            p.set(rows[r], cols[c], v)
        assert rank(p) == rank(m)


def test_rank_invariant_under_row_scaling():
    rng = random.Random(4)
    m = support.random_sparse(rng, 6, 6)
    s = SparseMatrix(6, 6)
    for (r, c), v in m.entries.items():
        s.set(r, c, v * F(r + 1, 7))
    assert rank(s) == rank(m)


def test_kernel_annihilates():
    rng = random.Random(5)
    for _ in range(10):
        m = support.random_sparse(rng, rng.randint(2, 6), rng.randint(2, 6))
        ker = kernel(m)
        assert ker.dim == m.cols - rank(m)
        for row in ker.basis:
            coeffs = [row.get(c, 0) for c in range(m.cols)]
            assert all(v == 0 for v in _matvec(m, coeffs))


def test_image_contains_columns():
    rng = random.Random(6)
    m = support.random_sparse(rng, 5, 7)
    im = image(m)
    assert im.dim == rank(m)
    for c in range(m.cols):
        # dense lists may carry fractions; sparse dicts are integer-only
        assert im.contains([m.get(r, c) for r in range(m.rows)])


def test_subspace_canonical_equality():
    # same span reached through different generators and scalings
    a = Subspace(3, [{0: 1, 1: 1}, {1: 2}])
    b = Subspace(3, [{1: -7}, {0: 3, 1: -5}, {0: 6, 1: 2}])
    assert a == b
    assert a.dim == 2
    assert hash(a) == hash(b)
    c = Subspace(3, [{0: 1}, {2: 1}])
    assert a != c


def test_subspace_accepts_dense_rational_vectors():
    a = Subspace(3, [[F(1, 2), F(1, 2), 0]])
    b = Subspace(3, [{0: 1, 1: 1}])
    assert a == b


def test_subspace_contains_and_sum():
    s = Subspace(4, [{0: 1, 2: 2}])
    assert s.contains({0: 3, 2: 6})
    assert s.contains([F(1, 2), 0, F(1), 0])
    assert not s.contains({0: 1})
    t = Subspace(4, [{1: 1}])
    u = s.sum(t)
    assert u.dim == 2
    assert u.contains({0: 2, 1: 5, 2: 4})
    with pytest.raises(ValueError):
        s.sum(Subspace(3, [{0: 1}]))


def test_solve_into_reproduces_target():
    m = SparseMatrix(3, 2, {(0, 0): 1, (1, 0): 2, (1, 1): 1, (2, 1): 3})
    b = {0: F(2), 1: F(5), 2: F(3)}
    x = solve_into(m, b)
    assert x is not NO_SOLUTION
    got = _matvec(m, x)
    assert got == [b.get(r, F(0)) for r in range(3)]


def test_solve_into_unreachable():
    m = SparseMatrix(2, 1, {(0, 0): 1})
    assert solve_into(m, {1: F(1)}) is NO_SOLUTION


def test_solve_into_modulo():
    # unreachable on the nose, solvable modulo the second axis
    m = SparseMatrix(2, 1, {(0, 0): 1})
    w = Subspace(2, [{1: 1}])
    x = solve_into(m, {0: F(2), 1: F(9)}, modulo=w)
    assert x is not NO_SOLUTION
    got = _matvec(m, x)
    assert w.contains([got[0] - 2, got[1] - 9])


def test_solve_into_fractional_columns():
    """Column content must not leak into the solution."""
    m = SparseMatrix(2, 2, {(0, 0): F(1, 2), (1, 1): F(2, 3)})
    b = {0: F(1), 1: F(1)}
    x = solve_into(m, b)
    assert x == [F(2), F(3, 2)]
    assert _matvec(m, x) == [F(1), F(1)]


def test_int_echelon_rank_tracking():
    ech = IntEchelon(3)
    assert ech.add({0: 1, 1: 1})
    assert not ech.add({0: 2, 1: 2})
    assert ech.add({2: 5})
    assert ech.contains({0: 3, 1: 3, 2: -5})
    assert not ech.contains({0: 1})
    assert ech.added_rank([{0: 1}, {1: 1}]) == 1


def test_combo_kernel_combinations_land_in_span():
    ech = IntEchelon(3)
    ech.add({0: 1, 1: 1})
    vectors = [{0: 1, 1: 1}, {0: 2, 1: 2}, {2: 1}]
    combos = combo_kernel(vectors, ech)
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
    positive leading entry, on random rank-deficient integer matrices."""
    rng = random.Random(20261018)
    for trial in range(120):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 10)
        cols = _random_low_rank_columns(
            rng, nrows, ncols, rng.randint(0, min(nrows, ncols)), big=trial % 3 == 0
        )
        ker = kernel_int_columns(cols)
        assert isinstance(ker, list)
        assert len(ker) == ncols - rank_exact_rows(cols)
        for vec in ker:
            assert vec and all(isinstance(v, int) and v for v in vec.values())
            assert vec[min(vec)] > 0
            g = 0
            for v in vec.values():
                g = gcd(g, v)
            assert g == 1
            image_ = {}
            for c, x in vec.items():
                for r, v in cols[c].items():
                    image_[r] = image_.get(r, 0) + x * v
            assert not any(image_.values())


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
    assert kernel_int_columns(cols) == [
        {0: 2, 1: -6, 2: 1, 6: 5},
        {1: 8, 2: 5, 3: -2, 6: -9},
        {1: 2, 2: 3, 4: 2, 6: -5},
        {1: 5, 2: -2, 5: -1, 6: -5},
        {1: 12, 2: -1, 6: -11, 7: -2},
    ]
    # columns past the last one given are free: each adds a unit vector
    assert kernel_int_columns(cols, ncols_hint=9)[-1] == {8: 1}


def test_vec_from_fractions_scaling():
    # vec = scale * values, scale positive
    vec, scale = vec_from_fractions({0: F(1, 2), 3: F(-2, 3)})
    assert vec == {0: 3, 3: -4}
    assert scale == 6
    assert all(F(v) == scale * w for v, w in [(3, F(1, 2)), (-4, F(-2, 3))])
    assert vec_from_fractions({}) == ({}, 1)


def test_modular_span_added_rank():
    span = ModularSpan([{0: 1, 1: 2}], 4, DEFAULT_PRIMES[0])
    assert span.rank == 1
    assert span.added_rank([{0: 2, 1: 4}]) == 0
    assert span.added_rank([{2: 1}, {2: 3}]) == 1
    assert span.added_rank([]) == 0
