"""Pole order tower: stage differentials, spectra, torsion profiles, bounds."""

import gc
import weakref
from fractions import Fraction

import pytest

import support
import tables
from koszulspec import koszul, linalg, polespec
from koszulspec.decomp import AssumptionFailure, build_invariant_table
from koszulspec.koszul import KoszulWindow, assumption_evidence
from koszulspec.linalg import IntEchelon, ModularSpan, kernel_int_columns, rank_exact_rows
from koszulspec.polespec import (
    BoundViolation,
    PoleSpectrum,
    SubquotientState,
    WellDefinednessViolation,
    check_exponent_bounds,
    pole_spectrum,
    stage_snapshot,
    torsion_profile,
)

F = Fraction


def test_stage_one_state_matches_window():
    """Stage 1 records its ranks on its own window, so the comparison is
    with the modular ranks of a second window."""
    state = SubquotientState(KoszulWindow(support.corpus_poly("xyz")))
    win = KoszulWindow(support.corpus_poly("xyz"))
    assert state.stage == 1
    for k in range(win.k_max + 1):
        assert state.m_dim(k) == win.mu(k)
        assert state.n_dim(k) == win.nu(k)


@pytest.mark.parametrize(
    "text, variables, k_max",
    [
        ("x^2*y^2 + z^4 + w^4", support.VARS4, 17),
        # the Cayley cubic with x, y, z, w scaled by 1, 2, 3, 5
        ("6*x*y*z + 10*x*y*w + 15*x*z*w + 30*y*z*w", support.VARS4, 12),
    ],
)
def test_stage_one_reads_off_only_the_generators(text, variables, k_max, monkeypatch):
    """Stage 1's kernels hold only the generators: their vectors number
    sum(nu), one per stage-1 generator, none for the cycles the boundaries
    account for."""
    win = KoszulWindow(support.poly(text, variables), k_max=k_max)
    ref = KoszulWindow(win.f, k_max=k_max)
    vectors = []
    real = polespec.kernel_int_columns
    monkeypatch.setattr(polespec, "kernel_int_columns", lambda cols: vectors.append(len(ker := real(cols))) or ker)
    state = SubquotientState(win)
    monkeypatch.undo()
    nu = [ref.nu(k) for k in range(win.k_max + 1)]
    assert 0 < sum(vectors) == sum(state.nu_hist[1]) == sum(nu)


@pytest.mark.parametrize(
    "text, variables, k_max",
    [
        ("x*y*z", support.VARS3, None),
        ("x^2*y^2 + z^4", support.VARS3, None),
        ("x^5 + y^5 + x^2*y^2*z", support.VARS3, None),
        # the Cayley cubic with x, y, z, w scaled by 1, 2, 3, 5
        ("6*x*y*z + 10*x*y*w + 15*x*z*w + 30*y*z*w", support.VARS4, 12),
    ],
)
def test_stage_one_generators_complete_the_boundaries(text, variables, k_max):
    """At every grading k the stage-1 generators are cycles, independent
    modulo the boundaries, and together with the boundaries span every
    cycle; checked exactly against the full (n-1, k-d) space.  The stage-1
    relations at k are exactly the image of the (n-1, k-d) block, and after
    the stage every committed value lies in the relations it entered."""
    win = KoszulWindow(support.poly(text, variables), k_max=k_max)
    state = SubquotientState(win)
    n, d = win.n, win.d
    for k in range(win.k_max + 1):
        cols = win.wedge_columns(n - 1, k - d)
        assert all(state.relations(k).contains(c) for c in cols)
        assert state.relations(k).rank == state.rel_rank[k] == len(cols) - len(kernel_int_columns(cols))
    for k in range(d + n - 1, win.k_max + 1):
        m = k - d
        wedge = win.wedge_columns(n - 1, m)
        reps = [g.rep for g in state.gens.get(k, ())]
        for z in reps:
            image_ = {}
            for c, x in z.items():
                for r, v in wedge[c].items():
                    image_[r] = image_.get(r, 0) + x * v
            assert not any(image_.values())
        span = IntEchelon()
        span.add_many(win.wedge_columns(n - 2, m - d) if m >= d else [])
        assert all(span.add(z) for z in reps)
        assert all(span.contains(z) for z in kernel_int_columns(wedge).values())
    committed = {k - d: [g.value for g in gens] for k, gens in state.gens.items()}
    state.finish_stage()
    for j, values in committed.items():
        assert all(state.relations(j).contains(v) for v in values), j
        assert state.relations(j).rank == state.rel_rank[j], j


def test_one_elimination_per_degree_and_spans_only_where_differentials_land(monkeypatch):
    """Stage 1 runs one kernel elimination per degree, on the (n-1, k-d)
    columns off the boundary pivots P: the block's columns less the
    boundary rank, and at a cycled degree exactly nu(k) kernel vectors, the
    generators.  P comes from one pivot_columns of the (n-2, k-2d) columns
    off the pivots of the (n-3, k-3d) block, so each nonempty lower block
    is eliminated once.  Stage 1 builds no relation span; the tower builds
    one IntEchelon per degree a differential reduces by, only there."""
    win = KoszulWindow(support.poly("6*x*y*z + 10*x*y*w + 15*x*z*w + 30*y*z*w", support.VARS4), k_max=12)
    ref = KoszulWindow(win.f, k_max=12)
    n, d, K = win.n, win.d, win.k_max
    echelons, kernels, eliminated = [], [], []
    real_echelon, real_kernel, real_pivots = polespec.IntEchelon, polespec.kernel_int_columns, polespec.pivot_columns

    def echelon():
        echelons.append(real_echelon())
        return echelons[-1]

    def kernel(columns):
        ker = real_kernel(columns)
        kernels.append((columns, ker))
        return ker

    def pivots(rows):
        eliminated.append(rows)
        return real_pivots(rows)

    monkeypatch.setattr(polespec, "IntEchelon", echelon)
    monkeypatch.setattr(polespec, "kernel_int_columns", kernel)
    monkeypatch.setattr(polespec, "pivot_columns", pivots)
    state = SubquotientState(win)
    assert echelons == []
    while state.stage * d <= K - n and state.finish_stage():
        pass
    monkeypatch.undo()
    assert [id(e) for e in echelons] == [id(state.relations(k)) for k in range(5, 10)]
    assert sorted(state._rel) == list(range(5, 10))
    assert len(kernels) == K + 1
    for k, (columns, ker) in enumerate(kernels):
        block = win.wedge_columns(n - 1, k - d)
        assert len(columns) == len(block) - ref.rank_wedge(n - 2, k - 2 * d), k
        assert {id(c) for c in columns} <= {id(c) for c in block}
        assert len(ker) == ref.nu(k) == state.nu_hist[1][k], k
    assert sum(1 for _, ker in kernels if ker) == 5
    lower = [k for k in range(K + 1) for j in (2, 3) if win.wedge_columns(n - j, k - j * d)]
    assert len(eliminated) == len(lower) == 8


def test_relation_spans_are_built_only_where_a_differential_lands(monkeypatch):
    """d^(r) maps N_k to M_{k-rd}, so the full tower builds no relation
    span above K - d: on x^2 y^2 + z^4 + w^4 at K = 17 exactly the degrees
    4 to 13 (the Cayley window is pinned with the eliminations above)."""
    states = []
    real = SubquotientState._build
    monkeypatch.setattr(SubquotientState, "_build", lambda self: states.append(self) or real(self))
    win = KoszulWindow(support.corpus_poly("ts_4_4_2"), k_max=17)
    pole_spectrum(win)
    [state] = states
    assert sorted(state._rel) == list(range(4, 14))
    assert 13 == win.k_max - win.d


class _EagerState(SubquotientState):
    """Every relation span built in stage 1, as before spans were lazy."""

    def _build(self):
        super()._build()
        for k in range(self.win.k_max + 1):
            self.relations(k)


@pytest.mark.parametrize(
    "label, k_max",
    [("x2y2", None), ("x3y2+x2y3", None), ("twoa3", None), ("nonwh", None), ("cayley", 12), ("ts_4_4_2", 13)],
)
def test_lazy_relation_spans_match_spans_built_up_front(label, k_max, monkeypatch):
    """Oracle for the lazy spans: the tower with every span built in stage 1
    has the same rows and image dimensions, lift solves (`nonwh`) and
    n = 2, 3, 4 among them."""
    lazy = polespec._run_tower(KoszulWindow(support.corpus_poly(label), k_max=k_max))
    monkeypatch.setattr(polespec, "SubquotientState", _EagerState)
    eager = polespec._run_tower(KoszulWindow(support.corpus_poly(label), k_max=k_max))
    assert (lazy.mu_hist, lazy.nu_hist, lazy.image_dims) == (eager.mu_hist, eager.nu_hist, eager.image_dims)
    assert (lazy.r_star, lazy.truncated, lazy.trusted_top) == (eager.r_star, eager.truncated, eager.trusted_top)


def test_a_built_span_whose_rank_disagrees_raises():
    """A span is checked against stage 1's exact rank when it is built: kept
    columns that are not independent, here one repeated in place of
    another, raise, whether the span is asked for directly or by a
    differential landing in its degree."""
    win = support.corpus_window("xyz")
    state = SubquotientState(win)
    k = 9 - win.d
    assert len(state._indep[k]) > 1
    state._indep[k][-1] = state._indep[k][0]
    with pytest.raises(RuntimeError, match=f"rank disagreement at degree {k}"):
        state.relations(k)
    state = SubquotientState(support.corpus_window("xyz"))
    state._indep[k][-1] = state._indep[k][0]
    with pytest.raises(RuntimeError, match=f"rank disagreement at degree {k}"):
        state.advance_degree(9)


def test_guard_checks_a_basis_of_the_boundaries(monkeypatch):
    """The well-definedness guard checks D b only for the boundaries of a
    basis, those at the boundary pivots: one check per dimension (361
    here, of 420 boundary columns).  Each b = df ^ eta passes by the exact
    Leibniz identity D(df ^ eta) = -df ^ D(eta), which puts D b in the
    relations without reducing it (no `contains` call).  By linearity that
    is the whole check, so a derivative whose sign is wrong on one
    index-set block breaks the identity, falls back to the reduction and
    is still caught."""
    win = KoszulWindow(support.poly("6*x*y*z + 10*x*y*w + 15*x*z*w + 30*y*z*w", support.VARS4), k_max=12)
    n, d, K = win.n, win.d, win.k_max
    cycled = [k for k in range(d, K + 1) if len(win.wedge_columns(n - 1, k - d)) > win.rank_wedge(n - 1, k - d)]
    dims = sum(win.rank_wedge(n - 2, k - 2 * d) for k in cycled)
    columns = sum(len(win.wedge_columns(n - 2, k - 2 * d)) for k in cycled if k >= 2 * d)
    real_contains, real_leibniz = IntEchelon.contains, polespec._leibniz
    reduced, checked = [], []

    def contains(self, vec):
        reduced.append(vec)
        return real_contains(self, vec)

    def leibniz(*args):
        checked.append(args)
        return real_leibniz(*args)

    monkeypatch.setattr(IntEchelon, "contains", contains)
    monkeypatch.setattr(polespec, "_leibniz", leibniz)
    SubquotientState(win)
    assert (len(checked), len(reduced), dims, columns) == (361, 0, 361, 420)

    win = KoszulWindow(support.poly("x*y*z", support.VARS3))
    real_deriv = win.derivative_columns

    def flipped(j, m):
        size = len(win.columns.monomials(m - j))
        return [{r: -x for r, x in c.items()} if q < size else c for q, c in enumerate(real_deriv(j, m))]

    monkeypatch.setattr(win, "derivative_columns", flipped)
    with pytest.raises(WellDefinednessViolation):
        SubquotientState(win)
    assert reduced


@pytest.mark.parametrize(
    "label, k_max",
    [
        ("x3y2+x2y3", None),
        ("x3y", None),
        ("twoa3", None),
        ("fourlines", None),
        ("nonwh", None),
        ("ts_4_4_2", 13),
        ("cayley", 12),
    ],
)
def test_stage_one_against_the_full_blocks(label, k_max):
    """Oracle for stage 1 built from the boundaries up, at every degree
    against the full (n-1, k-d) block A: the recorded rank is the exact
    rank of A, every generator z has A z = 0, and the boundaries with the
    generators span as much as the whole kernel of A, the generators
    independent modulo the boundaries."""
    win = KoszulWindow(support.corpus_poly(label), k_max=k_max)
    state = SubquotientState(win)
    n, d = win.n, win.d
    for k in range(win.k_max + 1):
        m = k - d
        cols = win.wedge_columns(n - 1, m)
        if m >= n - 1:
            assert win._rank[(n - 1, m)] == rank_exact_rows(cols), k
        reps = [g.rep for g in state.gens.get(k, ())]
        assert not any(polespec._combine(cols, z) for z in reps), k
        bnd = win.wedge_columns(n - 2, m - d)
        kernel = len(kernel_int_columns(cols))
        assert rank_exact_rows(bnd + reps) == kernel == rank_exact_rows(bnd) + len(reps), k


@pytest.mark.parametrize(
    "text, variables, k_max",
    [
        ("x^2*y^2 + z^4 + w^4", support.VARS4, 17),
        ("x*y*z + x*y*w + x*z*w + y*z*w", support.VARS4, 12),
        ("x^5 + y^5 + x^2*y^2*z", support.VARS3, None),
    ],
)
def test_tower_window_reads_its_ranks_from_stage_one(monkeypatch, text, variables, k_max):
    """On the tower window stage 1 records every (n-1, m) and (n-2, m) rank
    exactly, before the certificate reads them: no block is ranked modulo
    p0*p1, not even an (n-3, m) block; the certificate's one
    ModularSpan, of the image in its degree, is the only modular work, and
    nothing is promoted to an exact rank afterwards.  Every recorded
    (n-2, m) rank agrees with exactness."""
    eliminated, spans, promoted = [], [], []
    real_rank, real_span, real_promote = koszul.rank_mod, ModularSpan.__init__, KoszulWindow.promote_exact

    def rank(columns, nrows, p):
        eliminated.append(columns)
        return real_rank(columns, nrows, p)

    def span(self, columns, p):
        spans.append(columns)
        real_span(self, columns, p)

    def promote(self, j, m):
        promoted.append((j, m))
        real_promote(self, j, m)

    monkeypatch.setattr(koszul, "rank_mod", rank)
    monkeypatch.setattr(ModularSpan, "__init__", span)
    monkeypatch.setattr(KoszulWindow, "promote_exact", promote)
    win = KoszulWindow(support.poly(text, variables), k_max=k_max)
    pole_spectrum(win)
    n, d, K = win.n, win.d, win.k_max
    assert eliminated == [] and promoted == []
    [cert] = spans
    assert cert is win.wedge_columns(n - 1, support.certificate_degree(n, d) - d)
    ref = KoszulWindow(win.f, k_max=k_max)
    ref.force_exact()
    stage_one = {(j, k - (n - j) * d) for k in range(K + 1) for j in (n - 1, n - 2)}
    cached = {key for key in win._rank if key[0] >= n - 2}
    assert cached == {(j, m) for j, m in stage_one if m >= j}
    assert {key: win._rank[key] for key in cached} == {key: ref.rank_wedge(*key) for key in cached}


def test_stage_one_ranks_are_checked_against_exactness():
    """An (n-2, m) rank stage 1 recorded that exactness contradicts raises
    once the certificate holds, naming both ranks, rather than being
    overwritten by the rank exactness gives."""
    win = support.corpus_window("twoa3")
    SubquotientState(win)
    n, d = win.n, win.d
    j, m = n - 2, 2 * d
    good = win._rank[(j, m)]
    win._rank[(j, m)] = good + 1
    with pytest.raises(RuntimeError) as err:
        assumption_evidence(win)
    assert str(err.value) == f"exact rank {good + 1} out of ({j}, {m}) contradicts exactness: {good}"


@pytest.mark.parametrize("text, variables", [("x^2", support.VARS3), ("x^3 + y^3", support.VARS4)])
def test_tower_refuses_a_failing_input_after_stage_one(text, variables, monkeypatch):
    """Stage 1 runs before the certificate, yet an input it refuses still
    ends in AssumptionFailure, with the evidence of the table's own
    certificate, and not in an error from stage 1.  The one exact
    elimination is the certificate's exact image span in its degree, taken
    once across the three seeds after the modular rank fell short."""
    f = support.poly(text, variables)
    calls = []
    real = koszul.rank_exact_rows
    monkeypatch.setattr(koszul, "rank_exact_rows", lambda rows: calls.append(rows) or real(rows))
    # an exact image span is an exact elimination too
    span = koszul.IntEchelon
    monkeypatch.setattr(koszul, "IntEchelon", lambda rows: calls.append(rows) or span(rows))
    win = KoszulWindow(f)
    with pytest.raises(AssumptionFailure) as err:
        pole_spectrum(win)
    monkeypatch.undo()
    [rows] = calls
    assert rows is win.wedge_columns(f.n - 1, support.certificate_degree(f.n, f.degree) - f.degree)
    assert not err.value.evidence.passed
    assert err.value.evidence == assumption_evidence(KoszulWindow(f))


def _d1_rank(win, k):
    """Image dimension of the stage-1 differential at grading k, on a fresh
    tower state; returns (rank, state after the step)."""
    state = SubquotientState(win)
    return state.advance_degree(k), state


def _stage2_state(win):
    state = SubquotientState(win)
    state.finish_stage()
    return state


def test_d1_rank_xyz_top_of_kernel():
    # both syzygy classes at grading 6 survive: mu2_3 = 1 and nu2_6 = 2
    win = support.corpus_window("xyz")
    rank, state = _d1_rank(win, 6)
    assert rank == 0
    assert state.n_dim(6) == 2
    mu2, nu2 = stage_snapshot(win, 2)
    assert mu2[3] == 1
    assert nu2[6] == 2


def test_d1_rank_first_syzygy_survives_twoa3():
    win = support.corpus_window("twoa3")
    rank, _ = _d1_rank(win, 7)
    assert rank == 0
    mu2, nu2 = stage_snapshot(win, 2)
    assert nu2[7] == 1
    assert mu2[3] == 1


def test_d1_rank_zero_without_cycles():
    # nu_5 = 0 for xyz: no kernel beyond boundaries, nothing to map
    win = support.corpus_window("xyz")
    rank, state = _d1_rank(win, 5)
    assert rank == 0
    assert state.n_dim(5) == 0


def test_d1_rank_relations_grow_by_rank():
    win = support.corpus_window("xyz")
    k = 9
    m = k - win.d
    state = SubquotientState(win)
    assert state.rel_rank[m] == win.rank_wedge(win.n - 1, m - win.d)
    rank = state.advance_degree(k)
    assert rank > 0
    assert state.rel_rank[m] == state.relations(m).rank == win.rank_wedge(win.n - 1, m - win.d) + rank
    assert state.image_dims[(1, m)] == rank


def test_d1_ranks_sum_to_stage_drop():
    """The total d1 rank accounts exactly for nu1 - nu2."""
    win = support.corpus_window("fourlines")
    state = SubquotientState(win)
    total = sum(state.advance_degree(k) for k in range(win.k_max + 1))
    nu1 = [win.nu(k) for k in range(win.k_max + 1)]
    _, nu2 = stage_snapshot(win, 2)
    assert total == sum(nu1) - sum(nu2)
    # finish_stage has nothing left to advance at stage 1
    assert state.finish_stage() == 0
    assert state.nu_hist[2] == nu2


def test_d1_rank_representative_independence():
    """The same surface presented in permuted coordinates gives the same
    per-degree ranks."""
    win = support.corpus_window("twoa3")
    perm = support.window("y^2*z^2 + x^4", support.VARS3)
    state, pstate = SubquotientState(win), SubquotientState(perm)
    for k in range(win.k_max + 1):
        assert state.advance_degree(k) == pstate.advance_degree(k), k


def test_dr_step_stage_gating():
    """A degree is advanced once per stage: finishing a stage opens every
    degree again for the next differential."""
    win = support.corpus_window("xyz")
    state = SubquotientState(win)
    state.advance_degree(6)
    with pytest.raises(ValueError):
        state.advance_degree(6)
    state.finish_stage()
    assert state.stage == 2
    assert state.advance_degree(6) == 0


def test_dr_step_all_zero_for_xyz():
    win = support.corpus_window("xyz")
    state = _stage2_state(win)
    for k in range(win.k_max + 1):
        assert state.advance_degree(k) == 0, k
    assert not any(r >= 2 and v for (r, _), v in state.image_dims.items())


def test_dr_step_all_zero_for_binary_input():
    win = support.corpus_window("x2y2")
    state = _stage2_state(win)
    assert all(state.advance_degree(k) == 0 for k in range(win.k_max + 1))


def test_dr_step_refuses_double_advance():
    win = support.corpus_window("xyz")
    state = _stage2_state(win)
    state.advance_degree(6)
    with pytest.raises(ValueError):
        state.advance_degree(6)


def test_dr_step_low_degrees_always_zero():
    """Below grading n + r*d the target space is trivial."""
    win = support.window(tables.NON_WH["text"], tables.NON_WH["variables"])
    state = _stage2_state(win)
    ranks = [state.advance_degree(k) for k in range(win.k_max + 1)]
    cut = win.n + 2 * win.d
    assert all(r == 0 for r in ranks[:cut])
    assert ranks[cut:] == [1] * (win.k_max + 1 - cut)


def test_totals_conserved_across_stages():
    """sum_k (mu - nu) is unchanged by every stage of the tower."""
    for label in ("xyz", "twoa3", "x2y2", "nonwh"):
        win = support.corpus_window(label)
        base = sum(win.mu(k) - win.nu(k) for k in range(win.k_max + 1))
        for r in (1, 2, 9):
            mu_r, nu_r = stage_snapshot(win, r)
            assert sum(mu_r) - sum(nu_r) == base, (label, r)


def test_stage_snapshot_unknown_intermediate():
    win = support.corpus_window("xyz")
    assert stage_snapshot(win, 1)[0] == [win.mu(k) for k in range(win.k_max + 1)]
    with pytest.raises(ValueError):
        stage_snapshot(win, 0)


def test_frozen_example_towers():
    for data in tables.FIVE_EXAMPLES:
        win = support.window(data["text"], data["variables"])
        mu2, nu2 = stage_snapshot(win, 2)
        upto = win.k_max - win.d
        tables.assert_row(mu2, data["mu2"], label=f"{data['label']}.mu2", upto=upto)
        tables.assert_row(nu2, data["nu2"], label=f"{data['label']}.nu2", upto=upto)
        sp = pole_spectrum(win)
        assert sp.support == data["spectrum"], data["label"]
        assert sp.stabilization_stage == data["stage"]
        assert sp.truncated == data["truncated"]
        prof = torsion_profile(win)
        assert prof.degenerate == data["degenerate"]
        assert not prof.truncated


def test_spectrum_mass_gives_the_total_milnor_number():
    """Oracle from topology: the multiplicities of a complete Sp_P sum to
    (d-1)^n - d * sum_z mu_z, mu_z the Milnor numbers of the singular
    points (A. Dimca, Singularities and Topology of Hypersurfaces, ch. 4-5).
    Every singular point here is weighted homogeneous, so sum_z mu_z is
    tau (K. Saito, 1971): 9 = 3*3, 12 = 4*3, 24 = 4*6, 24 = 4*6, 8 = 4*2
    and 0 on the smooth cubic."""
    for data in [*tables.FIVE_EXAMPLES, tables.FERMAT_CUBIC]:
        win = support.window(data["text"], data["variables"])
        sp = pole_spectrum(win)
        assert not sp.truncated, data["text"]
        assert (win.d - 1) ** win.n - sp.total_mass == win.d * data["tau"], data["text"]


def test_smooth_input_stabilizes_immediately():
    win = support.corpus_window("fermat3_3")
    sp = pole_spectrum(win)
    assert sp.stabilization_stage == 1
    assert not sp.truncated
    assert sp.support == tables.FERMAT_CUBIC["spectrum"]
    assert torsion_profile(win).degenerate


def test_tower_result_leaves_no_window_cycle():
    """The cached tower result must not refer back to its window: with the
    cyclic collector off, dropping the last reference frees the window."""
    win = KoszulWindow(support.corpus_poly("xyz"))
    ref = weakref.ref(win)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pole_spectrum(win)
        torsion_profile(win)
        del win
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_non_wh_tower_frozen():
    data = tables.NON_WH
    win = support.window(data["text"], data["variables"])
    mu2, nu2 = stage_snapshot(win, 2)
    assert mu2 == data["mu2"]
    assert nu2 == data["nu2"]
    prof = torsion_profile(win)
    assert prof.entries == data["profile"]
    assert not prof.degenerate
    assert prof.truncated
    sp = pole_spectrum(win)
    assert sp.support == data["spectrum"]
    assert sp.stabilization_stage == data["r_star"]
    assert sp.truncated


def test_spectrum_support_bounds_and_mass():
    for label in ("xyz", "x2y2", "fermat3_3", "cusp"):
        win = support.corpus_window(label)
        sp = pole_spectrum(win)
        for expo, mult in sp.support:
            assert 0 < expo < win.n, (label, expo)
            assert mult != 0
        assert sp.total_mass == sum(m for _, m in sp.support)
        assert sp.coefficient(F(99)) == 0


def test_exponent_bounds_pass_with_local_data():
    data = tables.TWO_A3
    tab = support.table(data["text"], data["variables"])
    win = support.window(data["text"], data["variables"])
    _, nu2 = stage_snapshot(win, 2)
    report = check_exponent_bounds(
        tab,
        data["alpha_min"],
        local_exponents=data["local_exponents"],
        nu2=nu2,
        spectrum=pole_spectrum(win),
    )
    assert report.ok
    assert len(report.checks) == 3


def test_exponent_bounds_reject_large_alpha():
    # claiming alpha' = 2 for xyz contradicts nu_6 = 2
    tab = support.corpus_table("xyz")
    with pytest.raises(BoundViolation) as err:
        check_exponent_bounds(tab, 2)
    assert any("nu[6]" in v for v in err.value.violations)


def test_exponent_bounds_reject_undercounted_exponents():
    tab = support.corpus_table("fourlines")
    win = support.corpus_window("fourlines")
    _, nu2 = stage_snapshot(win, 2)
    with pytest.raises(BoundViolation):
        check_exponent_bounds(tab, 1, local_exponents=[1], nu2=nu2)


def test_exponent_bounds_reject_bad_spectrum():
    tab = support.corpus_table("threenodes")
    fake = PoleSpectrum(support=[(F(3, 4), 2)], truncated=False, stabilization_stage=2)
    with pytest.raises(BoundViolation):
        check_exponent_bounds(tab, 1, spectrum=fake)


@pytest.mark.parametrize(
    "text, k_max, truncated",
    [
        # truncated at 20 (trusted top 10), untruncated at 25
        ("x^5 + y^5 + x^2*y^2*z", 20, True),
        ("x^2*y^2 + z^4", 16, False),
        ("x^2*y^3 + z^5", 20, False),
    ],
)
def test_window_extension_oracle(text, k_max, truncated):
    """Enlarging the window by d changes nothing the smaller window trusts:
    the table rows over the whole smaller window, every stage row and the
    spectrum up to its trusted top; an untruncated spectrum stays as it is."""
    f = support.poly(text, support.VARS3)
    small, big = KoszulWindow(f, k_max), KoszulWindow(f, k_max + f.degree)
    tab_small = build_invariant_table(f, k_max=k_max)
    tab_big = build_invariant_table(f, k_max=k_max + f.degree)
    for key in ("gamma", "mu", "mu_torsion", "mu_free", "nu"):
        assert getattr(tab_big, key)[: k_max + 1] == getattr(tab_small, key), key
    sp_small, sp_big = pole_spectrum(small), pole_spectrum(big)
    assert sp_small.truncated is truncated and not sp_big.truncated
    top = sp_small.trusted_top
    for r in range(1, sp_small.stabilization_stage + 1):
        mu_s, nu_s = stage_snapshot(small, r)
        mu_b, nu_b = stage_snapshot(big, r)
        assert mu_b[: top + 1] == mu_s[: top + 1], r
        assert nu_b[: top + 1] == nu_s[: top + 1], r
    assert [(x, m) for x, m in sp_big.support if x * f.degree <= top] == sp_small.support
    if not truncated:
        assert sp_big == PoleSpectrum(
            sp_small.support, False, sp_small.stabilization_stage, sp_big.trusted_top
        )


# -- the column store a tower window adopts from the table window ---------------


@pytest.mark.parametrize(
    "text, k_max",
    [("x^2*y^2 + z^4 + w^4", 17), ("x*y*z + x*y*w + x*z*w + y*z*w", 12)],
)
def test_a_tower_on_the_table_windows_store_equals_a_fresh_tower(text, k_max, monkeypatch):
    """The tower window takes the table window's columns and none of its
    ranks: it caches the same ranks, and gives the same rows, as a tower
    on a fresh window.  No column of the shared store changes from its
    build through the table and the tower."""
    f = support.poly(text, support.VARS4)
    builds = support.record_column_builds(monkeypatch)
    table_win = KoszulWindow(f, k_max)
    build_invariant_table(f, win=table_win)
    win = KoszulWindow(f, k_max, columns=table_win.columns)
    assert win._rank == {} and win._image_spans == {} and win._exact_through == -1
    got = pole_spectrum(win), torsion_profile(win), stage_snapshot(win, 1), stage_snapshot(win, 2)
    shared = [b for b in builds if b[1] is table_win.columns]
    assert shared and len(shared) == len(builds)
    for kind, store, j, m, at_build in shared:
        cached = store._wedge_cols if kind == "_build_wedge" else store._deriv_cols
        assert cached[(j, m)] == at_build, (kind, j, m)
    monkeypatch.undo()
    fresh = KoszulWindow(f, k_max)
    assert got == (pole_spectrum(fresh), torsion_profile(fresh), stage_snapshot(fresh, 1), stage_snapshot(fresh, 2))
    assert win._rank == fresh._rank and win._exact == fresh._exact


def test_a_window_made_without_a_store_builds_its_own(monkeypatch):
    """pole_spectrum(KoszulWindow(f)) starts cold: after a table of f, the
    tower on a new window builds every block it reads again, in its own
    store."""
    f = support.corpus_poly("fourlines")
    table_win = KoszulWindow(f)
    build_invariant_table(f, win=table_win)
    builds = support.record_column_builds(monkeypatch)
    win = KoszulWindow(f)
    pole_spectrum(win)
    assert win.columns is not table_win.columns
    assert builds and all(store is win.columns for _, store, *_ in builds)
    assert {(j, m) for kind, _, j, m, _ in builds if kind == "_build_wedge"} & set(table_win.columns._wedge_cols)
