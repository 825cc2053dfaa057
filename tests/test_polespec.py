"""Pole order tower: stage differentials, spectra, torsion profiles, bounds."""

import gc
import weakref
from fractions import Fraction

import pytest

import support
import tables
from koszulspec import koszul, polespec
from koszulspec.decomp import AssumptionFailure, build_invariant_table
from koszulspec.koszul import KoszulWindow, assumption_evidence
from koszulspec.linalg import IntEchelon, ModularSpan, kernel_int_columns
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
        assert all(state.rel[k].contains(c) for c in cols)
        assert state.rel[k].rank == len(cols) - len(kernel_int_columns(cols))
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
        assert all(state.rel[j].contains(v) for v in values), j


def test_one_echelon_and_one_elimination_per_stage_one_degree(monkeypatch):
    """Stage 1 builds one IntEchelon per degree, the relations, and picks
    the generators that complete the boundaries with one pivot_columns
    elimination per degree that has both cycles and boundaries."""
    win = KoszulWindow(support.poly("6*x*y*z + 10*x*y*w + 15*x*z*w + 30*y*z*w", support.VARS4), k_max=12)
    n, d, K = win.n, win.d, win.k_max
    assert [win.mu(k) for k in range(K + 1)] and [win.nu(k) for k in range(K + 1)]
    both = [
        k
        for k in range(2 * d, K + 1)
        if len(win.wedge_columns(n - 1, k - d)) > win.rank_wedge(n - 1, k - d)
        and win.wedge_columns(n - 2, k - 2 * d)
    ]
    assert both
    echelons, eliminated = [], []
    real_init, real_pivots = IntEchelon.__init__, polespec.pivot_columns

    def echelon(self):
        echelons.append(self)
        real_init(self)

    def pivots(rows):
        eliminated.append(rows)
        return real_pivots(rows)

    monkeypatch.setattr(IntEchelon, "__init__", echelon)
    monkeypatch.setattr(polespec, "pivot_columns", pivots)
    state = SubquotientState(win)
    assert [id(e) for e in echelons] == [id(state.rel[k]) for k in range(K + 1)]
    assert len(eliminated) == len(both)


def test_guard_checks_a_basis_of_the_boundaries(monkeypatch):
    """The well-definedness guard reduces D b only for the boundaries at
    the pivot rows of the generator elimination, a basis of the boundary
    span: one reduction per dimension (361 here, of 420 boundary columns).
    By linearity that is the whole check, so a derivative whose sign is
    wrong on one index-set block is still caught."""
    win = KoszulWindow(support.poly("6*x*y*z + 10*x*y*w + 15*x*z*w + 30*y*z*w", support.VARS4), k_max=12)
    n, d, K = win.n, win.d, win.k_max
    cycled = [k for k in range(d, K + 1) if len(win.wedge_columns(n - 1, k - d)) > win.rank_wedge(n - 1, k - d)]
    dims = sum(win.rank_wedge(n - 2, k - 2 * d) for k in cycled)
    columns = sum(len(win.wedge_columns(n - 2, k - 2 * d)) for k in cycled if k >= 2 * d)
    real = IntEchelon.contains
    reduced = []

    def contains(self, vec):
        reduced.append(vec)
        return real(self, vec)

    monkeypatch.setattr(IntEchelon, "contains", contains)
    SubquotientState(win)
    assert (len(reduced), dims, columns) == (361, 361, 420)

    win = KoszulWindow(support.poly("x*y*z", support.VARS3))
    real_deriv = win.derivative_columns

    def flipped(j, m):
        size = len(win.monomials(m - j))
        return [{r: -x for r, x in c.items()} if q < size else c for q, c in enumerate(real_deriv(j, m))]

    monkeypatch.setattr(win, "derivative_columns", flipped)
    with pytest.raises(WellDefinednessViolation):
        SubquotientState(win)


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
    exactly, before the assumption scan reads them: the scan eliminates
    only (n-3, m) blocks modulo p0*p1, the window builds no ModularSpan,
    and nothing is promoted to an exact rank afterwards."""
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
    assert spans == [] and promoted == []
    assert eliminated and all(
        any(c is win.wedge_columns(n - 3, m) for m in range(K + 1)) for c in eliminated
    )
    ref = KoszulWindow(win.f, k_max=k_max)
    ref.force_exact()
    stage_one = {(j, k - (n - j) * d) for k in range(K + 1) for j in (n - 1, n - 2)}
    cached = {key for key in win._rank if key[0] >= n - 2}
    assert cached == {(j, m) for j, m in stage_one if m >= j}
    assert {key: win._rank[key] for key in cached} == {key: ref.rank_wedge(*key) for key in cached}


@pytest.mark.parametrize("text, variables", [("x^2", support.VARS3), ("x^3 + y^3", support.VARS4)])
def test_tower_refuses_a_failing_input_after_stage_one(text, variables, monkeypatch):
    """Stage 1 runs before the assumption scan, yet an input the scan
    refutes still ends in AssumptionFailure, with the evidence the table's
    own scan finds, and not in an error from stage 1.  The scan's
    promote_exact repairs leave alone the ranks stage 1 recorded exactly,
    so no block is eliminated exactly again."""
    f = support.poly(text, variables)
    calls = []
    real = koszul.rank_exact_rows
    monkeypatch.setattr(koszul, "rank_exact_rows", lambda rows: calls.append(rows) or real(rows))
    with pytest.raises(AssumptionFailure) as err:
        pole_spectrum(KoszulWindow(f))
    monkeypatch.undo()
    assert calls == []
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
    assert state.rel[m].rank == win.rank_wedge(win.n - 1, m - win.d)
    rank = state.advance_degree(k)
    assert rank > 0
    assert state.rel[m].rank == win.rank_wedge(win.n - 1, m - win.d) + rank
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
