"""Pole order tower: stage differentials, spectra, torsion profiles, bounds."""

import gc
import weakref
from fractions import Fraction

import pytest

import support
import tables
from koszulspec.koszul import KoszulWindow
from koszulspec.polespec import (
    BoundViolation,
    PoleSpectrum,
    SubquotientState,
    check_exponent_bounds,
    d1_rank,
    dr_step,
    pole_spectrum,
    stage_snapshot,
    torsion_profile,
)

F = Fraction


def test_stage_one_state_matches_window():
    win = support.corpus_window("xyz")
    state = SubquotientState(win)
    assert state.stage == 1
    for k in range(win.k_max + 1):
        assert state.m_dim(k) == win.mu(k)
        assert state.n_dim(k) == win.nu(k)


def test_d1_rank_xyz_top_of_kernel():
    # both syzygy classes at grading 6 survive: mu2_3 = 1 and nu2_6 = 2
    win = support.corpus_window("xyz")
    rank, ker, rel = d1_rank(win, 6)
    assert rank == 0
    mu2, nu2 = stage_snapshot(win, 2)
    assert mu2[3] == 1
    assert nu2[6] == 2


def test_d1_rank_first_syzygy_survives_twoa3():
    win = support.corpus_window("twoa3")
    rank, ker, rel = d1_rank(win, 7)
    assert rank == 0
    mu2, nu2 = stage_snapshot(win, 2)
    assert nu2[7] == 1
    assert mu2[3] == 1


def test_d1_rank_zero_without_cycles():
    # nu_5 = 0 for xyz: no kernel beyond boundaries, nothing to map
    win = support.corpus_window("xyz")
    rank, ker, rel = d1_rank(win, 5)
    assert rank == 0
    assert ker.dim == 0


def test_d1_rank_relations_grow_by_rank():
    win = support.corpus_window("xyz")
    k = 9
    m = k - win.d
    rank, ker, rel = d1_rank(win, k)
    assert rank > 0
    assert rel.dim == win.rank_wedge(win.n - 1, m - win.d) + rank


def test_d1_rank_window_guard():
    win = support.corpus_window("xyz")
    with pytest.raises(ValueError):
        d1_rank(win, win.k_max + 1)


def test_d1_ranks_sum_to_stage_drop():
    """The total d1 rank accounts exactly for nu1 - nu2."""
    win = support.corpus_window("fourlines")
    total = sum(d1_rank(win, k)[0] for k in range(win.k_max + 1))
    nu1 = [win.nu(k) for k in range(win.k_max + 1)]
    _, nu2 = stage_snapshot(win, 2)
    assert total == sum(nu1) - sum(nu2)


def test_d1_rank_representative_independence():
    """The same surface presented in permuted coordinates gives the same
    per-degree ranks."""
    win = support.corpus_window("twoa3")
    perm = support.window("y^2*z^2 + x^4", support.VARS3)
    for k in range(win.k_max + 1):
        assert d1_rank(win, k)[0] == d1_rank(perm, k)[0], k


def test_dr_step_stage_gating():
    win = support.corpus_window("xyz")
    state = SubquotientState(win)
    with pytest.raises(ValueError):
        dr_step(state, 1, 6)
    with pytest.raises(ValueError):
        dr_step(state, 2, 6)  # stage 1 not finished yet
    state.finish_stage()
    assert state.stage == 2


def test_dr_step_all_zero_for_xyz():
    win = support.corpus_window("xyz")
    state = SubquotientState(win)
    state.finish_stage()
    for k in range(win.k_max + 1):
        added, ker, rel, image_dim = dr_step(state, 2, k)
        assert added == 0 and image_dim == 0, k


def test_dr_step_all_zero_for_binary_input():
    win = support.corpus_window("x2y2")
    state = SubquotientState(win)
    state.finish_stage()
    assert all(dr_step(state, 2, k)[0] == 0 for k in range(win.k_max + 1))


def test_dr_step_refuses_double_advance():
    win = support.corpus_window("xyz")
    state = SubquotientState(win)
    state.finish_stage()
    dr_step(state, 2, 6)
    with pytest.raises(ValueError):
        dr_step(state, 2, 6)


def test_dr_step_low_degrees_always_zero():
    """Below grading n + r*d the target space is trivial."""
    win = support.window(tables.NON_WH["text"], tables.NON_WH["variables"])
    state = SubquotientState(win)
    state.finish_stage()
    ranks = [dr_step(state, 2, k)[0] for k in range(win.k_max + 1)]
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
