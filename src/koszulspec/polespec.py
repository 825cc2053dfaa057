"""Tower of induced differentials on Koszul cohomology and the pole order
spectrum.

Stage 1 starts from the middle cohomology N (cycles modulo boundaries,
grading k for cycles of ambient degree k-d) and the top cohomology M (top
forms modulo the multiplication relations).  The exterior derivative D
induces d^(1): N_k -> M_{k-d}; stage r pushes each surviving kernel class
through a chain of lifts to d^(r): N^(r)_k -> M^(r)_{k-rd}.  Images grow the
relation spaces, kernels shrink the generator sets, and the multiplicities
mu^(r)_k - nu^(r)_k at stabilization are the pole order spectrum.

Everything here is exact integer/rational arithmetic; the stage passes make
no use of the modular fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

from .decomp import AssumptionFailure, InvariantTable
from .koszul import KoszulWindow, assumption_evidence
from .linalg import (
    NO_SOLUTION,
    IntEchelon,
    SparseMatrix,
    SparseVec,
    Subspace,
    combo_kernel,
    kernel_int_columns,
    solve_into,
)


class WellDefinednessViolation(RuntimeError):
    """D of a boundary escaped the stage-1 relations; the derivative and
    wedge sign conventions disagree."""


class LiftFailure(RuntimeError):
    """No lift exists for a certified kernel class; internal inconsistency."""


class BoundViolation(RuntimeError):
    """A proved degree bound fails on computed data."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


# -- small vector helpers ------------------------------------------------------


def _combine(vectors: list[SparseVec], coeffs: SparseVec) -> SparseVec:
    """sum_a coeffs[a] * vectors[a] for a sparse integer coefficient vector."""
    out: SparseVec = {}
    for a, c in coeffs.items():
        for r, v in vectors[a].items():
            acc = out.get(r, 0) + c * v
            if acc:
                out[r] = acc
            else:
                del out[r]
    return out


def _apply_derivative(win: KoszulWindow, j: int, m: int, vec: SparseVec) -> SparseVec:
    """Exterior derivative of a coordinate vector over the (j, m) basis."""
    cols = win.derivative_columns(j, m)
    out: SparseVec = {}
    for i, c in vec.items():
        for r, v in cols[i].items():
            acc = out.get(r, 0) + c * v
            if acc:
                out[r] = acc
            else:
                del out[r]
    return out


@dataclass
class _Gen:
    """One kernel generator: the class representative (a cycle), the newest
    lift in its chain, and D(lift), the value of the next differential."""

    rep: SparseVec
    lift: SparseVec
    value: SparseVec


# -- tower state ---------------------------------------------------------------


class SubquotientState:
    """Mutable tower state over one degree window.

    Per grading degree k it holds the relation echelon of M^(r)_k inside
    top forms of degree k, the surviving kernel generators of N^(r)_k
    (cycles of ambient degree k-d with their lift chains), and the lift
    vectors whose derivatives already entered the relations (the adjustment
    freedom for later lifts).  `stage` is the r of the differential the
    current generator values realize.
    """

    def __init__(self, win: KoszulWindow):
        self.win = win
        self.stage = 1
        self.gens: dict[int, list[_Gen]] = {}
        self.rel: dict[int, IntEchelon] = {}
        self.wlift: dict[int, list[SparseVec]] = {}
        self.image_dims: dict[tuple[int, int], int] = {}
        self.mu_hist: dict[int, list[int]] = {}
        self.nu_hist: dict[int, list[int]] = {}
        self._wsub: dict[int, Subspace | None] = {}
        self._cyc_cols: dict[int, list[SparseVec]] = {}
        self._done: set[tuple[int, int]] = set()
        self._build()

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        win = self.win
        n, d, K = win.n, win.d, win.k_max
        for k in range(K + 1):
            ech = IntEchelon(win.dim(n, k))
            if k >= d:
                ech.add_many(win.wedge_columns(n - 1, k - d))
            self.rel[k] = ech
            self.wlift[k] = []
            self._wsub[k] = None
            if win.dim(n, k) - ech.dim != win.mu(k):
                win.promote_exact(n - 1, k - d)
                if win.dim(n, k) - ech.dim != win.mu(k):
                    raise RuntimeError(f"rank disagreement at degree {k}")
        for k in range(d + n - 1, K + 1):
            m = k - d
            cols = win.wedge_columns(n - 1, m)
            cyc = kernel_int_columns(cols, ncols_hint=win.dim(n - 1, m))
            self._cyc_cols[k] = cyc
            if not cyc:
                continue
            bnd = win.wedge_columns(n - 2, m - d) if m >= d else []
            # sign-convention guard: derivatives of boundaries must already
            # be relations, otherwise classes have no well-defined value
            for b in bnd:
                if not self.rel[m].contains(_apply_derivative(win, n - 1, m, b)):
                    raise WellDefinednessViolation(
                        f"derivative of a boundary escapes relations at degree {m}"
                    )
            bech = IntEchelon(win.dim(n - 1, m))
            bech.add_many(bnd)
            glist = []
            for z in cyc:
                res, _ = bech.reduce_full(z)
                if res and bech.add(res):
                    glist.append(
                        _Gen(rep=res, lift=dict(res),
                             value=_apply_derivative(win, n - 1, m, res))
                    )
            if glist:
                self.gens[k] = glist
            if len(glist) != win.nu(k):
                win.promote_exact(n - 1, m)
                win.promote_exact(n - 2, m - d)
                if len(glist) != win.nu(k):
                    raise RuntimeError(f"kernel disagreement at grading {k}")
        self.mu_hist[1] = self._mu_row()
        self.nu_hist[1] = self._nu_row()

    # -- row snapshots -----------------------------------------------------------

    def _mu_row(self) -> list[int]:
        win = self.win
        return [win.dim(win.n, k) - self.rel[k].dim for k in range(win.k_max + 1)]

    def _nu_row(self) -> list[int]:
        return [len(self.gens.get(k, ())) for k in range(self.win.k_max + 1)]

    # -- subspace views -----------------------------------------------------------

    def cycles(self, k: int) -> Subspace:
        """Z at grading k, inside (n-1)-forms of ambient degree k-d."""
        dim = self.win.dim(self.win.n - 1, k - self.win.d)
        return Subspace(dim, self._cyc_cols.get(k, ()))

    def boundaries(self, k: int) -> Subspace:
        win = self.win
        m = k - win.d
        dim = win.dim(win.n - 1, m)
        cols = win.wedge_columns(win.n - 2, m - win.d) if m >= win.d else []
        return Subspace(dim, cols)

    def kernel_space(self, k: int) -> Subspace:
        """Current-stage kernel at grading k: boundaries plus survivors."""
        win = self.win
        m = k - win.d
        dim = win.dim(win.n - 1, m)
        cols = list(win.wedge_columns(win.n - 2, m - win.d)) if m >= win.d else []
        cols.extend(g.rep for g in self.gens.get(k, ()))
        return Subspace(dim, cols)

    def relations(self, k: int) -> Subspace:
        return Subspace._from_echelon(self.rel[k])

    def m_dim(self, k: int) -> int:
        return self.win.dim(self.win.n, k) - self.rel[k].dim

    def n_dim(self, k: int) -> int:
        return len(self.gens.get(k, ()))

    # -- stage passes ---------------------------------------------------------

    def _adjustment_space(self, j: int) -> Subspace | None:
        if not self.wlift[j]:
            return None
        if self._wsub[j] is None:
            win = self.win
            dvecs = [
                _apply_derivative(win, win.n - 1, j, w) for w in self.wlift[j]
            ]
            self._wsub[j] = Subspace(win.dim(win.n, j), dvecs)
        return self._wsub[j]

    def advance_degree(self, k: int) -> int:
        """Apply the stage-`stage` differential to the generators at grading
        k: add its image to the relations at k - stage*d, replace the
        generators by its kernel with extended lift chains.  Returns the
        image dimension."""
        r = self.stage
        if (r, k) in self._done:
            raise ValueError(f"degree {k} already advanced at stage {r}")
        self._done.add((r, k))
        glist = self.gens.get(k, [])
        if not glist:
            return 0
        win = self.win
        n, d = win.n, win.d
        j = k - r * d
        if j < n:
            # value space is zero from here on; the classes survive untouched
            return 0
        values = [g.value for g in glist]
        added = self.rel[j].added_rank(values)
        self.image_dims[(r, j)] = added
        kerco = combo_kernel(values, self.rel[j])
        new_gens: list[_Gen] = []
        if kerco:
            wedge = SparseMatrix.from_columns(
                win.dim(n, j), win.wedge_columns(n - 1, j - d)
            )
            modulo = self._adjustment_space(j)
            for c in kerco:
                v_c = _combine(values, c)
                rep_c = _combine([g.rep for g in glist], c)
                x = solve_into(wedge, v_c, modulo=modulo)
                if x is NO_SOLUTION:
                    raise LiftFailure(
                        f"no lift at stage {r}, grading {k} -> degree {j}"
                    )
                denom = 1
                for v in x:
                    if v:
                        denom = denom * v.denominator // gcd(denom, v.denominator)
                lift = {i: int(v * denom) for i, v in enumerate(x) if v}
                rep = {i: denom * v for i, v in rep_c.items()}
                g0 = 0
                for v in lift.values():
                    g0 = gcd(g0, v)
                for v in rep.values():
                    g0 = gcd(g0, v)
                if g0 > 1:
                    lift = {i: v // g0 for i, v in lift.items()}
                    rep = {i: v // g0 for i, v in rep.items()}
                new_gens.append(
                    _Gen(rep=rep, lift=lift,
                         value=_apply_derivative(win, n - 1, j - d, lift))
                )
        # commit: the processed lifts become adjustment freedom and their
        # derivatives become relations, both only for later stages
        self.wlift[j].extend(g.lift for g in glist)
        self._wsub[j] = None
        self.rel[j].add_many(values)
        if new_gens:
            self.gens[k] = new_gens
        else:
            self.gens.pop(k, None)
        return added

    def finish_stage(self) -> int:
        """Advance every remaining degree of the current stage; snapshot the
        new rows and bump the stage.  Returns the total image dimension."""
        r = self.stage
        total = 0
        for k in sorted(self.gens):
            if (r, k) not in self._done:
                total += self.advance_degree(k)
        self.stage = r + 1
        self.mu_hist[self.stage] = self._mu_row()
        self.nu_hist[self.stage] = self._nu_row()
        return total


# -- public per-degree operations ------------------------------------------------


def d1_rank(win: KoszulWindow, k: int) -> tuple[int, Subspace, Subspace]:
    """Rank of the derivative-induced map from N at grading k into M at
    degree k-d, together with its kernel (a subspace between boundaries and
    cycles) and the enlarged relation space at k-d."""
    if k > win.k_max:
        raise ValueError(f"grading {k} outside window 0..{win.k_max}")
    n, d = win.n, win.d
    m = k - d
    src_dim = win.dim(n - 1, m)
    tgt_dim = win.dim(n, m)
    rel1 = IntEchelon(tgt_dim)
    if m >= d:
        rel1.add_many(win.wedge_columns(n - 1, m - d))
    bnd = win.wedge_columns(n - 2, m - d) if m >= d else []
    for b in bnd:
        if not rel1.contains(_apply_derivative(win, n - 1, m, b)):
            raise WellDefinednessViolation(
                f"derivative of a boundary escapes relations at degree {m}"
            )
    cyc = (
        kernel_int_columns(win.wedge_columns(n - 1, m), ncols_hint=src_dim)
        if m >= n - 1 else []
    )
    bech = IntEchelon(src_dim)
    bech.add_many(bnd)
    reps = []
    for z in cyc:
        res, _ = bech.reduce_full(z)
        if res and bech.add(res):
            reps.append(res)
    values = [_apply_derivative(win, n - 1, m, g) for g in reps]
    rank = rel1.added_rank(values)
    kerco = combo_kernel(values, rel1)
    ker_cols = list(bnd)
    for c in kerco:
        ker_cols.append(_combine(reps, c))
    rel1.add_many(values)
    return rank, Subspace(src_dim, ker_cols), Subspace._from_echelon(rel1)


def dr_step(
    state: SubquotientState, r: int, k: int
) -> tuple[int, Subspace, Subspace, int]:
    """One higher differential at one grading degree: stage r applied to the
    generators at k.  Returns (rank, new kernel at k, relations at k - r*d,
    image dimension); the state is updated in place."""
    if r < 2:
        raise ValueError("dr_step starts at stage 2; use d1_rank for stage 1")
    if r != state.stage:
        raise ValueError(f"state is at stage {state.stage}, not {r}")
    added = state.advance_degree(k)
    j = k - r * state.win.d
    rel = state.relations(j) if 0 <= j <= state.win.k_max else Subspace(0)
    return added, state.kernel_space(k), rel, added


# -- spectrum and torsion profile --------------------------------------------------


@dataclass
class PoleSpectrum:
    """Pole order spectrum: exact rational exponents k/d with (possibly
    negative) integer multiplicities, plus honesty flags."""

    support: list[tuple[Fraction, int]]
    truncated: bool
    stabilization_stage: int

    def coefficient(self, expo) -> int:
        e = Fraction(expo)
        for x, m in self.support:
            if x == e:
                return m
        return 0

    @property
    def total_mass(self) -> int:
        return sum(m for _, m in self.support)


@dataclass
class TorsionProfile:
    """Image dimensions of the stage-r differentials (r >= 2) per degree;
    these are the graded pieces of the lattice-cokernel torsion.  All zero
    means the tower degenerates at stage 2 within the window."""

    entries: dict[tuple[int, int], int]
    degenerate: bool
    truncated: bool


@dataclass
class _TowerResult:
    """What the tower leaves on its window.  It keeps the state's rows, not
    the state itself: the state refers back to the window, and that cycle
    would keep every window alive until a cyclic garbage collection."""

    image_dims: dict[tuple[int, int], int]
    mu_hist: dict[int, list[int]]
    nu_hist: dict[int, list[int]]
    r_star: int
    truncated: bool
    mu_final: list[int]
    nu_final: list[int]
    trusted_top: int


def _run_tower(win: KoszulWindow) -> _TowerResult:
    cached = getattr(win, "_tower_result", None)
    if cached is not None:
        return cached
    evidence = assumption_evidence(win)
    if not evidence.passed:
        raise AssumptionFailure(evidence)
    n, d, K = win.n, win.d, win.k_max
    state = SubquotientState(win)
    r_star = 1
    active_at_cutoff = False
    while True:
        r = state.stage
        if r * d > K - n:
            active_at_cutoff = any(state.gens)
            r_star = r
            break
        added = state.finish_stage()
        if added == 0:
            r_star = r
            break
    mu_final = state._mu_row()
    nu_final = state._nu_row()
    trusted_top = K - (r_star - 1) * d
    nd = n * d
    truncated = active_at_cutoff or trusted_top < nd
    for k in range(nd + 1, trusted_top + 1):
        if mu_final[k] - nu_final[k] != 0:
            truncated = True
    result = _TowerResult(
        image_dims=state.image_dims,
        mu_hist=state.mu_hist,
        nu_hist=state.nu_hist,
        r_star=r_star,
        truncated=truncated,
        mu_final=mu_final,
        nu_final=nu_final,
        trusted_top=trusted_top,
    )
    win._tower_result = result
    return result


def pole_spectrum(win: KoszulWindow) -> PoleSpectrum:
    """Spectrum of pole orders: sum over trusted degrees k of
    (mu^(r*)_k - nu^(r*)_k) placed at exponent k/d."""
    res = _run_tower(win)
    support = []
    for k in range(min(res.trusted_top, win.k_max) + 1):
        m = res.mu_final[k] - res.nu_final[k]
        if m:
            support.append((Fraction(k, win.d), m))
    return PoleSpectrum(
        support=support,
        truncated=res.truncated,
        stabilization_stage=res.r_star,
    )


def torsion_profile(win: KoszulWindow) -> TorsionProfile:
    """Per-stage, per-degree image dimensions of the higher differentials."""
    res = _run_tower(win)
    entries = {
        (r, k): v for (r, k), v in sorted(res.image_dims.items()) if r >= 2
    }
    return TorsionProfile(
        entries=entries,
        degenerate=not any(entries.values()),
        truncated=res.truncated,
    )


def stage_snapshot(win: KoszulWindow, r: int) -> tuple[list[int], list[int]]:
    """(mu row, nu row) of stage r; the final rows when r exceeds the last
    computed stage (they no longer change after stabilization)."""
    res = _run_tower(win)
    hist_mu, hist_nu = res.mu_hist, res.nu_hist
    if r in hist_mu:
        return list(hist_mu[r]), list(hist_nu[r])
    top = max(hist_mu)
    if r > top:
        return list(hist_mu[top]), list(hist_nu[top])
    raise ValueError(f"no snapshot for stage {r}")


# -- degree bounds from local data ---------------------------------------------------


@dataclass
class BoundReport:
    checks: list[str]
    ok: bool = True


def check_exponent_bounds(
    tab: InvariantTable,
    alpha_min,
    local_exponents=None,
    nu2: list[int] | None = None,
    spectrum: PoleSpectrum | None = None,
) -> BoundReport:
    """Degree bounds implied by user-supplied local singularity data.

    alpha_min is the smallest local spectral exponent among the singular
    points.  Three checks, each applied when its inputs are present: nu
    vanishes below degree d*(1 + alpha_min) (surfaces only, n=3); nu^(2) at
    degree p+d is at most the number of local exponents equal to p/d; the
    spectrum multiplicity at p/d below min(alpha_min, 1) is C(p-1, n-1).
    """
    alpha = Fraction(alpha_min)
    d, n = tab.d, tab.n
    checks: list[str] = []
    violations: list[str] = []
    if n == 3:
        p = 1
        while p < d * alpha and p + d <= tab.k_max:
            if tab.nu[p + d] != 0:
                violations.append(
                    f"nu[{p + d}] = {tab.nu[p + d]} nonzero below the vanishing bound"
                )
            p += 1
        checks.append(f"nu vanishing below degree {d + d * alpha}")
    if local_exponents is not None and nu2 is not None:
        counts: dict[Fraction, int] = {}
        for e in local_exponents:
            e = Fraction(e)
            counts[e] = counts.get(e, 0) + 1
        for p in range(1, len(nu2) - d):
            cap = counts.get(Fraction(p, d), 0)
            if nu2[p + d] > cap:
                violations.append(
                    f"nu2[{p + d}] = {nu2[p + d]} exceeds the {cap} local "
                    f"exponents at {Fraction(p, d)}"
                )
        checks.append("nu2 against local exponent counts")
    if spectrum is not None:
        p = 1
        while Fraction(p, d) < min(alpha, Fraction(1)):
            expected = comb(p - 1, n - 1)
            got = spectrum.coefficient(Fraction(p, d))
            if got != expected:
                violations.append(
                    f"spectrum multiplicity {got} at {Fraction(p, d)}, "
                    f"expected {expected}"
                )
            p += 1
        checks.append("low-exponent multiplicity law")
    if violations:
        raise BoundViolation(violations)
    return BoundReport(checks=checks)
