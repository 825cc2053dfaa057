"""Tower of induced differentials on Koszul cohomology and the pole order
spectrum.

Stage 1 starts from the middle cohomology N (cycles modulo boundaries,
grading k for cycles of ambient degree k-d) and the top cohomology M (top
forms modulo the multiplication relations).  The exterior derivative D
induces d^(1): N_k -> M_{k-d}; stage r pushes each surviving kernel class
through a chain of lifts to d^(r): N^(r)_k -> M^(r)_{k-rd}.  Images grow the
relation spaces, kernels shrink the generator sets, and the multiplicities
mu^(r)_k - nu^(r)_k at stabilization are the pole order spectrum.

Everything here is exact integer/rational arithmetic.  On the tower window
the assumption scan reads the exact (n-1, m) and (n-2, m) ranks stage 1
records; only its (n-3, m) ranks are taken modulo p0*p1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .decomp import AssumptionFailure, InvariantTable
from .koszul import KoszulWindow, assumption_evidence
from .linalg import (
    IntEchelon,
    SparseVec,
    combo_kernel,
    kernel_int_columns,
    pivot_columns,
    solve_into,
    strip_joint_content,
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
        self._done: set[tuple[int, int]] = set()
        self._build()

    # -- construction ----------------------------------------------------------

    def _build(self) -> None:
        win = self.win
        n, d, K = win.n, win.d, win.k_max
        for k in range(K + 1):
            m = k - d
            # one elimination of the (n-1, m) block serves both faces of df
            # wedge: its kernel holds the cycles, and its pivot columns (the
            # columns that are not free) are independent and span the image,
            # the relations at k
            cols = win.wedge_columns(n - 1, m)
            cyc = kernel_int_columns(cols)
            rel = IntEchelon()
            rel.add_many(col for i, col in enumerate(cols) if i not in cyc)
            self.rel[k] = rel
            self.wlift[k] = []
            if rel.rank != len(cols) - len(cyc):
                raise RuntimeError(f"rank disagreement at degree {k}")
            # the assumption scan reads these exact ranks, not eliminating again
            win.record_exact_rank(n - 1, m, rel.rank)
            if not cyc:
                win.record_exact_rank(n - 2, m - d, 0)  # boundaries are cycles
                continue
            bnd = win.wedge_columns(n - 2, m - d) if m >= d else []
            deriv = win.derivative_columns(n - 1, m)
            # a cycle is fixed by its entries at the free columns of the
            # kernel basis, where that basis is diagonal, so the cycles map
            # one-to-one onto those columns.  On the pivot columns of any
            # elimination of the projected boundaries their rank is full,
            # so the cycles whose free column is no such pivot complete the
            # boundaries to a basis of the cycles; one sparse Markowitz
            # elimination finds them
            proj = [(b, p) for b in bnd if (p := {f: v for f, v in b.items() if f in cyc})]
            taken = pivot_columns([p for _, p in proj]) if bnd else {}
            win.record_exact_rank(n - 2, m - d, len(taken))
            # sign-convention guard: derivatives of boundaries must already
            # be relations, otherwise classes have no well-defined value; by
            # linearity the boundaries at the pivot rows, a basis, suffice
            for i in taken.values():
                if not self.rel[m].contains(_combine(deriv, proj[i][0])):
                    raise WellDefinednessViolation(
                        f"derivative of a boundary escapes relations at degree {m}"
                    )
            glist = [
                _Gen(rep=z, lift=z, value=_combine(deriv, z))
                for f, z in cyc.items()
                if f not in taken
            ]
            if glist:
                self.gens[k] = glist
        self.mu_hist[1] = self._mu_row()
        self.nu_hist[1] = self._nu_row()

    # -- row snapshots -----------------------------------------------------------

    def _mu_row(self) -> list[int]:
        win = self.win
        return [win.dim(win.n, k) - self.rel[k].rank for k in range(win.k_max + 1)]

    def _nu_row(self) -> list[int]:
        return [len(self.gens.get(k, ())) for k in range(self.win.k_max + 1)]

    # -- dimensions ------------------------------------------------------------

    def m_dim(self, k: int) -> int:
        return self.win.dim(self.win.n, k) - self.rel[k].rank

    def n_dim(self, k: int) -> int:
        return len(self.gens.get(k, ()))

    # -- stage passes ---------------------------------------------------------

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
        kerco, residuals = combo_kernel(values, self.rel[j])
        added = len(residuals)
        self.image_dims[(r, j)] = added
        new_gens: list[_Gen] = []
        if kerco:
            # lift every kernel combination through df wedge at once, modulo
            # the derivatives of the lifts already used at j
            deriv = win.derivative_columns(n - 1, j)
            adjust = [_combine(deriv, w) for w in self.wlift[j]]
            targets = [_combine(values, c) for c in kerco]
            sols = solve_into(win.wedge_columns(n - 1, j - d), targets, adjust)
            reps = [g.rep for g in glist]
            for c, sol in zip(kerco, sols):
                if sol is None:
                    raise LiftFailure(
                        f"no lift at stage {r}, grading {k} -> degree {j}"
                    )
                lift, den = sol
                rep = {i: den * v for i, v in _combine(reps, c).items()}
                lift, rep = strip_joint_content(lift, rep)
                new_gens.append(
                    _Gen(rep=rep, lift=lift,
                         value=_combine(win.derivative_columns(n - 1, j - d), lift))
                )
        # commit: the processed lifts become adjustment freedom and their
        # derivatives become relations, both only for later stages; the
        # independent residuals span the same relations as the values
        self.wlift[j].extend(g.lift for g in glist)
        self.rel[j].add_many(residuals)
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


# -- spectrum and torsion profile --------------------------------------------------


@dataclass
class PoleSpectrum:
    """Pole order spectrum: exact rational exponents k/d with (possibly
    negative) integer multiplicities, plus honesty flags.  `trusted_top` is
    the largest degree k the window determines; None for a closed form,
    which knows every degree."""

    support: list[tuple[Fraction, int]]
    truncated: bool
    stabilization_stage: int
    trusted_top: int | None = None

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
    trusted_top: int


def _run_tower(win: KoszulWindow) -> _TowerResult:
    """The tower on `win`, cached.  Stage 1 runs before the assumption scan,
    which then reads its exact (n-1, m) and (n-2, m) ranks.  The CLI builds
    the table, and so runs its scan, before the tower: its refusals cost what
    they did before; only a direct library call on a failing input pays for
    stage 1 first."""
    if win._tower_result is not None:
        return win._tower_result
    state = SubquotientState(win)
    evidence = assumption_evidence(win)
    if not evidence.passed:
        raise AssumptionFailure(evidence)
    n, d, K = win.n, win.d, win.k_max
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
    mu_final, nu_final = state.mu_hist[state.stage], state.nu_hist[state.stage]
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
        trusted_top=trusted_top,
    )
    win._tower_result = result
    return result


def pole_spectrum(win: KoszulWindow) -> PoleSpectrum:
    """Spectrum of pole orders: sum over trusted degrees k of
    (mu^(r*)_k - nu^(r*)_k) placed at exponent k/d."""
    res = _run_tower(win)
    top = max(res.mu_hist)
    mu_final, nu_final = res.mu_hist[top], res.nu_hist[top]
    top_k = min(res.trusted_top, win.k_max)
    support = []
    for k in range(top_k + 1):
        m = mu_final[k] - nu_final[k]
        if m:
            support.append((Fraction(k, win.d), m))
    return PoleSpectrum(
        support=support,
        truncated=res.truncated,
        stabilization_stage=res.r_star,
        trusted_top=top_k,
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
