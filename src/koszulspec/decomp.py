"""Torsion/free splitting of the top Koszul cohomology and the identity suite.

M denotes the cokernel of df wedge on top forms, graded by ambient degree.
Its torsion part (dimensions mu_torsion) is concentrated in degrees
[n, n*d - n]; the free part (mu_free) is detected as the rank of
multiplication by a high power of a generic linear form, which kills the
torsion and is injective on the free part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .koszul import KoszulWindow, assumption_evidence
from .linalg import SparseVec
from .poly import HomogeneousPoly, generic_linear_form


class NotStabilizedError(RuntimeError):
    """The window top shows no stabilization of mu; enlarge k_max."""


class AssumptionFailure(RuntimeError):
    """Evidence checks refute the finite-singular-locus assumption."""

    def __init__(self, evidence):
        self.evidence = evidence
        super().__init__(f"assumption evidence failed: {evidence}")


class IdentityViolation(RuntimeError):
    """A proved identity fails on exact data; carries degree and identity id.
    A violation of a value that belongs to no degree has degree None."""

    def __init__(self, violations):
        self.violations = violations
        name, k, lhs, rhs = violations[0]
        where = "" if k is None else f" at degree {k}"
        super().__init__(f"identity {name} fails{where}: {lhs} != {rhs}")


@dataclass
class InvariantTable:
    """All graded invariants of one polynomial over a degree window."""

    n: int
    d: int
    k_max: int
    tau: int
    gamma: list[int]
    mu: list[int]
    mu_torsion: list[int]
    mu_free: list[int]
    nu: list[int]
    type_flag: str
    seed: int | None


@dataclass
class CorollaryReport:
    """Outcome of the identity suite plus the observed signs for the open
    question about gamma_k - mu_torsion_k."""

    ok: bool
    violations: list[tuple[str, int, int, int]]
    min_defect_lhs: int
    min_defect_rhs: int

    @property
    def defect_sides_nonnegative(self) -> bool:
        return self.min_defect_lhs >= 0 and self.min_defect_rhs >= 0


def tau(win: KoszulWindow) -> int:
    """Stabilized value of mu at the top of the window (the total Tjurina
    number of the singular points)."""
    lo, hi = win.mu(win.k_max - 1), win.mu(win.k_max)
    if lo != hi:
        raise NotStabilizedError(
            f"mu({win.k_max - 1}) = {lo} != {hi} = mu({win.k_max}); enlarge the window"
        )
    return hi


def mult_columns(win: KoszulWindow, k: int, terms: dict[tuple[int, ...], int]) -> list[SparseVec]:
    """Columns of multiplication by the form with exponent -> integer
    coefficient `terms`, from n-forms of degree k; n-forms have a single
    index set, so a row is a monomial position."""
    m = k - win.n
    cols: list[SparseVec] = [{} for _ in win.monomials(m)]
    for add, c in terms.items():
        for col, r in zip(cols, win.shift(m, add)):
            col[r] = c
    return cols


def _split_window(win: KoszulWindow, y: HomogeneousPoly):
    """mu_torsion / mu_free over the whole window.  The torsion support is
    symmetric under k -> n*d - k and empty below n, so above n*d - n the
    split is just mu itself.  For n <= k <= n*d - n the free part is the
    rank of multiplication by y^p, p = n*d - k, into M_{n*d}."""
    n, nd = win.n, win.n * win.d
    mu = [win.mu(k) for k in range(win.k_max + 1)]
    mu_f = [m if k > nd - n else 0 for k, m in enumerate(mu)]
    # A map into the zero space has rank 0, so a zero M_{n*d} makes every
    # degree torsion without any elimination.  This holds on the modular
    # path too: a rank mod p never exceeds the rank over Q, so a mu read off
    # modular ranks is never below the true mu, and mu(n*d) == 0 means the
    # target is zero over Q.
    if mu[nd]:
        y_terms = y.integer_terms()
        power = {(0,) * n: 1}
        for p in range(1, nd - n + 1):
            nxt: dict[tuple[int, ...], int] = {}
            for ea, ca in power.items():
                for eb, cb in y_terms.items():
                    key = tuple(a + b for a, b in zip(ea, eb))
                    nxt[key] = nxt.get(key, 0) + ca * cb
            power = nxt
            k = nd - p
            if p >= n and mu[k]:
                mu_f[k] = win.class_rank(nd, mult_columns(win, k, power))
    mu_t = [m - f for m, f in zip(mu, mu_f)]
    return mu_t, mu_f


def verify_corollaries(tab: InvariantTable) -> CorollaryReport:
    """Check the four proved relations between the sequences over the full
    symmetric range [0, n*d], and record the signs entering the open
    question (both sides of the fourth relation)."""
    nd = tab.n * tab.d
    if tab.k_max < nd:
        raise ValueError(f"window k_max={tab.k_max} too small; need at least {nd}")
    violations: list[tuple[str, int, int, int]] = []
    defect_lhs = []
    defect_rhs = []
    for k in range(nd + 1):
        mk = tab.mu[k]
        mkr = tab.mu[nd - k]
        mt, mtr = tab.mu_torsion[k], tab.mu_torsion[nd - k]
        mf, mfr = tab.mu_free[k], tab.mu_free[nd - k]
        gk = tab.gamma[k]
        nur = tab.nu[nd - k]
        if mt != mtr:
            violations.append(("torsion-symmetry", k, mt, mtr))
        if mf + nur != tab.tau:
            violations.append(("free-plus-nu", k, mf + nur, tab.tau))
        if mt != mk + mkr - gk - tab.tau:
            violations.append(("torsion-from-mu", k, mt, mk + mkr - gk - tab.tau))
        if gk - mt != mf + mfr - tab.tau:
            violations.append(("defect-balance", k, gk - mt, mf + mfr - tab.tau))
        defect_lhs.append(gk - mt)
        defect_rhs.append(mf + mfr - tab.tau)
    return CorollaryReport(
        ok=not violations,
        violations=violations,
        min_defect_lhs=min(defect_lhs),
        min_defect_rhs=min(defect_rhs),
    )


def classify_type(tab: InvariantTable) -> str:
    """Type I: nu vanishes through degree n*d/2.  Type II otherwise."""
    for k in range(tab.k_max + 1):
        if 2 * k <= tab.n * tab.d and tab.nu[k] != 0:
            return "II"
    return "I"


@dataclass
class FreePartReport:
    applicable: bool
    base_ok: bool | None
    span_ok: bool | None
    mu_free_at_n: int
    mu_free_above_n: int


def check_free_generators(tab: InvariantTable, span_rank: int | None = None) -> FreePartReport:
    """For a singular hypersurface the free part has dimension exactly 1 in
    degree n, and at least the dimension of the span of the singular points
    in degree n+1 (the span dimension is user-supplied knowledge)."""
    if tab.tau == 0:
        return FreePartReport(False, None, None, tab.mu_free[tab.n], tab.mu_free[tab.n + 1])
    at_n = tab.mu_free[tab.n]
    above = tab.mu_free[tab.n + 1]
    return FreePartReport(
        applicable=True,
        base_ok=at_n == 1,
        span_ok=None if span_rank is None else above >= span_rank,
        mu_free_at_n=at_n,
        mu_free_above_n=above,
    )


def nodal_nu_bound(n: int, d: int) -> int:
    """Largest degree through which nu must vanish when every singular
    point of the hypersurface is a node; the bound depends on the parity
    of the variable count."""
    half = (n - 1) // 2
    bound = (half + 1) * d
    return bound if n % 2 == 0 else bound - 1


def check_nodal_vanishing(tab: InvariantTable) -> None:
    """Assert the nu vanishing range of a nodal hypersurface.

    The caller vouches that the singularities are all nodes; this only
    checks the consequence, it cannot detect non-nodal input."""
    bound = min(nodal_nu_bound(tab.n, tab.d), tab.k_max)
    bad = [("nodal-vanishing", k, tab.nu[k], 0) for k in range(bound + 1) if tab.nu[k] != 0]
    if bad:
        raise IdentityViolation(bad)


def build_invariant_table(
    f: HomogeneousPoly,
    k_max: int | None = None,
    seed: int = 0,
) -> InvariantTable:
    """Full invariant table with validated generic splitting.

    The splitting form is drawn from `seed`; if the identity suite rejects it
    the seed is advanced (three modular attempts in all), then everything is
    redone with exact ranks and the original seed before a violation is
    finally raised.
    """
    win = KoszulWindow(f, k_max)
    if win.k_max < win.n * win.d:
        raise ValueError(f"k_max must be at least n*d = {win.n * win.d}")
    evidence = assumption_evidence(win)
    if not evidence.passed:
        raise AssumptionFailure(evidence)
    ks = range(win.k_max + 1)
    for attempt_seed, exact in [(seed, False), (seed + 1, False), (seed + 2, False), (seed, True)]:
        if exact:
            win.force_exact()
        t = tau(win)
        y = generic_linear_form(win.n, attempt_seed)
        mu_t, mu_f = _split_window(win, y)
        tab = InvariantTable(
            n=win.n, d=win.d, k_max=win.k_max, tau=t,
            gamma=[win.gamma(k) for k in ks], mu=[win.mu(k) for k in ks],
            mu_torsion=mu_t, mu_free=mu_f, nu=[win.nu(k) for k in ks],
            type_flag="", seed=attempt_seed,
        )
        report = verify_corollaries(tab)
        if report.ok:
            tab.type_flag = classify_type(tab)
            return tab
    raise IdentityViolation(report.violations)
