"""Command-line front end: aligned tables, spectrum listings, identity
checks, and an append-only JSON-lines catalog of runs.

Exit codes: 0 success, 2 usage or input parse error, 3 window or
genericity failure, 4 violated identity/bound or catalog mismatch,
5 catalog I/O failure.  Timing measurements go to standard error so
standard output stays byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .closedform import (
    BinaryFormFactorization,
    binary_invariant_table,
    binary_pole_spectrum,
    binary_stage2_rows,
)
from .decomp import (
    AssumptionFailure,
    IdentityViolation,
    InvariantTable,
    NotStabilizedError,
    build_invariant_table,
    check_nodal_vanishing,
    verify_corollaries,
)
from .koszul import KoszulWindow
from .poly import HomogeneousPoly, parse_poly, serialize_poly
from .polespec import (
    BoundViolation,
    LiftFailure,
    PoleSpectrum,
    WellDefinednessViolation,
    check_exponent_bounds,
    pole_spectrum,
    stage_snapshot,
    torsion_profile,
)


# exception types -> exit code, in the order they are matched
_EXIT_CODES = (
    ((ValueError, KeyError), 2),
    ((NotStabilizedError, AssumptionFailure), 3),
    ((IdentityViolation, BoundViolation, WellDefinednessViolation, LiftFailure), 4),
    ((OSError,), 5),
)
_HANDLED = tuple(t for types, _ in _EXIT_CODES for t in types)


def _exit_code(exc: BaseException) -> int:
    return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def _timed(label: str, t0: float) -> None:
    print(f"[time] {label}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)


def _parse_vars(text: str) -> list[str]:
    names = [v.strip() for v in text.split(",")]
    if any(not v for v in names):
        raise ValueError(f"bad variable list: {text!r}")
    return names


def parse_binary_form(text: str) -> BinaryFormFactorization:
    """Parse 'x:2,y:2,x+y:1' into a factored binary form in x and y."""
    pairs = []
    for chunk in text.split(","):
        lin_text, sep, mult_text = chunk.rpartition(":")
        if not sep:
            raise ValueError(f"factor {chunk!r} needs the form linear:multiplicity")
        lin = parse_poly(lin_text.strip(), ["x", "y"])
        pairs.append((lin, int(mult_text)))
    return BinaryFormFactorization.from_factors(pairs)


# -- rendering -----------------------------------------------------------------


def render_rows(rows: list[tuple[str, list[int]]], k_hi: int) -> str:
    """Aligned table, one labeled row per sequence, zero entries blank."""
    label_w = max(len("k"), max(len(label) for label, _ in rows))
    cells = []
    for _, vals in rows:
        cells.append(
            ["" if k >= len(vals) or vals[k] == 0 else str(vals[k]) for k in range(k_hi + 1)]
        )
    widths = [
        max(len(str(k)), max(row[k] and len(row[k]) or 1 for row in cells))
        for k in range(k_hi + 1)
    ]
    lines = [
        "k".ljust(label_w)
        + " |"
        + "".join(f" {str(k).rjust(widths[k])}" for k in range(k_hi + 1))
    ]
    for (label, _), row in zip(rows, cells):
        lines.append(
            (
                label.ljust(label_w)
                + " |"
                + "".join(f" {row[k].rjust(widths[k])}" for k in range(k_hi + 1))
            ).rstrip()
        )
    return "\n".join(lines)


def _table_rows(tab: InvariantTable) -> list[tuple[str, list[int]]]:
    return [
        ("gamma", tab.gamma),
        ("mu'", tab.mu_torsion),
        ("mu''", tab.mu_free),
        ("mu", tab.mu),
        ("nu", tab.nu),
    ]


def _spectrum_lines(sp: PoleSpectrum, d: int) -> list[str]:
    out = ["Sp_P:"]
    for x, m in sp.support:
        out.append(f"{int(x * d)} {x} {m:+d}")
    return out


def _print_spectrum_block(
    out: list[str],
    tab: InvariantTable,
    mu2: list[int],
    nu2: list[int],
    sp: PoleSpectrum,
    profile_entries: dict[tuple[int, int], int],
    degenerate: bool,
) -> None:
    k_hi = tab.k_max - tab.d
    rows = _table_rows(tab) + [("mu(2)", mu2[: k_hi + 1]), ("nu(2)", nu2[: k_hi + 1])]
    out.append(f"tau: {tab.tau}  type: {tab.type_flag}")
    out.append(render_rows(rows, k_hi))
    out.append(f"stabilization stage: {sp.stabilization_stage}")
    out.append(f"truncated: {'yes' if sp.truncated else 'no'}")
    out.append(f"E2: {'degenerate' if degenerate else 'non-degenerate'}")
    if profile_entries:
        out.append("torsion profile:")
        for (r, k), v in sorted(profile_entries.items()):
            out.append(f"stage {r} degree {k}: {v}")
    else:
        out.append("torsion profile: none")
    out.extend(_spectrum_lines(sp, tab.d))


# -- records and catalog -------------------------------------------------------


def run_record(
    command: str,
    input_text: str | None,
    variables: list[str] | None,
    binary_form: str | None,
    tab: InvariantTable,
    identities_ok: bool,
    defect_nonnegative: bool,
    sp: PoleSpectrum | None = None,
    profile=None,
    mu2: list[int] | None = None,
    nu2: list[int] | None = None,
) -> dict:
    return {
        "engine_version": __version__,
        "command": command,
        "input": input_text,
        "variables": variables,
        "binary_form": binary_form,
        "n": tab.n,
        "d": tab.d,
        "seed": tab.seed,
        "k_max": tab.k_max,
        "tau": tab.tau,
        "type": tab.type_flag,
        "gamma": tab.gamma,
        "mu": tab.mu,
        "mu_torsion": tab.mu_torsion,
        "mu_free": tab.mu_free,
        "nu": tab.nu,
        "mu_stage2": mu2,
        "nu_stage2": nu2,
        "pole_spectrum": None
        if sp is None
        else {
            "support": [[str(x), m] for x, m in sp.support],
            "truncated": sp.truncated,
            "stabilization_stage": sp.stabilization_stage,
        },
        "torsion_profile": None
        if profile is None
        else {
            "entries": [[r, k, v] for (r, k), v in sorted(profile.entries.items())],
            "degenerate": profile.degenerate,
            "truncated": profile.truncated,
        },
        "verdicts": {
            "assumptions": True,
            "identities": identities_ok,
            "type": tab.type_flag,
            "e2_degenerate": None if profile is None else profile.degenerate,
            "defect_sides_nonnegative": defect_nonnegative,
        },
    }


def catalog_append(record: dict, path: str) -> None:
    """Append one record as a single JSON line; keys sorted so identical
    runs produce identical bytes."""
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def catalog_read(path: str) -> list[tuple[int, dict]]:
    """(line number, record) for every non-blank line; a line that is not a
    JSON object raises ValueError naming the line."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"catalog line {lineno}: {exc}") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"catalog line {lineno}: not a JSON object")
            records.append((lineno, rec))
    return records


# -- commands ------------------------------------------------------------------


def _invariants_record(args) -> tuple[dict, InvariantTable]:
    variables = _parse_vars(args.vars)
    f = parse_poly(args.poly, variables)
    t0 = time.perf_counter()
    tab = build_invariant_table(f, k_max=args.kmax, seed=args.seed)
    _timed("table", t0)
    report = verify_corollaries(tab)
    record = run_record(
        "invariants",
        args.poly,
        variables,
        None,
        tab,
        report.ok,
        report.defect_sides_nonnegative,
    )
    return record, tab


def cmd_invariants(args) -> int:
    record, tab = _invariants_record(args)
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        out = [
            f"f: {args.poly}",
            f"n: {tab.n}  d: {tab.d}  k_max: {tab.k_max}",
            f"seed: {tab.seed}",
            f"tau: {tab.tau}  type: {tab.type_flag}",
            render_rows(_table_rows(tab), min(tab.k_max, tab.n * tab.d + 1)),
            f"defect sides nonnegative: {'yes' if record['verdicts']['defect_sides_nonnegative'] else 'no'}",
        ]
        print("\n".join(out))
    if args.catalog:
        catalog_append(record, args.catalog)
    return 0


def _spectrum_engine_record(args) -> tuple[dict, list[str]]:
    variables = _parse_vars(args.vars)
    f = parse_poly(args.poly, variables)
    t0 = time.perf_counter()
    tab = build_invariant_table(f, k_max=args.kmax, seed=args.seed)
    _timed("table", t0)
    t0 = time.perf_counter()
    win = KoszulWindow(f, tab.k_max)
    sp = pole_spectrum(win)
    profile = torsion_profile(win)
    mu2, nu2 = stage_snapshot(win, 2)
    _timed("tower", t0)
    report = verify_corollaries(tab)
    record = run_record(
        "spectrum",
        args.poly,
        variables,
        None,
        tab,
        report.ok,
        report.defect_sides_nonnegative,
        sp,
        profile,
        mu2[: tab.k_max - tab.d + 1],
        nu2[: tab.k_max - tab.d + 1],
    )
    out = [f"f: {args.poly}", f"n: {tab.n}  d: {tab.d}  k_max: {tab.k_max}", f"seed: {tab.seed}"]
    _print_spectrum_block(out, tab, mu2, nu2, sp, profile.entries, profile.degenerate)
    return record, out


def _spectrum_closed_record(args) -> tuple[dict, list[str]]:
    fac = parse_binary_form(args.binary_form)
    k_max = args.kmax if args.kmax is not None else 3 * fac.d
    tab = binary_invariant_table(fac, k_max)
    parts = binary_pole_spectrum(fac)
    mu2, nu2 = binary_stage2_rows(fac, k_max - fac.d)
    report = verify_corollaries(tab)
    record = run_record(
        "spectrum",
        None,
        None,
        args.binary_form,
        tab,
        report.ok,
        report.defect_sides_nonnegative,
        parts.spectrum,
        None,
        mu2,
        nu2,
    )
    # closed-form binary towers always settle at stage two with no torsion
    record["torsion_profile"] = {"entries": [], "degenerate": True, "truncated": False}
    record["verdicts"]["e2_degenerate"] = True
    out = [
        f"binary form: {args.binary_form}",
        f"n: {tab.n}  d: {tab.d}  k_max: {tab.k_max}",
        "seed: -",
    ]
    _print_spectrum_block(out, tab, mu2, nu2, parts.spectrum, {}, True)
    return record, out


def cmd_spectrum(args) -> int:
    if args.binary_form:
        record, out = _spectrum_closed_record(args)
    else:
        if not args.poly:
            raise ValueError("need a polynomial or --binary-form")
        record, out = _spectrum_engine_record(args)
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print("\n".join(out))
    if args.catalog:
        catalog_append(record, args.catalog)
    return 0


def _check_one(
    poly_text: str,
    variables: list[str],
    kmax: int | None,
    seed: int,
    nodal: bool,
    alpha_min: Fraction | None,
    exponents: list[Fraction] | None,
    binary_form: str | None,
) -> list[str]:
    """Identity suite on one input; returns human-readable PASS lines.
    Violations raise."""
    f = parse_poly(poly_text, variables)
    if binary_form is not None:
        fac = parse_binary_form(binary_form)
        if f.n != 2 or f.degree != fac.d:
            raise ValueError(
                f"the binary form {binary_form!r} has degree {fac.d} in 2 variables; "
                f"the input has degree {f.degree} in {f.n}"
            )
    tab = build_invariant_table(f, k_max=kmax, seed=seed)
    report = verify_corollaries(tab)
    lines = [f"identities: ok (defect sides {'nonnegative' if report.defect_sides_nonnegative else 'mixed sign'})"]
    # one tower window serves both the oracle comparison and the bounds
    if binary_form is not None or alpha_min is not None:
        win = KoszulWindow(f, tab.k_max)
    if nodal:
        check_nodal_vanishing(tab)
        lines.append("nodal vanishing: ok")
    if binary_form is not None:
        oracle = binary_invariant_table(fac, tab.k_max)
        sp, closed = pole_spectrum(win), binary_pole_spectrum(fac).spectrum
        # A truncated engine spectrum is known only up to its trusted top:
        # compare both supports there, and skip the two flags, which then
        # describe the window rather than the polynomial.
        top = sp.trusted_top if sp.truncated else None

        def by_degree(spec):
            # the multiplicity at k/d, keyed by k
            return {int(x * tab.d): m for x, m in spec.support if top is None or x * tab.d <= top}

        # rows keyed by degree; the two flags belong to no degree
        pairs = [
            (name, dict(enumerate(a)), dict(enumerate(b)))
            for (name, a), (_, b) in zip(_table_rows(tab), _table_rows(oracle))
        ] + [("Sp_P", by_degree(sp), by_degree(closed))]
        if top is None:
            pairs += [
                ("Sp_P truncated", {None: sp.truncated}, {None: closed.truncated}),
                ("Sp_P stabilization stage", {None: sp.stabilization_stage}, {None: closed.stabilization_stage}),
            ]
        violations = []
        for name, a, b in pairs:
            diff = [k for k in sorted(a.keys() | b.keys()) if a.get(k, 0) != b.get(k, 0)]
            if diff:
                k = diff[0]
                violations.append((f"closed-form-oracle {name} (engine vs closed form)", k, a.get(k, 0), b.get(k, 0)))
        if violations:
            raise IdentityViolation(violations)
        note = "" if top is None else (
            f" (truncated window: Sp_P compared through degree {top}, "
            "truncation and stabilization flags skipped)"
        )
        lines.append(f"closed-form oracle: ok{note}")
    if alpha_min is not None:
        sp = pole_spectrum(win)
        _, nu2 = stage_snapshot(win, 2)
        bounds = check_exponent_bounds(
            tab,
            alpha_min,
            local_exponents=exponents,
            nu2=nu2[: tab.k_max - tab.d + 1],
            spectrum=sp,
        )
        lines.extend(f"bound: {c} ok" for c in bounds.checks)
    return lines


def _optional_int(value, name: str) -> int | None:
    """A window or seed field of a corpus entry or catalog record."""
    if value is not None and type(value) is not int:
        raise ValueError(f"{name!r} must be an integer")
    return value


def _optional_field(value, name: str, types: tuple[type, ...]):
    """A field of a corpus entry or exponent file: absent, or of one of
    `types` exactly (so an exact rational is a string such as "1/2" or an
    integer, never a float)."""
    if value is not None and type(value) not in types:
        raise ValueError(f"{name!r} must be {' or '.join(t.__name__ for t in types)}")
    return value


def _optional_rational(value, name: str) -> Fraction | None:
    """An exact rational field: absent, or a string such as "3/4" or an
    integer, never a float; a zero denominator is an input error too."""
    if _optional_field(value, name, (str, int)) is None:
        return None
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name!r} must be a rational such as 3/4, not {value!r}") from None


def _optional_exponents(value, name: str) -> list[Fraction] | None:
    """A list of local spectral exponents, each a string or an integer."""
    if value is not None and not (
        isinstance(value, list) and all(type(e) in (str, int) for e in value)
    ):
        raise ValueError(f"{name!r} must be a list of str or int")
    return None if value is None else [_optional_rational(e, name) for e in value]


def _variable_names(value) -> list[str]:
    """Variables of a corpus entry or catalog record: a comma-separated
    string or a list of names."""
    if isinstance(value, str):
        return _parse_vars(value)
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return value
    raise ValueError("variables must be a comma-separated string or a list of names")


def _record_args(rec: dict) -> argparse.Namespace:
    """Command arguments that reproduce a catalog record."""
    engine = rec.get("command") == "invariants" or not rec.get("binary_form")
    if engine and not isinstance(rec.get("input"), str):
        raise ValueError("record needs an 'input' string")
    return argparse.Namespace(
        poly=rec.get("input"),
        vars=",".join(_variable_names(rec.get("variables"))) if engine else None,
        kmax=_optional_int(rec.get("k_max"), "k_max"),
        seed=_optional_int(rec.get("seed"), "seed"),
        json=True,
        catalog=None,
        binary_form=_optional_field(rec.get("binary_form"), "binary_form", (str,)),
    )


def _verify_catalog(path: str) -> int:
    records = catalog_read(path)
    mismatches = 0
    skipped = 0
    for i, (lineno, rec) in enumerate(records):
        if rec.get("engine_version") != __version__:
            skipped += 1
            continue
        try:
            ns = _record_args(rec)
            if rec.get("command") == "invariants":
                fresh, _ = _invariants_record(ns)
            elif rec.get("binary_form"):
                fresh, _ = _spectrum_closed_record(ns)
            else:
                fresh, _ = _spectrum_engine_record(ns)
        except ValueError as exc:
            raise ValueError(f"catalog line {lineno}: {exc}") from exc
        bad = [k for k in fresh if k in rec and rec[k] != fresh[k]]
        if bad:
            mismatches += 1
            print(f"record {i}: mismatch in {', '.join(sorted(bad))}")
    print(
        f"catalog: {len(records)} records, {len(records) - skipped - mismatches} verified, "
        f"{skipped} skipped (other version), {mismatches} mismatches"
    )
    return 4 if mismatches else 0


def _check_corpus(args) -> int:
    """Identity suite on every corpus entry.  Each entry gets a PASS line, or
    a FAIL (violated identity or bound) or ERROR line with its exit code; a
    summary line follows, and the result is the highest exit code seen."""
    with open(args.corpus, "r", encoding="utf-8") as fh:
        lines = [(lineno, line) for lineno, line in enumerate(fh, 1) if line.strip()]
    worst = 0
    counts = {"FAIL": 0, "ERROR": 0}
    for lineno, line in lines:
        label = f"line {lineno}"
        try:
            entry = json.loads(line)
            if not isinstance(entry, dict):
                raise ValueError("not a JSON object")
            text = entry.get("input")
            if not isinstance(text, str):
                raise ValueError("'input' must be a string")
            label = text
            checks = _check_one(
                text,
                _variable_names(entry.get("vars", args.vars)),
                _optional_int(entry.get("k_max"), "k_max"),
                _optional_int(entry.get("seed", args.seed), "seed"),
                _optional_field(entry.get("nodal", False), "nodal", (bool,)),
                _optional_rational(entry.get("alpha_min"), "alpha_min"),
                _optional_exponents(entry.get("exponents"), "exponents"),
                _optional_field(entry.get("binary_form"), "binary_form", (str,)),
            )
        except _HANDLED as exc:
            code = _exit_code(exc)
            outcome = "FAIL" if code == 4 else "ERROR"
            counts[outcome] += 1
            worst = max(worst, code)
            print(f"{outcome} {label}: {exc} (exit {code})")
        else:
            print(f"PASS {label}: " + "; ".join(checks))
    print(
        f"corpus: {len(lines)} records, {len(lines) - counts['FAIL'] - counts['ERROR']} passed, "
        f"{counts['FAIL']} failed, {counts['ERROR']} errors"
    )
    return worst


def cmd_check(args) -> int:
    if args.catalog and not (args.poly or args.corpus):
        return _verify_catalog(args.catalog)
    if args.corpus:
        return _check_corpus(args)
    if not args.poly:
        raise ValueError("need a polynomial, --corpus, or --catalog")
    exponents = None
    alpha_min = _optional_rational(args.alpha_min, "alpha_min")
    if args.exponents:
        with open(args.exponents, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("the exponent file must hold a JSON object")
        exponents = _optional_exponents(data.get("local_exponents"), "local_exponents")
        if alpha_min is None:
            alpha_min = _optional_rational(data.get("alpha_min"), "alpha_min")
    lines = _check_one(
        args.poly,
        _parse_vars(args.vars),
        args.kmax,
        args.seed,
        args.nodal,
        alpha_min,
        exponents,
        args.binary_form,
    )
    print("\n".join(lines))
    return 0


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszulspec",
        description="Graded invariants and pole spectra of homogeneous hypersurfaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly_required=True):
        p.add_argument("poly", nargs=None if poly_required else "?", help="homogeneous polynomial")
        p.add_argument("-v", "--vars", default="x,y,z", help="ordered comma-separated variables")
        p.add_argument("--kmax", type=int, default=None, help="degree window top")
        p.add_argument("--seed", type=int, default=0, help="seed for the generic splitting form")
        p.add_argument("--json", action="store_true", help="emit a JSON run record")
        p.add_argument("--catalog", default=None, help="append (or verify) a JSON-lines catalog")

    p_inv = sub.add_parser("invariants", help="graded dimension table")
    common(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_sp = sub.add_parser("spectrum", help="pole spectrum with stage diagnostics")
    common(p_sp, poly_required=False)
    p_sp.add_argument("--binary-form", default=None, help="closed-form path, e.g. 'x:2,y:2'")
    p_sp.set_defaults(func=cmd_spectrum)

    p_chk = sub.add_parser("check", help="identity suite / oracle comparison / catalog verify")
    common(p_chk, poly_required=False)
    p_chk.add_argument("--binary-form", default=None, help="closed-form oracle to compare against")
    p_chk.add_argument("--nodal", action="store_true", help="assert the nodal vanishing range")
    p_chk.add_argument("--alpha-min", default=None, help="smallest local spectral exponent, e.g. 3/4")
    p_chk.add_argument("--exponents", default=None, help="JSON file with local exponent data")
    p_chk.add_argument("--corpus", default=None, help="JSON-lines corpus to check")
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
