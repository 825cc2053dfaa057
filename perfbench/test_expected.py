"""Tests of the benchmark itself: its oracle, inputs, tracing and output.

    python3 -m pytest perfbench -q        # about a minute

expected.json is written from the engine, so here every stored answer is
checked against something the engine did not produce: the frozen tables of
tests/tables.py, the binary and split-variable closed forms, and for the
two adversarial inputs the answers of their plain twins.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import expectations  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tables  # noqa: E402
import workloads  # noqa: E402
from koszulspec import cli, linalg, polespec  # noqa: E402
from koszulspec.closedform import (  # noqa: E402
    BinaryFormFactorization,
    binary_bundle,
    binary_invariant_table,
    binary_pole_spectrum,
    binary_stage2_rows,
    isolated_bundle,
    ts_product,
)
from koszulspec.poly import parse_poly  # noqa: E402

EXP = expectations.load()
ROWS = ["gamma", "mu", "mu_torsion", "mu_free", "nu"]


def fields(workload, label):
    return EXP[workload][label]["fields"]


def support(rec):
    return [(Fraction(x), m) for x, m in rec["pole_spectrum"]["support"]]


def test_every_input_has_an_expectation():
    for name, inputs in workloads.WORKLOADS.items():
        assert set(EXP[name]) == {label for label, *_ in inputs}
        twins = {label for label, *_rest, twin in inputs if twin is not None}
        assert expectations.known_defects(name) == twins


def test_benchmark_json_lists_every_workload_and_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_ref", "peak_rss_mb", "ok_ratio", "setup_s"]
    assert [m["name"] for m in bench["per_layer"]] == list(layers.METRICS) + run.DIAGNOSTICS
    assert max(m["bound"] for m in bench["end_to_end"]) == bench["end_to_end"][-1]["bound"] <= 0.25


# -- oracles ---------------------------------------------------------------------

FROZEN = {
    "xyz": tables.XYZ,
    "threenodes": tables.THREE_NODES,
    "fourlines": tables.FOUR_LINES,
    "twoa3": tables.TWO_A3,
    "twoa3_pp": tables.TWO_A3,  # x^2*y^2 + p0*p1*z^4 is two A3 points too
}


@pytest.mark.parametrize("label", sorted(FROZEN))
def test_worked_examples_match_frozen_tables(label):
    ref, rec = FROZEN[label], fields("curves", label)
    assert (rec["n"], rec["d"], rec["tau"], rec["type"]) == (ref["n"], ref["d"], ref["tau"], ref["type"])
    for row in ROWS:
        tables.assert_row(rec[row], ref[row], f"{label} {row}")
    tables.assert_row(rec["mu_stage2"], ref["mu2"], f"{label} mu2")
    tables.assert_row(rec["nu_stage2"], ref["nu2"], f"{label} nu2")
    assert support(rec) == ref["spectrum"]
    assert rec["pole_spectrum"]["stabilization_stage"] == ref["stage"]
    assert rec["pole_spectrum"]["truncated"] == ref["truncated"]
    assert rec["torsion_profile"]["degenerate"] == ref["degenerate"]


def test_nonwh_matches_frozen_table():
    ref, rec = tables.NON_WH, fields("curves", "nonwh")
    assert (rec["k_max"], rec["tau"], rec["type"]) == (ref["k_max"], ref["tau"], ref["type"])
    assert rec["mu"] == ref["mu"]
    tables.assert_row(rec["mu_torsion"], ref["mu_torsion"])
    tables.assert_row(rec["nu"], ref["nu"])
    k = len(rec["mu_stage2"])
    assert (rec["mu_stage2"], rec["nu_stage2"]) == (ref["mu2"][:k], ref["nu2"][:k])
    assert {(r, k): v for r, k, v in rec["torsion_profile"]["entries"]} == ref["profile"]
    assert rec["pole_spectrum"]["stabilization_stage"] == ref["r_star"]
    assert rec["pole_spectrum"]["truncated"] == ref["truncated"]
    assert support(rec) == ref["spectrum"]


BINARY = {
    "xy": (1, 1),
    "x3+y3": (1, 1, 1),
    "x3y2+x2y3": (2, 2, 1),
    "pencil2": (1, 1, 2, 2),
    "pencil3": (1, 1, 1, 3, 3),
    "conic_pp": (1, 1),  # x^2 + p0*p1*y^2 is two distinct lines, as x^2 + y^2
}


@pytest.mark.parametrize("label", sorted(BINARY))
def test_binary_inputs_match_closed_forms(label):
    fac = BinaryFormFactorization(BINARY[label])
    rec = fields("curves", label)
    tab = binary_invariant_table(fac, rec["k_max"])
    assert rec["tau"] == tab.tau
    for row in ROWS:
        assert rec[row] == getattr(tab, row), f"{label} {row}"
    parts = binary_pole_spectrum(fac)
    assert support(rec) == parts.spectrum.support
    assert rec["pole_spectrum"]["stabilization_stage"] == parts.spectrum.stabilization_stage
    mu2, nu2 = binary_stage2_rows(fac, rec["k_max"] - rec["d"])
    assert (rec["mu_stage2"], rec["nu_stage2"]) == (mu2, nu2)
    if label.startswith("pencil"):
        frozen = tables.PENCIL_MU2[BINARY[label][-1]]
        assert rec["mu_stage2"][: len(frozen)] == frozen


# (workload, label) -> multiplicities of the binary summand; the rest of
# the variables carry an isolated summand of the same degree
SPLIT = {
    ("curves", "twoa3"): (2, 2),
    ("curves", "twoa3_pp"): (2, 2),
    ("curves", "ts_3_5_1"): (1, 4),
    ("curves", "ts_3_5_2"): (2, 3),
    ("curves", "fermat4_3"): (1, 1, 1, 1),
    ("curves", "fermat5_3"): (1, 1, 1, 1, 1),
    ("table_modular", "fermat3_4"): (1, 1, 1),
    ("table_modular", "fermat4_4"): (1, 1, 1, 1),
    ("table_modular", "ts_4_4_1"): (1, 3),
    ("table_modular", "ts_4_4_2"): (2, 2),
    ("tower_kernel", "ts_4_4_2"): (2, 2),
}


@pytest.mark.parametrize("key", sorted(SPLIT))
def test_split_variable_inputs_match_ts_product(key):
    rec = fields(*key)
    n, d, k_max = rec["n"], rec["d"], rec["k_max"]
    closed = ts_product(
        binary_bundle(BinaryFormFactorization(SPLIT[key]), k_max),
        isolated_bundle(n - 2, d, k_max),
    )
    assert rec["mu_torsion"] == list(closed.mu_torsion.coeffs)
    assert rec["mu_free"] == list(closed.mu_free.coeffs)
    assert rec["nu"] == list(closed.nu.coeffs)
    if rec["pole_spectrum"] is None:
        return
    sp = rec["pole_spectrum"]
    if not sp["truncated"]:
        assert support(rec) == list(closed.spectrum)
        return
    # a short window gives the spectrum only up to its trusted top degree;
    # the closed form then has to be evaluated on the full default window
    full = ts_product(
        binary_bundle(BinaryFormFactorization(SPLIT[key]), n * d + d),
        isolated_bundle(n - 2, d, n * d + d),
    )
    top = Fraction(k_max - (sp["stabilization_stage"] - 1) * d, d)
    assert support(rec) == [(x, m) for x, m in full.spectrum if x <= top]


def test_short_windows_agree_with_the_default_window():
    """The tower workloads use a short --kmax; up to it their rows are the
    rows of the full table."""
    for label, short, part_label in [
        ("cayley", "tower_echelon", "cayley_1"),
        ("ts_4_4_2", "tower_kernel", "ts_4_4_2"),
    ]:
        full, part = fields("table_modular", label), fields(short, part_label)
        k = part["k_max"] + 1
        for row in ROWS:
            assert part[row] == full[row][:k], (label, row)
    cayley = fields("table_modular", "cayley")
    assert (cayley["tau"], cayley["type"]) == (4, "I")  # four ordinary nodes
    echelon = EXP["tower_echelon"]
    assert all(e == echelon["cayley_1"] for e in echelon.values())
    assert echelon["cayley_1"]["fields"]["torsion_profile"]["degenerate"]


# -- inputs ------------------------------------------------------------------------


def test_scale_poly_substitutes_every_variable():
    variables = ["x", "y", "z"]
    scale = {"x": 2, "y": 3, "z": 5}
    text = "x^2*y + 7*y*z^2 + z^3"
    got = parse_poly(workloads.scale_poly(text, variables, scale), variables)
    want = parse_poly("12*x^2*y + 525*y*z^2 + 125*z^3", variables)
    assert got == want


def test_seed_zero_is_verbatim_and_adversarial_inputs_are_never_scaled():
    for name, inputs in workloads.WORKLOADS.items():
        assert [c["argv"][1] for c in workloads.calls(name, 0)] == [poly for _, _, poly, *_ in inputs]
    for seed in range(1, 20):
        calls = {c["label"]: c["argv"] for c in workloads.calls("curves", seed)}
        assert calls["conic_pp"][1] == f"x^2 + {workloads.PRIME_PRODUCT}*y^2"
        assert calls["twoa3_pp"][1] == f"x^2*y^2 + {workloads.PRIME_PRODUCT}*z^4"


CHEAP = {"xy", "x3y2+x2y3", "xyz", "twoa3", "cusp", "fourlines", "nonwh"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scaled_inputs_keep_every_answer(seed):
    """Metamorphic check of the seeded inputs: rescaling variables changes
    no stored field."""
    for call in workloads.calls("curves", seed):
        if call["label"] not in CHEAP:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(call["argv"]) == 0
        why = expectations.mismatch(json.loads(out.getvalue()), EXP["curves"][call["label"]])
        assert why is None, (call, why)


# -- tracing -------------------------------------------------------------------------


def test_tracer_patches_names_imported_by_value_and_restores_them():
    original = linalg.kernel_int_columns
    assert polespec.kernel_int_columns is original
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert polespec.kernel_int_columns is linalg.kernel_int_columns is not original
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["spectrum", "x*y*z", "--json"]) == 0
    finally:
        tracer.uninstall()
    assert polespec.kernel_int_columns is linalg.kernel_int_columns is original
    got = tracer.summary()
    assert got["linalg.kernel_n"] > 0 and got["linalg.rank_mod_n"] > 0
    assert got["koszul.window_n"] == 2 and got["koszul.evidence_n"] == 2
    assert 0.5 < got["trace.coverage"] <= 1
    main = [s for s in tracer.spans if s[0] == "cli.main"]
    assert len(main) == 1 and main[0][3] == -1


def test_missing_hook_fails_loudly(monkeypatch):
    monkeypatch.setattr(layers, "HOOKS", layers.HOOKS + [("x", "linalg", "no_such_layer", None)])
    tracer = layers.Tracer()
    with pytest.raises(layers.MissingHook, match="no_such_layer"):
        tracer.install()
    tracer.uninstall()
    assert polespec.kernel_int_columns is linalg.kernel_int_columns


# -- the command ------------------------------------------------------------------------


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_and_counts_known_defects(trace):
    lines = run_bench("--workload", "curves", "--seed", "4", "--seconds", "1", "--trace", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    passes = 1 if trace == "0" else 2
    assert result == {**result, "correct": True, "attempted": 17 * passes, "failed": 2 * passes}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert result["metrics"]["ok_ratio"]["value"] == 15 / 17
        assert any(line.strip() == f"fail_ratio = {2 / 17:.6g} ratio" for line in lines)


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits nonzero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curves", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
