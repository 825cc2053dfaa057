"""Command line surface: rendering, JSON records, catalogs, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from koszulspec import cli
from koszulspec.cli import main

GOLDEN_INVARIANTS_XYZ = """\
f: x*y*z
n: 3  d: 3  k_max: 12
seed: 0
tau: 3  type: I
k     | 0 1 2 3 4 5 6 7 8 9 10
gamma |       1 3 3 1
mu'   |
mu''  |       1 3 3 3 3 3 3  3
mu    |       1 3 3 3 3 3 3  3
nu    |             2 3 3 3  3
defect sides nonnegative: yes
"""

GOLDEN_SPECTRUM_XYZ = """\
f: x*y*z
n: 3  d: 3  k_max: 12
seed: 0
tau: 3  type: I
k     | 0 1 2 3 4 5 6 7 8 9
gamma |       1 3 3 1
mu'   |
mu''  |       1 3 3 3 3 3 3
mu    |       1 3 3 3 3 3 3
nu    |             2 3 3 3
mu(2) |       1
nu(2) |             2
stabilization stage: 2
truncated: no
E2: degenerate
torsion profile: none
Sp_P:
3 1 +1
6 2 -2
"""

RECORD_KEYS = {
    "engine_version",
    "command",
    "input",
    "variables",
    "binary_form",
    "n",
    "d",
    "seed",
    "k_max",
    "tau",
    "type",
    "gamma",
    "mu",
    "mu_torsion",
    "mu_free",
    "nu",
    "mu_stage2",
    "nu_stage2",
    "pole_spectrum",
    "torsion_profile",
    "verdicts",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_golden(capsys):
    code, out, _ = run(capsys, "invariants", "x*y*z")
    assert code == 0
    assert out == GOLDEN_INVARIANTS_XYZ


def test_spectrum_golden(capsys):
    code, out, _ = run(capsys, "spectrum", "x*y*z")
    assert code == 0
    assert out == GOLDEN_SPECTRUM_XYZ


def test_spectrum_binary_form_lines(capsys):
    code, out, _ = run(capsys, "spectrum", "--binary-form", "x:2,y:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "binary form: x:2,y:2"
    assert lines[2] == "seed: -"
    assert "2 1/2 +1" in lines
    assert "4 1 +1" in lines
    assert "6 3/2 -1" in lines


def test_spectrum_engine_agrees_with_closed_form(capsys):
    """Same surface, two routes: everything below the header must agree."""
    _, closed, _ = run(capsys, "spectrum", "--binary-form", "x:2,y:2")
    _, engine, _ = run(capsys, "spectrum", "x^2*y^2", "-v", "x,y")
    assert closed.splitlines()[3:] == engine.splitlines()[3:]


def test_byte_determinism(capsys):
    # stderr carries wall-clock timings and is allowed to vary
    code1, out1, _ = run(capsys, "spectrum", "x^2*y^2 + z^4")
    code2, out2, _ = run(capsys, "spectrum", "x^2*y^2 + z^4")
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


def test_json_record_schema(capsys):
    code, out, _ = run(capsys, "invariants", "x*y*z", "--json")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == RECORD_KEYS
    assert rec["command"] == "invariants"
    assert rec["tau"] == 3
    assert rec["mu"][3] == 1
    assert rec["gamma"][3:7] == [1, 3, 3, 1]
    assert rec["verdicts"]["identities"] is True
    assert rec["verdicts"]["assumptions"] is True
    # the invariants command carries no tower data
    assert rec["mu_stage2"] is None
    assert rec["pole_spectrum"] is None


def test_json_spectrum_record(capsys):
    code, out, _ = run(capsys, "spectrum", "x*y*z", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["pole_spectrum"]["support"] == [["1", 1], ["2", -2]]
    assert rec["pole_spectrum"]["stabilization_stage"] == 2
    assert rec["pole_spectrum"]["truncated"] is False
    assert rec["torsion_profile"] == {
        "entries": [],
        "degenerate": True,
        "truncated": False,
    }
    assert rec["verdicts"]["e2_degenerate"] is True


def test_seed_changes_only_seed_field(capsys):
    _, a, _ = run(capsys, "invariants", "x^2*y^2 + z^4", "--json")
    _, b, _ = run(capsys, "invariants", "x^2*y^2 + z^4", "--json", "--seed", "9")
    ra, rb = json.loads(a), json.loads(b)
    assert ra["seed"] == 0 and rb["seed"] == 9
    assert ra["mu_torsion"] == rb["mu_torsion"]
    assert ra["mu_free"] == rb["mu_free"]
    ra["seed"] = rb["seed"]
    assert ra == rb


def test_check_single_input(capsys):
    code, out, _ = run(capsys, "check", "x*y*z", "--nodal")
    assert code == 0
    assert "identities: ok" in out
    assert "nodal vanishing: ok" in out


def test_check_closed_form_oracle(capsys):
    code, out, _ = run(
        capsys, "check", "x^2*y^2", "-v", "x,y", "--binary-form", "x:2,y:2"
    )
    assert code == 0
    assert "closed-form oracle: ok" in out
    # the oracle comparison and the bounds share one tower
    code, out, _ = run(
        capsys, "check", "x^2*y^2", "-v", "x,y", "--binary-form", "x:2,y:2",
        "--alpha-min", "1/2",
    )
    assert code == 0
    assert "closed-form oracle: ok" in out
    assert "bound: low-exponent multiplicity law ok" in out


def test_check_oracle_on_a_truncated_window(capsys):
    """At --kmax 9 the engine spectrum of x^2*y^2 is truncated with trusted
    top 5: the oracle compares the closed form up to there and skips the
    two flags; a closed form that differs inside that range still fails."""
    code, out, _ = run(
        capsys, "check", "x^2*y^2", "-v", "x,y", "--binary-form", "x:2,y:2", "--kmax", "9"
    )
    assert code == 0
    assert (
        "closed-form oracle: ok (truncated window: Sp_P compared through degree 5, "
        "truncation and stabilization flags skipped)"
    ) in out
    code, _, err = run(
        capsys, "check", "x^2*y^2", "-v", "x,y", "--binary-form", "x:3,y:1", "--kmax", "9"
    )
    assert code == 4
    assert "closed-form-oracle Sp_P (engine vs closed form) fails at degree 2: 1 != 0" in err


def test_check_oracle_mismatch_fails(capsys, monkeypatch):
    # multiplicities that belong to a different polynomial
    code, out, err = run(
        capsys, "check", "x^2*y^2", "-v", "x,y", "--binary-form", "x:3,y:1"
    )
    assert code == 4
    # the message names the row, the first degree where it differs and
    # both values
    assert "closed-form-oracle Sp_P (engine vs closed form) fails at degree 2: 1 != 0" in err
    code, out, err = run(
        capsys, "check", "x^3*y + x*y^3", "-v", "x,y", "--binary-form", "x:2,y:2"
    )
    assert code == 4
    assert "closed-form-oracle mu' (engine vs closed form) fails at degree 2: 1 != 0" in err
    # a binary form cannot describe a polynomial in three variables or of
    # another degree: an input error, found before the engine runs
    monkeypatch.setattr(cli, "build_invariant_table", None)
    for argv in (["x*y*z", "--binary-form", "x:1,y:1"], ["x^2*y^2", "-v", "x,y", "--binary-form", "x:1,y:2"]):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and out == ""
        assert "error: the binary form" in err


def test_check_bounds_with_exponent_file(tmp_path, capsys):
    payload = {"alpha_min": "3/4", "local_exponents": ["3/4", "1", "5/4", "3/4", "1", "5/4"]}
    path = tmp_path / "exponents.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "check", "x^2*y^2 + z^4", "--exponents", str(path))
    assert code == 0
    assert out.count("bound:") == 3
    # a malformed file is an input error (exit 2), not a crash
    for bad in (
        [1, 2],
        {"local_exponents": "3/4"},
        {"alpha_min": 0.75},
        {"local_exponents": ["2/0"]},
        {"alpha_min": "1/0"},
    ):
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "check", "x^2*y^2 + z^4", "--exponents", str(path))
        assert code == 2 and "error:" in err
    # so is a zero denominator given on the command line
    code, _, err = run(capsys, "check", "x*y*z", "--alpha-min", "1/0")
    assert code == 2 and "error:" in err and "alpha_min" in err


def test_check_bound_violation_exit(capsys):
    code, _, err = run(capsys, "check", "x*y*z", "--alpha-min", "2")
    assert code == 4
    assert "error:" in err


def test_check_corpus(tmp_path, capsys):
    entries = [
        {"input": "x*y*z", "vars": "x,y,z", "nodal": True},
        {"input": "x^2*y^2", "vars": "x,y", "binary_form": "x:2,y:2"},
        {"input": "x^3 + y^3 + z^3", "vars": "x,y,z"},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    code, out, _ = run(capsys, "check", "--corpus", str(path))
    assert code == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_check_corpus_reports_failures(tmp_path, capsys):
    entries = [
        {"input": "x*y*z", "vars": "x,y,z"},
        {"input": "x^2*y^2", "vars": "x,y", "binary_form": "x:3,y:1"},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    code, out, _ = run(capsys, "check", "--corpus", str(path))
    assert code == 4
    assert out.count("PASS") == 1
    assert out.count("FAIL") == 1


def test_check_corpus_keeps_going_past_a_bad_entry(tmp_path, capsys):
    """An entry that fails its preconditions is reported and the run goes
    on; the exit code is the worst class seen."""
    entries = [
        {"input": "x*y*z", "vars": "x,y,z"},
        {"input": "x^2*y", "vars": "x,y,z"},
        {"input": "x^3 + y^3 + z^3", "vars": "x,y,z"},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    code, out, _ = run(capsys, "check", "--corpus", str(path))
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith("PASS x*y*z:")
    assert lines[1].startswith("ERROR x^2*y:") and lines[1].endswith("(exit 3)")
    assert lines[2].startswith("PASS x^3 + y^3 + z^3:")
    assert lines[3] == "corpus: 3 records, 2 passed, 0 failed, 1 errors"
    # malformed entries are input errors of their own line
    path.write_text('{"input": "x*y*z", "vars": 5}\n{"input": "x*y*z", "k_max": "9"}\n[1]\n{"inp')
    code, out, _ = run(capsys, "check", "--corpus", str(path))
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith("ERROR x*y*z:") and "variables" in lines[0]
    assert lines[1].startswith("ERROR x*y*z:") and "k_max" in lines[1]
    assert lines[2].startswith("ERROR line 3:") and lines[3].startswith("ERROR line 4:")
    assert lines[4] == "corpus: 4 records, 0 passed, 0 failed, 4 errors"


def test_check_corpus_rejects_malformed_fields(tmp_path, capsys):
    """A bad input, alpha_min, exponents, binary_form or nodal value is an
    input error of its own entry, not a crash of the batch; so is a zero
    denominator, and a binary form that cannot describe the input."""
    entries = [
        {"input": "x*y*z", "alpha_min": [1]},
        {"input": "x*y*z", "alpha_min": "1/0"},
        {"input": "x^3 + y^3 + z^3"},
        {"input": "x*y*z", "alpha_min": "1/2", "exponents": "1/2"},
        {"input": "x^2*y^2", "vars": "x,y", "binary_form": 5},
        {"input": "x*y*z", "nodal": "yes"},
        {"input": "x*y*z", "binary_form": "x:1,y:1"},
        {"input": "x^3 + y^3 + z^3"},
        {"input": 5},
        {"input": ["x"]},
        {"input": "x^3 + y^3 + z^3"},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    code, out, _ = run(capsys, "check", "--corpus", str(path))
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith("ERROR x*y*z:") and "alpha_min" in lines[0]
    assert lines[0].endswith("(exit 2)")
    assert lines[1].startswith("ERROR x*y*z:") and "alpha_min" in lines[1]
    assert lines[1].endswith("(exit 2)")
    assert lines[2].startswith("PASS x^3 + y^3 + z^3:")
    assert lines[3].startswith("ERROR x*y*z:") and "exponents" in lines[3]
    assert lines[4].startswith("ERROR x^2*y^2:") and "binary_form" in lines[4]
    assert lines[5].startswith("ERROR x*y*z:") and "nodal" in lines[5]
    assert lines[6].startswith("ERROR x*y*z:") and "binary form" in lines[6]
    assert lines[6].endswith("(exit 2)")
    assert lines[7].startswith("PASS x^3 + y^3 + z^3:")
    assert lines[8] == "ERROR line 9: 'input' must be a string (exit 2)"
    assert lines[9] == "ERROR line 10: 'input' must be a string (exit 2)"
    assert lines[10].startswith("PASS x^3 + y^3 + z^3:")
    assert lines[11] == "corpus: 11 records, 3 passed, 0 failed, 8 errors"


def test_cli_import_leaves_numpy_out():
    """The package has no numpy dependency; importing the CLI must not
    load it (it would cost about 0.1 s of start-up on every call)."""
    code = "import sys, koszulspec.cli; print('numpy' in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_catalog_append_and_verify(tmp_path, capsys):
    cat = tmp_path / "catalog.jsonl"
    run(capsys, "invariants", "x*y*z", "--catalog", str(cat))
    run(capsys, "spectrum", "x^2*y^2", "-v", "x,y", "--catalog", str(cat))
    run(capsys, "spectrum", "--binary-form", "x:2,y:2", "--catalog", str(cat))
    lines = cat.read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(line)["engine_version"] for line in lines)
    code, out, _ = run(capsys, "check", "--catalog", str(cat))
    assert code == 0
    assert "3 records, 3 verified, 0 skipped" in out


def test_catalog_detects_corruption(tmp_path, capsys):
    cat = tmp_path / "catalog.jsonl"
    run(capsys, "invariants", "x*y*z", "--catalog", str(cat))
    rec = json.loads(cat.read_text())
    rec["mu"][3] = 99
    cat.write_text(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    code, out, _ = run(capsys, "check", "--catalog", str(cat))
    assert code == 4
    assert "mismatch" in out and "mu" in out


def test_catalog_skips_other_versions(tmp_path, capsys):
    cat = tmp_path / "catalog.jsonl"
    run(capsys, "invariants", "x*y*z", "--catalog", str(cat))
    rec = json.loads(cat.read_text())
    rec["engine_version"] = "0.0.0-other"
    with cat.open("a") as fh:
        fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    code, out, _ = run(capsys, "check", "--catalog", str(cat))
    assert code == 0
    assert "2 records, 1 verified, 1 skipped" in out


def test_catalog_errors_name_the_line(tmp_path, capsys):
    cat = tmp_path / "catalog.jsonl"
    run(capsys, "invariants", "x*y*z", "--catalog", str(cat))
    good = cat.read_text()
    rec = json.loads(good)
    del rec["variables"]
    cat.write_text(good + "\n" + json.dumps(rec) + "\n")
    code, _, err = run(capsys, "check", "--catalog", str(cat))
    assert code == 2
    assert "catalog line 3:" in err and "variables" in err
    cat.write_text(good + good[: len(good) // 2] + "\n")
    code, _, err = run(capsys, "check", "--catalog", str(cat))
    assert code == 2
    assert "catalog line 2:" in err
    rec = json.loads(good)
    rec["k_max"] = "12"
    cat.write_text(json.dumps(rec) + "\n")
    code, _, err = run(capsys, "check", "--catalog", str(cat))
    assert code == 2
    assert "catalog line 1:" in err and "k_max" in err
    rec["k_max"], rec["command"], rec["binary_form"] = 12, "spectrum", 5
    cat.write_text(json.dumps(rec) + "\n")
    code, _, err = run(capsys, "check", "--catalog", str(cat))
    assert code == 2
    assert "catalog line 1:" in err and "binary_form" in err


def test_exit_parse_error(capsys):
    code, _, err = run(capsys, "invariants", "x*(y+z)")
    assert code == 2
    assert "error:" in err


def test_exit_bad_window(capsys):
    code, _, _ = run(capsys, "invariants", "x*y*z", "--kmax", "2")
    assert code == 2


def test_exit_assumption_failure(capsys):
    code, _, err = run(capsys, "invariants", "x^2")
    assert code == 3


def test_exit_unwritable_catalog(capsys):
    code, _, _ = run(
        capsys, "invariants", "x*y*z", "--catalog", "/nonexistent/dir/cat.jsonl"
    )
    assert code == 5


def test_exit_missing_corpus(capsys):
    code, _, _ = run(capsys, "check", "--corpus", "/nonexistent/corpus.jsonl")
    assert code == 5


def test_exit_usage_error(capsys):
    assert run(capsys, "invariants")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "0.1.0" in out
