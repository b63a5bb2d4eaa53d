import dataclasses
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import rankmin
from rankmin import geometry, search, suites
from rankmin.cli import EXIT_CHECK, run_command
from rankmin.combinatorics import qbinom
from rankmin.linalg import CertificateError

GF4 = "p=2,e=1,m=2,ext=1,1,1"
GF8 = "p=2,e=1,m=3,ext=1,1,0,1"

C32_JSON = json.dumps({
    "field": GF4, "n": 3, "k": 2,
    "rows": [[1, 0, 2], [0, 1, 1]],
})
FLAT_JSON = json.dumps({
    "field": GF4, "n": 3, "k": 2,
    "rows": [[1, 0, 0], [0, 1, 0]],
})


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_command(capsys):
    code, out, _ = run(capsys, "field", "--field", GF8, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 8 and obj["m"] == 3
    assert obj["basis"] == [1, 2, 4]
    # a custom basis stays in the spec and is reported as internal integers
    spec = GF8 + ",basis=1,3,7"
    code, out, _ = run(capsys, "field", "--field", spec, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == spec and obj["basis"] == [1, 3, 7]


def test_field_command_bad_poly(capsys):
    code, _, err = run(capsys, "field", "--field", "p=2,e=1,m=2,ext=1,0,1")
    assert code == 2
    assert "error" in err


def test_wt_and_grw_commands(capsys):
    code, out, _ = run(capsys, "wt", "--code", C32_JSON)
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "grw", "--field", GF4, "--code", C32_JSON,
                       "--r", "2")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "grw", "--code", C32_JSON, "--json")
    obj = json.loads(out)
    assert obj["d_sequence"] == [0, 1, 3]


def test_minimal_command_and_strict_exit(capsys):
    code, out, _ = run(capsys, "minimal", "--code", C32_JSON, "--r", "1",
                       "--method", "all", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] is True
    code, out, _ = run(capsys, "minimal", "--code", FLAT_JSON, "--r", "1",
                       "--strict", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] is False and "witness" in obj


def test_witness_json_roundtrips_through_cli(capsys):
    code, out, _ = run(capsys, "minimal", "--code", FLAT_JSON, "--r", "1",
                       "--json")
    witness = json.loads(out)["witness"]
    w_code = json.dumps(witness["w"])
    d_code = json.dumps(witness["d"])
    code, out_w, _ = run(capsys, "wt", "--code", w_code)
    code, out_d, _ = run(capsys, "wt", "--code", d_code)
    assert out_w.strip() == out_d.strip()  # chi(W) = chi(D) in particular


def test_cutting_and_linearity_commands(capsys):
    sub = json.dumps({"level": "F", "ambient": 4, "dim": 3,
                      "rref_basis": [[1, 0, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 1, 0]]})
    code, out, _ = run(capsys, "cutting", "--field", GF4, "--subspace", sub,
                       "--r", "1", "--route", "all", "--json")
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out, _ = run(capsys, "linearity", "--field", GF4,
                       "--subspace", sub)
    assert code == 0 and out.strip() == "1"


def test_failed_check_exits_4(capsys, monkeypatch):
    real_cutting = geometry.is_cutting

    def lying_cutting(tower, k, s, r, route="evasive"):
        verdict = real_cutting(tower, k, s, r, route)
        if route == "prop21":
            verdict.verdict = not verdict.verdict
        return verdict

    monkeypatch.setattr(geometry, "is_cutting", lying_cutting)
    sub = json.dumps({"level": "F", "ambient": 4, "dim": 3,
                      "rref_basis": [[1, 0, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 1, 0]]})
    code, out, err = run(capsys, "cutting", "--field", GF4, "--subspace",
                         sub, "--r", "1", "--route", "all", "--json")
    assert code == EXIT_CHECK == 4 and out == ""
    assert err.startswith("error: cutting routes disagree")


def test_line_table_too_large_is_not_built(capsys, monkeypatch):
    # |F^(km)| = 2^24 exceeds the line-table limit: the h = 1, t = 1 scan
    # decides its one candidate without the line filter's table
    def no_table(tower, k):
        raise AssertionError("line table built")

    monkeypatch.setattr(search, "_line_table", no_table)
    code, out, _ = run(capsys, "omega", "--field", "p=2,e=1,m=8", "--k", "3",
                       "--r", "1", "--scan-dim", "10", "--shards", "1961256",
                       "--shard-index", "1961255", "--threads", "1", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["visited"] == 1 and obj["witness"] is None


def test_evasive_command(capsys):
    sub = json.dumps({"level": "F", "ambient": 4, "dim": 2,
                      "rref_basis": [[1, 0, 0, 0], [0, 0, 1, 0]]})
    code, out, _ = run(capsys, "evasive", "--field", GF4, "--subspace", sub,
                       "--h", "1", "--t", "1", "--json")
    assert code == 0 and json.loads(out)["verdict"] is True


def test_count_commands(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--m", "2", "--n", "3",
                       "--r", "1")
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "3", "--r", "1",
                       "--kind", "qbinom")
    assert out.strip() == "7"


def test_count_prints_exact_values_past_the_str_digit_limit(capsys):
    """qbinom(2, 300, 150) has about 6,800 digits, past Python 3.11's
    default int -> str limit of 4300."""
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "300", "--r",
                       "150", "--json")
    assert code == 0 and json.loads(out)["value"] == qbinom(2, 300, 150)
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "300", "--r",
                       "150")
    assert code == 0 and out.strip() == str(qbinom(2, 300, 150))
    code, _, _ = run(capsys, "count", "--q", "2", "--m", "60", "--n", "200",
                     "--r", "1")
    assert code == 0


def test_closed_pipe_exits_141_without_traceback(tmp_path):
    """Output well over a pipe buffer, read in part: exit 128 + SIGPIPE."""
    n = 40000
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps({
        "field": GF4, "n": n,
        "rows": [[i % 4 for i in range(n)], [(3 * i + 1) % 4
                                              for i in range(n)]]}))
    src = str(pathlib.Path(rankmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with subprocess.Popen(
            [sys.executable, "-m", "rankmin.cli", "wt", "--code",
             str(code_file), "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(300)
        proc.stdout.close()  # the reader goes away mid-output
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert len(head) == 300 and code == 141 and err == b""


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--m", "3", "--k", "4", "--r", "1",
                       "--json")
    obj = json.loads(out)
    assert (obj["lower"], obj["upper"]) == (8, 8)


def test_omega_command_with_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "2",
                       "--r", "1", "--threads", "1",
                       "--cert-out", str(cert), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == 3
    saved = json.loads(cert.read_text())
    assert saved["witness_certificate"]["kind"] == "witness"
    # round-trip: feed the witness back through the cutting command
    witness = json.dumps(saved["witness_certificate"]["witness"])
    code, out, _ = run(capsys, "cutting", "--field", GF4,
                       "--subspace", witness, "--r", "1", "--route", "all")
    assert code == 0 and out.strip().startswith("True")


def test_omega_budget_exit(capsys):
    code, out, _ = run(capsys, "omega", "--field", GF8, "--k", "3",
                       "--r", "1", "--threads", "1", "--budget", "500",
                       "--json")
    assert code == 3
    obj = json.loads(out)
    # the budget runs out in the d-1 sweep after a witness at the rule
    # lower bound: the rules and the witness still pin [6, 6]
    assert obj["error"] == "budget-exceeded" and obj["bracket"] == [6, 6]
    [cert] = obj["certificates"]
    assert cert["kind"] == "witness" and cert["params"]["dimension"] == 6
    code, out, _ = run(capsys, "cutting", "--field", GF8, "--subspace",
                       json.dumps(cert["witness"]), "--r", "1", "--route",
                       "all", "--json")
    assert code == 0 and json.loads(out)["verdict"] is True


def test_omega_dim_cap_below_the_answer_exits_3(capsys, monkeypatch):
    # GF(4), k=3, r=1 is pinned at 5 by the rules; widen its bracket to
    # [3, 5] so that a cap of 4 stops the sweep inside it
    real = search.omega_bounds(2, 3, 1)
    assert (real.lower, real.upper) == (5, 5)
    monkeypatch.setattr(search, "omega_bounds", lambda m, k, r: dataclasses
                        .replace(real, lower=3, exact=False))
    code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "3",
                       "--r", "1", "--dim-cap", "4", "--threads", "1",
                       "--json")
    assert code == 3
    obj = json.loads(out)
    assert obj["error"] == "budget-exceeded" and obj["bracket"] == [5, 5]
    assert [c["exhaustion"]["dimension"] for c in obj["certificates"]] == \
        [3, 4]
    # a cap at the answer still finds it
    code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "3",
                       "--r", "1", "--dim-cap", "5", "--threads", "1",
                       "--json")
    assert code == 0 and json.loads(out)["value"] == 5


@pytest.mark.parametrize("limit", [("--budget", "1395"),
                                   ("--budget", "1396"),
                                   ("--time-budget", "1")])
def test_omega_budget_brackets(capsys, monkeypatch, limit):
    # the [3, 5] bracket again: dimension 3 holds qbinom(2, 6, 3) = 1395
    # subspaces and no cutting set.  A node budget of 1395 is spent before
    # the dimension-4 sweep starts, one of 1396 inside it, and a clock
    # that jumps past the deadline after the dimension-3 sweep stops the
    # search there too; each way the verified bracket is [4, 5]
    real = search.omega_bounds(2, 3, 1)
    monkeypatch.setattr(search, "omega_bounds", lambda m, k, r: dataclasses
                        .replace(real, lower=3, exact=False))
    ticks = iter([0.0, 0.0, 10.0])
    monkeypatch.setattr(search, "time",
                        types.SimpleNamespace(monotonic=lambda: next(ticks)))
    code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "3",
                       "--r", "1", "--threads", "1", *limit, "--json")
    assert code == 3
    obj = json.loads(out)
    assert obj["bracket"] == [4, 5]
    assert [c["exhaustion"]["dimension"] for c in obj["certificates"]] == [3]


@pytest.mark.parametrize("lower, upper, message", [
    (3, 4, "the rules contradict the search"),
    (6, 6, "witness below the rule lower bound"),
])
def test_omega_rule_bracket_that_contradicts_the_search_exits_4(
        capsys, monkeypatch, lower, upper, message):
    # GF(4), k=3, r=1 is 5: a bracket below it ends the ascent without a
    # witness, and one above it finds a witness in the d - 1 sweep
    real = search.omega_bounds(2, 3, 1)
    monkeypatch.setattr(search, "omega_bounds", lambda m, k, r: dataclasses
                        .replace(real, lower=lower, upper=upper, exact=False))
    code, _, err = run(capsys, "omega", "--field", GF4, "--k", "3",
                       "--r", "1", "--threads", "1", "--json")
    assert code == EXIT_CHECK
    assert message in err


@pytest.mark.parametrize("budget", [1, 2, 35])
def test_omega_budget_spent_on_a_counted_dimension(capsys, budget):
    # GF(4), k=2, r=1: the witness at d = 3 costs 1 node, and d = 2 has
    # t = -1, so its 35 subspaces are counted, not scanned.  The budget
    # runs out before that count (1) or inside it (2, 35): the rules and
    # the witness still give [3, 3]
    code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "2",
                       "--r", "1", "--threads", "1", "--budget", str(budget),
                       "--json")
    assert code == 3
    obj = json.loads(out)
    assert obj["bracket"] == [3, 3]
    assert [(c["kind"], c["params"]["dimension"])
            for c in obj["certificates"]] == [("witness", 3)]
    code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "2",
                       "--r", "1", "--threads", "1", "--budget", "36",
                       "--json")
    assert code == 0
    assert json.loads(out)["exhaustion_certificate"]["exhaustion"][
        "total_visited"] == qbinom(2, 4, 2) == 35


def test_omega_deadline_checked_before_the_d_minus_1_sweep(capsys,
                                                           monkeypatch):
    # the clock passes the deadline after the witness at d = 3: the d - 1
    # sweep does not start, and the bracket is [3, 3]
    ticks = itertools.chain([0.0, 0.0], itertools.repeat(10.0))
    monkeypatch.setattr(search, "time",
                        types.SimpleNamespace(monotonic=lambda: next(ticks)))
    code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "2",
                       "--r", "1", "--threads", "1", "--time-budget", "1",
                       "--json")
    assert code == 3
    obj = json.loads(out)
    assert obj["bracket"] == [3, 3]
    assert [(c["kind"], c["params"]["dimension"])
            for c in obj["certificates"]] == [("witness", 3)]


def test_omega_deadline_stops_inside_a_sweep():
    # GF(32)/GF(2), k=3, r=1: d = 6 has t = 0 and is counted at once, and
    # the d = 7 sweep runs for minutes; a 2 s deadline ends it between two
    # of its units, with the bracket [7, 8] and nothing certified
    src = str(pathlib.Path(rankmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-m", "rankmin.cli", "omega", "--field",
         "p=2,e=1,m=5", "--k", "3", "--r", "1", "--threads", "1",
         "--time-budget", "2", "--json"],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 3, out.stderr
    obj = json.loads(out.stdout)
    assert obj["bracket"] == [7, 8] and obj["certificates"] == []


def test_census_budget_exit(capsys):
    # 21 codes to visit, one allowed
    code, out, _ = run(capsys, "census", "--field", GF4, "--n", "3",
                       "--k", "2", "--budget", "1", "--json")
    assert code == 3 and json.loads(out) == {"error": "budget-exceeded"}


def test_census_budget_text_claims_no_bracket(capsys):
    # a census has no bracket to report, and 21 is its code count
    code, out, _ = run(capsys, "census", "--field", GF4, "--n", "3",
                       "--k", "2", "--budget", "1")
    assert code == 3 and out.strip() == "budget exceeded"


def test_evasive_max_budget_text_claims_no_bracket(capsys):
    # the descent from d = 4 has verified no bracket when its budget is spent
    code, out, _ = run(capsys, "evasive-max", "--field", "p=2,m=2",
                       "--k", "2", "--h", "1", "--t", "1", "--budget", "15")
    assert code == 3 and out.strip() == "budget exceeded"


@pytest.mark.parametrize("t, budget, exit_code", [
    (2, 0, 3), (1, 15, 3), (1, 16, 3), (1, 17, 0)])
def test_evasive_max_checks_its_budget_before_each_dimension(
        capsys, t, budget, exit_code):
    # GF(4), k=2, h=1: for t = 2 the first unit at d = 4 holds a witness,
    # and for t = 1, d = 4 and d = 3 exhaust 1 + 15 subspaces before the
    # witness at d = 2.  A budget spent before a dimension stops there,
    # even when that dimension's first unit would hold the answer
    code, out, _ = run(capsys, "evasive-max", "--field", "p=2,m=2",
                       "--k", "2", "--h", "1", "--t", str(t),
                       "--budget", str(budget), "--json")
    assert code == exit_code
    if exit_code:
        assert json.loads(out) == {"error": "budget-exceeded"}
    else:
        assert json.loads(out)["max_dimension"] == 2


def test_verify_strict_exits_1_on_a_failing_suite(capsys, monkeypatch):
    def failing_guard(*args, **kwargs):
        raise CertificateError("guard failed")

    monkeypatch.setattr(suites, "subcode_weight", failing_guard)
    argv = ["verify", "--suite", "lemma21", "--trials", "12", "--seed", "3",
            "--json"]
    code, out, _ = run(capsys, *argv, "--strict")
    assert code == 1 and json.loads(out)["passed"] is False
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_cutting_json_carries_the_refuting_subspace(capsys):
    # S = span(e_1, e_2, e_3) taken at the first coordinate of each block:
    # dimension 3 with r = 1 gives (h, t) = (1, 0), and the first E-line
    # <e_1> already meets S in (1, 0, 0, 0, 0, 0)
    sub = {"level": "F", "ambient": 6,
           "rref_basis": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                          [0, 0, 0, 0, 1, 0]]}
    code, out, _ = run(capsys, "cutting", "--field", GF4, "--r", "1",
                       "--subspace", json.dumps(sub), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] is False and obj["route"] == "evasive"
    assert obj["refuting"] == {"level": "E", "ambient": 3, "dim": 1,
                               "rref_basis": [[1, 0, 0]]}


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--field", GF4, "--n", "3",
                       "--k", "2", "--r", "1", "--json")
    obj = json.loads(out)
    assert obj["counts"]["total"] == 21
    assert obj["counts"]["r_minimal"] == 14


def test_census_count_off_the_closed_form_exits_4(capsys, monkeypatch):
    # k = r + 1: the counted r-minimal codes must match count_r_minimal;
    # the first span, F^2 itself, is not cutting and holds 7 of the codes
    real = search.is_cutting
    calls = itertools.count()

    def flip_first(*args, **kwargs):
        verdict = real(*args, **kwargs)
        if next(calls) == 0:
            verdict.verdict = not verdict.verdict
        return verdict

    monkeypatch.setattr(search, "is_cutting", flip_first)
    code, out, err = run(capsys, "census", "--field", GF4, "--n", "3",
                         "--k", "2", "--r", "1", "--json")
    assert code == EXIT_CHECK and out == ""
    assert "closed form" in err and "Traceback" not in err


def test_census_shorter_than_k_has_no_codes_at_k_r_plus_1(capsys):
    # n < k: no codes, so nothing to hold against count_r_minimal, whose
    # own precondition is n >= r + 1
    code, out, _ = run(capsys, "census", "--field", GF4, "--n", "1",
                       "--k", "2", "--r", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"]["total"] == obj["counts"]["r_minimal"] == 0
    assert "r_minimal_formula" not in obj["formulas"]


def test_verify_command_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--suite", "grw-monotone",
                        "--trials", "20", "--seed", "7", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--suite", "grw-monotone",
                        "--trials", "20", "--seed", "7", "--json")
    assert out1 == out2  # byte-identical under fixed argv + seed
    assert json.loads(out1)["passed"] is True


def test_verify_empty_suite_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "empty", "--trials", "0",
                       "--json")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "grw", "--code", "not-a-file.json")
    assert code == 2
    code, _, _ = run(capsys, "definitely-not-a-command")
    assert code == 2


def _wt(code_obj):
    return ["wt", "--field", "p=2,e=1,m=2", "--code", json.dumps(code_obj)]


def _cutting(sub_obj):
    return ["cutting", "--field", "p=2,e=1,m=2", "--r", "1",
            "--subspace", json.dumps(sub_obj)]


def _subcode(command, sub_obj):
    return [command, "--code", json.dumps({"field": GF4, "n": 3, "k": 2,
                                           "rows": [[1, 0, 2], [0, 1, 1]]}),
            "--subcode", json.dumps(sub_obj), "--json"]


def _scan_shard(shards, index):
    return ["omega", "--field", GF4, "--k", "2", "--r", "1", "--scan-dim",
            "3", "--shards", str(shards), "--shard-index", str(index),
            "--threads", "1"]


F_SUB = {"level": "F", "ambient": 4, "rref_basis": [[1, 0, 0, 0]]}
# k < 1 is blamed on k, not on an r that no k < 1 admits
BAD_K_ARGV = ["omega", "--field", "p=2,e=1,m=3", "--k", "-1", "--r", "0",
              "--scan-dim", "0"]
# a census size below 0 is blamed on its own option, not on qbinom's names
BAD_CENSUS_K_ARGV = ["census", "--field", GF4, "--n", "3", "--k", "-1"]
BAD_CENSUS_N_ARGV = ["census", "--field", GF4, "--n", "-1", "--k", "2"]
DEEP_JSON = '{"a": ' + "[" * 20000 + "]" * 20000 + "}"
# a directory where a file is read or written
A_DIRECTORY = str(pathlib.Path(__file__).resolve().parent)


@pytest.mark.parametrize("argv", [
    _wt({"n": 3, "k": 2}),                                 # no rows
    _wt({"rows": [[1, 0, 2]]}),                            # no n
    _wt({"n": "3", "rows": [[1, 0, 2]]}),                  # n not an int
    _wt({"n": 3, "rows": [1, 0, 2]}),                      # rows not nested
    _wt({"n": 3, "rows": [[1, 0]]}),                       # short row
    _wt({"n": 3, "rows": [[1, 0, 4]]}),                    # element >= |E|
    _wt({"n": 3, "rows": [[1, 0, "2"]]}),                  # element a string
    ["wt", "--code", json.dumps({"field": 5, "n": 1, "rows": [[1]]})],
    _cutting({"level": "F"}),                              # no rref_basis
    _cutting(dict(F_SUB, level="X")),                      # unknown level
    _cutting(dict(F_SUB, ambient=None)),                   # ambient not int
    _cutting(dict(F_SUB, rref_basis=[[1, 0, 2, 0]])),      # element >= |F|
    _cutting(dict(F_SUB, rref_basis=[[1, 0]])),            # short row
    _scan_shard(4, 7),                                     # index past last
    _scan_shard(4, -1),                                    # negative index
    _scan_shard(0, 0),                                     # no shards
    ["field", "--field", "p=2,e=0,m=2"],                   # e = 0
    ["census", "--field", GF8, "--n", "4", "--k", "2", "--r", "-1"],
    ["evasive-max", "--field", GF4, "--k", "-2", "--h", "1", "--t", "1"],
    ["evasive-max", "--field", GF4, "--k", "0", "--h", "1", "--t", "1"],
    ["omega", "--field", "p=2,e=1,m=3", "--k", "3", "--r", "1",
     "--dim-cap", "5"],                                    # below lower 6
    ["omega", "--field", "p=2,e=1,m=3", "--k", "3", "--r", "1",
     "--dim-cap", "-1"],
    ["omega", "--field", GF4, "--k", "1", "--r", "-1", "--scan-dim", "1",
     "--threads", "1", "--json"],                          # r < 0
    ["verify", "--suite", "lemma21", "--trials", "-5", "--strict",
     "--json"],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--threads", "0"],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--threads", "-1"],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--budget", "-1"],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--time-budget", "-1"],
    ["evasive-max", "--field", GF4, "--k", "2", "--h", "1", "--t", "1",
     "--budget", "-3"],
    ["census", "--field", GF4, "--n", "3", "--k", "2", "--budget", "-1"],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--scan-dim", "-1",
     "--threads", "1"],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--scan-dim", "99",
     "--threads", "1"],
    # options of the other omega mode
    _scan_shard(1, 0) + ["--dim-cap", "1", "--json"],
    _scan_shard(1, 0) + ["--budget", "0", "--time-budget", "0"],
    _scan_shard(1, 0) + ["--cert-out", os.devnull],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--threads", "1",
     "--shards", "3", "--shard-index", "2", "--json"],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--threads", "1",
     "--shard-index", "0"],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--threads", "1",
     "--time-budget", "nan", "--json"],                    # never passes
    ["census", "--field", GF4, "--n", "3", "--k", "1",
     "--constant-weight", "1"],                            # needs k >= 2
    ["census", "--field", GF4, "--n", "3", "--k", "2",
     "--constant-weight", "2"],                            # r >= k
    ["census", "--field", GF4, "--n", "1", "--k", "2",
     "--constant-weight", "5"],                            # n < k: no codes
    ["count", "--q", "2", "--n", "3", "--r", "1", "--kind", "qbinom",
     "--m", "5"],
    ["count", "--q", "2", "--n", "3", "--r", "1", "--kind", "qdelta",
     "--m", "5"],
    ["count", "--q", "6", "--m", "2", "--n", "3", "--r", "1"],  # no GF(6)
    ["count", "--q", "2", "--m", "0", "--n", "3", "--r", "1"],
    BAD_K_ARGV,
    ["wt", "--field", GF4, "--code", A_DIRECTORY],
    ["cutting", "--field", GF4, "--r", "1", "--subspace", A_DIRECTORY],
    ["omega", "--field", GF4, "--k", "2", "--r", "1", "--threads", "1",
     "--cert-out", A_DIRECTORY],
    ["field", "--field", "p=3,e=2,m=2,ext=100,1,1"],       # coefficient >= q
    # B names a subcode only as an E-subspace of E^k (here k = 2)
    _subcode("maximal", {"level": "F", "ambient": 2, "rref_basis": [[1, 0]]}),
    _subcode("maximal", {"level": "E", "ambient": 3,
                         "rref_basis": [[1, 0, 0]]}),
    _subcode("rank-minimal", {"level": "F", "ambient": 2,
                              "rref_basis": [[1, 0]]}),
    _subcode("rank-minimal", {"level": "E", "ambient": 3,
                              "rref_basis": [[1, 0, 0]]}),
    # a JSON boolean is neither a width nor an element
    ["grw", "--code", json.dumps({"field": GF4, "n": True, "k": 1,
                                  "rows": [[1]]}), "--json"],
    _wt({"n": 2, "rows": [[True, False]]}),
    # JSON nested deeper than the decoder's stack
    ["wt", "--field", "p=2,m=2", "--code", DEEP_JSON],
    # a stated size must be the integer dimension that loads
    ["wt", "--code", json.dumps({"field": GF4, "n": 3, "k": 7,
                                 "rows": [[1, 0, 2]]}), "--json"],
    _wt({"n": 3, "k": True, "rows": [[1, 0, 2]]}),
    ["cutting", "--subspace", json.dumps({
        "field": "p=2,m=2", "level": "F", "ambient": 4, "dim": 9,
        "rref_basis": [[1, 0, 0, 0], [1, 0, 0, 0]]}), "--r", "0"],
    _cutting(dict(F_SUB, dim="1")),
    # r-minimal without --m
    ["count", "--q", "2", "--n", "3", "--r", "1", "--kind", "r-minimal"],
    ["count", "--q", "2", "--m", "2", "--n", "1", "--r", "1"],  # n < r + 1
    ["bounds", "--m", "0", "--k", "2", "--r", "1"],
    ["omega", "--field", "p=2,m=2", "--k", "2", "--r", "2"],  # k < r + 1
    BAD_CENSUS_K_ARGV,
    BAD_CENSUS_N_ARGV,
])
def test_malformed_wire_json_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    if argv is BAD_K_ARGV or argv is BAD_CENSUS_K_ARGV:
        assert "k=-1" in err
    if argv is BAD_CENSUS_N_ARGV:
        assert "n=-1" in err


def test_deep_json_from_a_file_or_stdin_exits_2(capsys, monkeypatch,
                                               tmp_path):
    # the inline, file and stdin inputs share one decode
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP_JSON))
    for value in (str(path), "-"):
        code, _, err = run(capsys, "wt", "--field", "p=2,m=2", "--code",
                           value)
        assert code == 2 and err == "error: JSON input is nested too deeply\n"


def test_stated_sizes_are_optional(capsys):
    # a code without k and a subspace without dim load as before (stated
    # sizes that match load throughout this file)
    code, out, _ = run(capsys, *_wt({"n": 3, "rows": [[1, 0, 2]]}), "--json")
    assert code == 0 and json.loads(out)["code"]["k"] == 1
    code, out, _ = run(capsys, *_cutting(F_SUB), "--json")
    assert code == 0 and json.loads(out)["verdict"] is False


def test_bounds_on_a_long_descent_chain(capsys):
    # w runs to 999, past the depth a recursive search could reach
    code, out, _ = run(capsys, "bounds", "--m", "2", "--k", "1000", "--r",
                       "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == obj["upper"] == 1999


def test_omega_sharded_scan_mode(capsys):
    total = 0
    witnesses = 0
    for idx in range(3):
        code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "2",
                           "--r", "1", "--scan-dim", "3", "--shards", "3",
                           "--shard-index", str(idx), "--threads", "1",
                           "--json")
        assert code == 0
        obj = json.loads(out)
        total += obj["visited"]
        if obj["witness"]:
            witnesses += 1
    assert total == 15  # bin_2(4, 3)
    assert witnesses >= 1  # dimension 3 does contain cutting sets


def test_verify_suite_at_reference_settings(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma21",
                       "--trials", "200", "--seed", "7", "--json")
    assert code == 0 and json.loads(out)["passed"] is True


def test_rankmin_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("RANKMIN_THREADS", "1")
    code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "2",
                       "--r", "1", "--json")
    assert code == 0 and json.loads(out)["value"] == 3


@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_rankmin_threads_env_must_be_a_positive_integer(capsys, monkeypatch,
                                                        value):
    # the --threads rule: an integer of at least 1, else exit 2
    monkeypatch.setenv("RANKMIN_THREADS", value)
    code, _, err = run(capsys, "omega", "--field", GF4, "--k", "2",
                       "--r", "1", "--json")
    assert code == 2
    assert err.startswith("error: RANKMIN_THREADS") and "Traceback" not in err


def test_rankmin_threads_env_empty_means_unset(capsys, monkeypatch):
    monkeypatch.setenv("RANKMIN_THREADS", "")
    code, out, _ = run(capsys, "omega", "--field", GF4, "--k", "2",
                       "--r", "1", "--json")
    assert code == 0 and json.loads(out)["value"] == 3


def test_census_weight_filter(capsys):
    code, out, _ = run(capsys, "census", "--field", GF4, "--n", "3",
                       "--k", "2", "--wt", "2", "--json")
    assert code == 0
    assert json.loads(out)["counts"]["with_weight"] == 7
