import json

import pytest

from rankmin.cli import run_command

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
    assert json.loads(out)["error"] == "budget-exceeded"


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--field", GF4, "--n", "3",
                       "--k", "2", "--r", "1", "--json")
    obj = json.loads(out)
    assert obj["counts"]["total"] == 21
    assert obj["counts"]["r_minimal"] == 14


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


def _scan_shard(shards, index):
    return ["omega", "--field", GF4, "--k", "2", "--r", "1", "--scan-dim",
            "3", "--shards", str(shards), "--shard-index", str(index),
            "--threads", "1"]


F_SUB = {"level": "F", "ambient": 4, "rref_basis": [[1, 0, 0, 0]]}


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
])
def test_malformed_wire_json_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


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


def test_census_weight_filter(capsys):
    code, out, _ = run(capsys, "census", "--field", GF4, "--n", "3",
                       "--k", "2", "--wt", "2", "--json")
    assert code == 0
    assert json.loads(out)["counts"]["with_weight"] == 7
