"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------------------
# Self time.
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    # 0: [0, 10] root; 1: [1, 4] and 2: [3, 6] children of 0 (overlapping,
    # so their union covers 5); 3: [2, 3] child of 1; 4: [9, 12] child of
    # 0 sticking out of it (only [9, 10] counts)
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_summary_aggregates_variants_and_values():
    rec = spans.Recorder()
    outer = rec.enter(rec.name_id("geometry.is_cutting"))
    inner = rec.enter(rec.name_id("geometry.is_evasive"))
    rec.leave(inner)
    rec.label(inner, "geometry.is_evasive", 1.0)
    rec.leave(outer)
    rec.label(outer, "geometry.is_cutting.evasive", 0.0)
    rec.end[outer] = rec.start[outer] + 2.0
    rec.end[inner] = rec.start[inner] + 0.5
    dump = {"names": rec.names, "calls": dict(rec.calls),
            "name": rec.name, "start": rec.start, "end": rec.end,
            "parent": rec.parent, "job": rec.job, "value": rec.value}
    s = spans.SpanSummary([dump])
    assert s.sum_calls("geometry.is_cutting") == 1
    assert math.isclose(s.sum_self("geometry.is_cutting"), 1.5)
    assert s.share("geometry.is_evasive") == 1.0
    assert s.share("geometry.is_cutting.evasive") == 0.0
    assert s.children_of("geometry.is_cutting", "geometry.is_evasive") == 1


def test_span_file_round_trip(tmp_path):
    rec = spans.Recorder()
    idx = rec.enter(rec.name_id("linalg.rref"))
    rec.leave(idx)
    rec.label(idx, "linalg.rref", spans.NO_VALUE)
    path = str(tmp_path / "spans.bin")
    rec.write(path)
    dump = spans.load(path)
    assert dump["names"] == ["linalg.rref"]
    assert dump["calls"] == {"linalg.rref": 1}
    assert list(dump["parent"]) == [-1]
    assert math.isnan(dump["value"][0])


def test_traced_job_sees_calls_through_imported_names(tmp_path):
    # 9 candidates: pivot set (0, 3, 4, 5) of F_3^6 has 2 free cells.
    cmd = ["omega", "--field", inputs.field_spec(3, 2, 0), "--k", "3",
           "--r", "1", "--scan-dim", "4", "--shards", "15",
           "--shard-index", "9", "--threads", "1", "--json"]
    spec = {"commands": [cmd], "status_file": str(tmp_path / "status"),
            "trace_file": str(tmp_path / "spans"), "setup_only": False}
    (tmp_path / "spec").write_text(json.dumps(spec))
    out = subprocess.run([sys.executable, run.CHILD, str(tmp_path / "spec")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["visited"] == 9 == inputs.shard_visits(
        3, 6, 4, 15, 9)
    s = spans.SpanSummary([spans.load(spec["trace_file"])])
    # is_cutting is called through search's binding, is_evasive through
    # geometry's, flatten_subspace through geometry's
    assert s.calls["search.scan_dimension.generic_q3"] == 1
    assert s.calls["geometry.is_cutting.evasive"] == 9
    assert s.calls["geometry.is_evasive"] == 9
    assert s.calls["linalg.flatten_subspace"] >= 9
    metrics = layers.span_metrics(s)
    assert set(metrics) <= set(layers.PER_LAYER_UNITS)
    assert metrics["linalg.flatten_subspace.per_candidate"] == (
        s.calls["linalg.flatten_subspace"] / 9)


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def _scan_output(**change):
    obj = {"dimension": 4, "shard_index": 1, "shards": 8,
           "visited": 1458, "witness": None}
    obj.update(change)
    return json.dumps(obj, sort_keys=True) + "\n"


def test_oracle_constants_match_closed_forms():
    assert inputs.OMEGA_Q2_EXHAUSTED == 3309747
    assert inputs.SCAN_Q3_VISITED == 1458
    assert inputs.CENSUS_Q8_TOTAL == 4745


def test_scan_oracle_rejects_tampered_output():
    cmds = inputs.commands("scan-q3", 0)
    assert inputs.check_job("scan-q3", 0, cmds, _scan_output(), [0]) == []
    bad = inputs.check_job("scan-q3", 0, cmds, _scan_output(visited=1457),
                           [0])
    assert bad and "visited" in bad[0]
    assert inputs.check_job("scan-q3", 0, cmds,
                            _scan_output(witness={"dim": 4}), [0])
    assert inputs.check_job("scan-q3", 0, cmds, _scan_output(), [2])
    assert inputs.check_job("scan-q3", 0, cmds, "", [0])


def test_census_oracle_rejects_tampered_output():
    cmds = inputs.commands("census-q8", 0)
    good = {"counts": {"total": 4745, "r_minimal": 3720,
                       "weight_distribution": {"2": 35, "3": 990,
                                               "4": 3720}},
            "formulas": {"total_formula": 4745, "r_minimal_formula": 3720}}
    assert inputs.check_job("census-q8", 0, cmds, json.dumps(good),
                            [0]) == []
    bad = json.loads(json.dumps(good))
    bad["counts"]["weight_distribution"]["3"] = 989
    assert inputs.check_job("census-q8", 0, cmds, json.dumps(bad), [0])
    bad = json.loads(json.dumps(good))
    bad["formulas"]["r_minimal_formula"] = 3721
    assert inputs.check_job("census-q8", 0, cmds, json.dumps(bad), [0])


def test_omega_oracle_rejects_wrong_value_and_missing_certificate():
    cmds = inputs.commands("omega-q2", 0)
    obj = {"value": 7, "exhaustion_certificate": {"exhaustion": {
        "dimension": 6, "total_visited": 3309747}}}
    errors = inputs.check_job("omega-q2", 0, cmds, json.dumps(obj), [0])
    assert any(e.startswith("value") for e in errors)
    assert "no certificate file written" in errors
    assert "no witness in the witness certificate" in errors


def test_verify_oracle_rejects_a_failed_suite():
    cmds = inputs.commands("verify-mix", 0)
    names = [c[c.index("--suite") + 1] for c in cmds]
    lines = [json.dumps({"suite": n, "passed": True}) for n in names]
    assert inputs.check_job("verify-mix", 0, cmds, "\n".join(lines),
                            [0] * len(cmds)) == []
    lines[3] = json.dumps({"suite": names[3], "passed": False})
    assert inputs.check_job("verify-mix", 0, cmds, "\n".join(lines),
                            [0] * len(cmds))


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------


def test_irreducible_moduli_counts():
    # number of monic irreducibles of degree m over GF(p)
    assert len(inputs.irreducible_moduli(2, 2)) == 1
    assert len(inputs.irreducible_moduli(2, 3)) == 2
    assert len(inputs.irreducible_moduli(3, 2)) == 3
    assert len(inputs.irreducible_moduli(2, 4)) == 3


def test_seed_to_argv_is_deterministic():
    for workload in inputs.WORKLOADS:
        for seed in (0, 1, 2, 5, 12345):
            assert (inputs.commands(workload, seed)
                    == inputs.commands(workload, seed))
    assert inputs.commands("census-q8", 0) != inputs.commands("census-q8", 1)
    assert inputs.commands("scan-q3", 0) == inputs.commands("scan-q3", 3)
    fields = {c[c.index("--field") + 1]
              for seed in range(6) for c in inputs.commands("scan-q3", seed)}
    assert len(fields) == 3


def test_omega_threads_override():
    argv = inputs.commands("omega-q2", 0, threads=1)[0]
    assert argv[argv.index("--threads") + 1] == "1"
    argv = inputs.commands("omega-q2", 0)[0]
    assert argv[argv.index("--threads") + 1] == "2"


# ---------------------------------------------------------------------------
# BENCHMARK.json and the driver.
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_driver():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.PER_LAYER


def test_driver_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-q3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

