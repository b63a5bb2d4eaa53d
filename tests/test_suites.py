import json

import pytest

from rankmin import geometry, minimality, suites
from rankmin.cli import build_parser, run_command
from rankmin.fields import make_field
from rankmin.linalg import CertificateError
from rankmin.suites import UnknownSuite, run_suite, suite_names

# (property, instances) of every suite at trials=12, seed=3: pins each
# suite's rng tags and trial split.
INSTANCES_12_3 = {
    "cor21": [("upper", 12), ("equality-iff-full", 12), ("subcode-dims", 12)],
    "cor31-singleton": [("bound", 26), ("equality-case", 26)],
    "cor32": [("restriction", 4)],
    "cor33": [("downward", 12)],
    "cor42": [("big-dim-cuts", 6), ("codim-m-case", 6),
              ("cutting-dim-bound", 6)],
    "counting": [("enumeration", 135), ("pascal", 135)],
    "criteria-agreement": [("four-way", 12)],
    "cutting-threeway": [("three-way", 15)],
    "empty": [],
    "expand-linear": [("linear", 36), ("reconstruct", 36)],
    "field-axioms": [("mul-assoc", 36), ("distrib", 36), ("inverse", 36)],
    "grw-monotone": [("strict", 12)],
    "lemma21": [("dual-intersection", 12), ("weight-from-dual", 12),
                ("column-span-weight", 12), ("subcode-weight-formula", 12)],
    "lemma22": [("full-support", 12)],
    "lemma23": [("h-le-t", 5), ("parameter-drop", 5), ("quotient", 5)],
    "maximality": [("equivalence", 0)],
    "prop31": [("constant-implies-minimal", 12)],
    "prop42": [("lower-bound", 6)],
    "rank-support-basics": [("scalar-invariance", 36),
                            ("basis-invariance", 36)],
    "thm32-eight-conditions": [("eight-way", 3)],
    "thm41-max-weight": [("value", 12), ("witness", 12)],
    "thm46-constant-weight": [("three-way", 12)],
    "weierstrass": [("product-lower", 52), ("rank-count-upper", 220)],
}


def test_all_suites_registered_and_pass_briefly():
    assert suite_names() == sorted(INSTANCES_12_3)
    for name in suite_names():
        report = run_suite(name, trials=12, seed=3)
        assert report.passed, (name, [r.to_json() for r in report.results
                                      if not r.passed])
        assert [(r.name, r.instances) for r in report.results] \
            == INSTANCES_12_3[name], name


def test_agreement_failures_carry_runnable_recheck(monkeypatch):
    real_cutting, real_minimal = geometry.is_cutting, minimality.is_r_minimal

    def lying_cutting(tower, k, s, r, route="evasive"):
        verdict = real_cutting(tower, k, s, r, route)
        if route == "prop21":
            verdict.verdict = not verdict.verdict
        return verdict

    def lying_minimal(code, r, method="grw"):
        verdict = real_minimal(code, r, method)
        if method == "definition":
            verdict.verdict = not verdict.verdict
        return verdict

    for module in (geometry, suites):
        monkeypatch.setattr(module, "is_cutting", lying_cutting)
    for module in (minimality, suites):
        monkeypatch.setattr(module, "is_r_minimal", lying_minimal)
    parser = build_parser()
    for name, flag, key in (("cutting-threeway", "subspace", "s"),
                            ("criteria-agreement", "code", "code")):
        [result] = run_suite(name, trials=12, seed=3).results
        cx = result.counterexample
        assert not result.passed and "disagree" in cx["error"], name
        args = parser.parse_args(cx["recheck"])
        assert args.field == cx["field"]
        assert json.loads(getattr(args, flag)) == cx[key]
        # the argv reproduces the disagreement through the CLI
        with pytest.raises(CertificateError):
            run_command(cx["recheck"])


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite")


def test_zero_trials_vacuous():
    report = run_suite("grw-monotone", trials=0, seed=1)
    assert report.passed and report.results == []


def test_deterministic_under_seed():
    a = run_suite("criteria-agreement", trials=10, seed=11)
    b = run_suite("criteria-agreement", trials=10, seed=11)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


def test_custom_tower_list():
    towers = [make_field(2, 2, ext_poly=(1, 1, 1))]
    report = run_suite("field-axioms", trials=30, seed=5, towers=towers)
    assert report.passed
    assert sum(r.instances for r in report.results) == 90  # 3 properties x 30


def test_timing_excluded_from_json_by_default():
    report = run_suite("empty", trials=1, seed=0)
    obj = report.to_json()
    assert "wall_time_ms" not in obj
    obj_timed = report.to_json(include_timing=True)
    assert "wall_time_ms" in obj_timed
