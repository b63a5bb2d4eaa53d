"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Tolerances are exact integer equality / zero disagreements
throughout; the two timed criteria assert their wall-clock budgets
(10 minutes for the big exhaustive sweep, 1 minute for the census
cross-check).

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import random
import time
from fractions import Fraction

import pytest

from rankmin.combinatorics import (
    corollary_52_bound,
    count_r_minimal,
    omega_bounds,
    product_tail_lower,
    qbinom,
    rank_count_upper,
)
from rankmin.fields import make_field
from rankmin.geometry import is_cutting, is_evasive
from rankmin.linalg import Subspace, enumerate_subspaces
from rankmin.minimality import dual_criterion_applicable, is_r_minimal
from rankmin.rank_metric import (
    RankCode,
    chi_code,
    max_subcode_weight,
    subcode_spaces,
    weight,
)
from rankmin.search import census_codes, max_evasive_dim, omega_exhaustive
from rankmin.suites import random_code, run_suite

GF4 = make_field(2, 2, ext_poly=(1, 1, 1))
GF8 = make_field(2, 3, ext_poly=(1, 1, 0, 1))
GF9 = make_field(3, 2)

THREADS = os.cpu_count() or 1


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {criterion}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.mark.slow
def test_criterion_1_omega_closed_forms():
    t0 = time.monotonic()
    results = {}
    for tower, k, r, expect in ((GF4, 2, 1, 3), (GF8, 2, 1, 4),
                                (GF4, 3, 1, 5), (GF8, 3, 1, 6)):
        res = omega_exhaustive(tower, k, r, threads=THREADS)
        results[(tower.order, k)] = res
        assert res.value == expect, (tower.order, k, res.value)
    big = results[(8, 3)]
    assert big.exhaustion_certificate["exhaustion"]["total_visited"] == 3309747
    assert big.exhaustion_certificate["exhaustion"]["dimension"] == 5
    elapsed = time.monotonic() - t0
    _report("1 omega closed forms", elapsed < 600,
            f"values 3/4/5/6, 3309747 five-dim subspaces swept, "
            f"{elapsed:.1f}s on {THREADS} threads")


def test_criterion_2_counting_formula():
    t0 = time.monotonic()
    rep_small = census_codes(GF4, 3, 2, r=1)
    assert count_r_minimal(2, 2, 3, 1) == 14
    assert rep_small.counts["r_minimal"] == 14
    assert rep_small.counts["not_r_minimal"] == 7  # psi(2,1)
    rep_big = census_codes(GF8, 4, 2, r=1)
    assert rep_big.counts["total"] == 4745 == qbinom(8, 4, 2)
    assert count_r_minimal(2, 3, 4, 1) == 3720
    assert rep_big.counts["r_minimal"] == 3720
    elapsed = time.monotonic() - t0
    _report("2 counting formula", elapsed < 60,
            f"14/7 and 3720 of 4745, {elapsed:.1f}s")


def test_criterion_3_criterion_equivalence():
    disagreements = 0
    checked = 0
    for tower, n, k in ((GF4, 3, 2), (GF8, 4, 2)):
        for sub in enumerate_subspaces(tower, "E", n, k):
            code = RankCode(tower, n, sub.rows)
            r = 1
            methods = ["grw", "cutting", "definition"]
            if dual_criterion_applicable(code, r):
                methods.append("dual")
            verdicts = {mth: is_r_minimal(code, r, mth).verdict
                        for mth in methods}
            checked += 1
            if len(set(verdicts.values())) != 1:
                disagreements += 1
    _report("3 criterion equivalence", disagreements == 0,
            f"{checked} codes (21 + 4745), {disagreements} disagreements")


def test_criterion_4_max_subcode_weight():
    failures = 0
    checked = 0
    for tower in (GF4, GF8, GF9):
        rng = random.Random(20240 + tower.order)
        for _ in range(200):
            code = random_code(tower, rng, n_max=4, k_max=4)
            m = tower.m
            for s in range(code.k + 1):
                val, wit = max_subcode_weight(code, s)
                checked += 1
                ok = (val == min(m * s, weight(code))
                      and wit.k == s and chi_code(wit).dim == val)
                if not ok:
                    failures += 1
    _report("4 max subcode weight", failures == 0,
            f"{checked} (code, s) pairs, {failures} failures")


def _threeway_disagrees(tower, k, sub, r) -> bool:
    verdicts = {is_cutting(tower, k, sub, r, route=rt).verdict
                for rt in ("definition", "prop21", "evasive")}
    return len(verdicts) != 1


def test_criterion_5_cutting_threeway():
    disagreements = 0
    checked = 0
    # every F-subspace of GF(4)^[2], all dimensions
    for d in range(5):
        for sub in enumerate_subspaces(GF4, "F", 4, d):
            for r in range(2):
                checked += 1
                if _threeway_disagrees(GF4, 2, sub, r):
                    disagreements += 1
    # 500 seeded random subspaces in each of GF(8)^[2] and GF(4)^[3]
    for tower, k, seed in ((GF8, 2, 501), (GF4, 3, 502)):
        rng = random.Random(seed)
        ambient = k * tower.m
        for _ in range(500):
            dim = rng.randrange(0, ambient + 1)
            vecs = [tuple(rng.randrange(tower.q) for _ in range(ambient))
                    for _ in range(dim)]
            sub = Subspace.span(tower, "F", ambient, vecs)
            r = rng.randrange(0, k)
            checked += 1
            if _threeway_disagrees(tower, k, sub, r):
                disagreements += 1
    _report("5 cutting three-way agreement", disagreements == 0,
            f"{checked} (subspace, r) pairs, {disagreements} disagreements")


def test_criterion_6_invariant_suites():
    suites = ["lemma21", "cor21", "grw-monotone", "cor31-singleton",
              "cor32", "cor33", "prop31", "lemma23", "prop42", "cor42",
              "thm46-constant-weight"]
    failed = []
    for name in suites:
        report = run_suite(name, trials=200, seed=7)
        if not report.passed:
            failed.append(name)
        assert sum(r.instances for r in report.results) > 0, name
    _report("6 invariant suites", not failed,
            f"{len(suites)} suites at 200 trials"
            + (f"; failed: {failed}" if failed else ""))


def test_criterion_7_exact_inequalities():
    failures = 0
    checked = 0
    for a in (2, 3, 4, 8):
        for n in range(13):
            checked += 1
            if not product_tail_lower(Fraction(a), n).holds:
                failures += 1
    for a in (2, 3, 4, 8):
        for m in range(1, 6):
            for n in range(1, 6):
                for h in range(1, min(m, n) + 1):
                    checked += 1
                    if not rank_count_upper(Fraction(a), m, n, h).holds:
                        failures += 1
    _report("7 exact inequalities", failures == 0,
            f"{checked} exact rational checks, {failures} failures")


@pytest.mark.slow
def test_criterion_8_bound_sandwich():
    bad = []
    solved = [(GF4, 2, 1), (GF8, 2, 1), (GF4, 3, 1), (GF9, 2, 1),
              (GF4, 2, 0), (GF4, 3, 2)]
    for tower, k, r in solved:
        res = omega_exhaustive(tower, k, r, threads=THREADS)
        b = omega_bounds(tower.m, k, r)
        if not b.lower <= res.value <= b.upper:
            bad.append(("sandwich", tower.order, k, r))
        counting = tower.m * r + k * (r + 1) - r * r - 2 * r
        if counting < res.value:
            bad.append(("counting-upper", tower.order, k, r))
    # evasive maxima against their caps
    for tower, k, h, t in ((GF4, 2, 1, 1), (GF4, 2, 1, 2), (GF8, 2, 1, 1),
                           (GF4, 2, 2, 4)):
        dim, wit = max_evasive_dim(tower, k, h, t)
        if dim is None:
            continue
        m = tower.m
        if t == h and dim >= k + 1 and dim > k * m // (h + 1):
            bad.append(("scattered-cap", tower.order, k, h, t))
        lam = k - h
        s = 2 * k - lam - t
        cap = corollary_52_bound(m, k, lam, s)
        if cap is not None and dim > cap:
            bad.append(("corollary-cap", tower.order, k, h, t))
    _report("8 bound sandwich", not bad,
            f"{len(solved)} solved instances + 4 evasive maxima"
            + (f"; failures: {bad}" if bad else ""))


def test_computed_row_omega_gf16_k3_r1():
    # computed, not in the paper: the rules only bracket omega(4, 3, 1)
    # over GF(2) in [6, 7]; the witness is pinned from the search's output
    gf16 = make_field(2, 4, ext_poly=(1, 0, 0, 1, 1))
    t0 = time.monotonic()
    res = omega_exhaustive(gf16, 3, 1, threads=THREADS)
    elapsed = time.monotonic() - t0
    assert (res.value, res.bounds_lower, res.bounds_upper) == (6, 6, 7)
    assert res.paper_verified is False
    assert res.visited_total == 114496143208
    exhaustion = res.exhaustion_certificate["exhaustion"]
    assert exhaustion["dimension"] == 5
    assert exhaustion["total_visited"] == qbinom(2, 12, 5)
    witness = res.witness_certificate["witness"]
    assert witness["rref_basis"] == [
        [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]]
    sub = Subspace.from_json(gf16, witness)
    _report("computed row GF(16)/GF(2) k=3 r=1",
            is_cutting(gf16, 3, sub, 1, route="definition").verdict,
            f"omega 6 in [6, 7], {res.visited_total} subspaces visited, "
            f"{elapsed:.1f}s on {THREADS} threads")
