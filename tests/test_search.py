import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import rankmin
from rankmin.combinatorics import qbinom
from rankmin.fields import make_field
from rankmin.geometry import is_cutting, is_evasive
from rankmin.linalg import Subspace, enumerate_subspaces
from rankmin.search import (
    BudgetExceeded,
    _unit_list,
    census_codes,
    max_evasive_dim,
    omega_exhaustive,
    scan_dimension,
)

GF4 = make_field(2, 2, ext_poly=(1, 1, 1))
GF8 = make_field(2, 3, ext_poly=(1, 1, 0, 1))
GF9 = make_field(3, 2)


def test_omega_small_cases():
    res = omega_exhaustive(GF4, 2, 1)
    assert res.value == 3
    assert res.exhaustion_certificate.exhaustion["total_visited"] == \
        qbinom(2, 4, 2)
    res = omega_exhaustive(GF4, 3, 1)
    assert res.value == 5
    res = omega_exhaustive(GF8, 2, 1)
    assert res.value == 4
    assert res.exhaustion_certificate.exhaustion["total_visited"] == \
        qbinom(2, 6, 3)


def test_omega_r0_and_hyperplane_cases():
    assert omega_exhaustive(GF4, 2, 0).value == 2
    assert omega_exhaustive(GF4, 3, 2).value == 5  # r = k-1
    assert omega_exhaustive(GF9, 2, 1).value == 3  # q = 3 generic path


def test_omega_witness_recheckable_by_definition_route():
    res = omega_exhaustive(GF4, 3, 1)
    witness = Subspace.from_json(
        GF4, res.witness_certificate.witness)
    assert witness.dim == res.value
    assert is_cutting(GF4, 3, witness, 1, route="definition").verdict
    assert is_cutting(GF4, 3, witness, 1, route="prop21").verdict


def test_omega_respects_bounds():
    for tower, k, r in ((GF4, 2, 1), (GF4, 3, 1), (GF8, 2, 1), (GF9, 2, 1)):
        res = omega_exhaustive(tower, k, r)
        assert res.bounds_lower <= res.value <= res.bounds_upper
        m, rr = tower.m, r
        counting = m * rr + k * (rr + 1) - rr * rr - 2 * rr
        assert counting >= res.value


def test_scan_dimension_counts_and_shards():
    # exhaustive scan counts must match the q-binomial, shard or not
    total = 0
    for idx in range(3):
        res = scan_dimension(GF4, 2, 1, 2, stop_at_first=False,
                             shards=3, shard_index=idx)
        total += res.visited
    assert total == qbinom(2, 4, 2)
    full = scan_dimension(GF4, 2, 1, 2, stop_at_first=False)
    assert full.visited == qbinom(2, 4, 2)
    assert full.complete and full.witness is None


@pytest.mark.parametrize("tower, k, r, d, stop, shards, index, found", [
    (GF8, 2, 1, 4, True, 1, 0, True),            # generic kernel, q = 2
    (GF8, 3, 1, 5, True, 9, 4, False),           # GF(2) line kernel, exhausts
    (GF8, 3, 1, 6, True, 1, 0, True),            # GF(2) line kernel
    (GF9, 2, 1, 3, True, 1, 0, True),            # generic kernel, q = 3
    (GF4, 3, 1, 5, False, 2, 0, True),           # every unit, sharded
    (make_field(2, 3, basis=[1, 3, 7]), 3, 1, 6, True, 1, 0, True),
], ids=["generic-gf8", "q2-line-d5-shard", "q2-line-d6", "generic-gf9",
        "no-stop-sharded", "custom-basis"])
def test_scan_dimension_threads_deterministic(tower, k, r, d, stop, shards,
                                              index, found):
    a, b = (scan_dimension(tower, k, r, d, stop_at_first=stop,
                           threads=threads, shards=shards, shard_index=index)
            for threads in (1, 2))
    assert (a.visited, a.complete, a.witness) == \
        (b.visited, b.complete, b.witness)
    assert (a.witness is not None) == found


def test_unit_list_partitions_exactly():
    units = _unit_list(6, 3, 2)
    seen = {}
    for _, pivots, lo, hi in units:
        seen.setdefault(pivots, []).append((lo, hi))
    count = 0
    for pivots, ranges in seen.items():
        ranges.sort()
        assert ranges[0][0] == 0
        for (alo, ahi), (blo, bhi) in zip(ranges, ranges[1:]):
            assert ahi == blo
        count += sum(hi - lo for lo, hi in ranges)
    assert count == qbinom(2, 6, 3)


def test_budget_exceeded_brackets():
    with pytest.raises(BudgetExceeded) as err:
        omega_exhaustive(GF8, 3, 1, budget=1000)
    assert err.value.lower >= 5
    assert err.value.upper >= err.value.lower


def test_census_gf4_n3_k2():
    rep = census_codes(GF4, 3, 2, r=1)
    assert rep.counts["total"] == 21
    assert rep.counts["r_minimal"] == 14
    assert rep.counts["not_r_minimal"] == 7
    assert rep.formulas["r_minimal_formula"] == 14
    # weight-2 codes: one per 2-dim F-subspace of F^3 via support codes
    assert rep.counts["weight_distribution"][2] == 7
    assert rep.counts["weight_distribution"][3] == 14


def test_census_r0_vacuous():
    rep = census_codes(GF4, 3, 2, r=0)
    assert rep.counts["r_minimal"] == rep.counts["total"]


def test_census_weight2_codes_are_support_codes():
    from rankmin.rank_metric import RankCode, support_code, weight

    count = 0
    for sub in enumerate_subspaces(GF4, "F", 3, 2):
        mu = support_code(GF4, sub)
        assert weight(mu) == 2
        count += 1
    assert count == 7


def test_max_evasive_examples():
    dim, wit = max_evasive_dim(GF4, 2, 1, 1)
    assert dim == 2
    assert is_evasive(GF4, 2, wit, 1, 1)[0]
    dim, _ = max_evasive_dim(GF4, 2, 1, 2)
    assert dim == 4  # constraint vacuous
    dim, wit = max_evasive_dim(GF4, 2, 2, 4)
    assert dim == 4  # h = k with t = km


def test_max_evasive_no_witness():
    # (k, t)-evasive with t < k cannot even span
    dim, wit = max_evasive_dim(GF4, 2, 2, 1)
    assert dim is None and wit is None


def test_certificate_json_shape():
    res = omega_exhaustive(GF4, 2, 1)
    obj = res.to_json()
    assert obj["value"] == 3
    wc = obj["witness_certificate"]
    assert wc["kind"] == "witness" and wc["schema_version"] == 1
    assert wc["enum_order"] == "subspace-enum/1"
    ec = obj["exhaustion_certificate"]
    assert ec["exhaustion"]["counterexample_free"] is True


def test_census_formula_agreement_gf9():
    rep = census_codes(GF9, 3, 2, r=1)
    assert rep.counts["total"] == qbinom(9, 3, 2) == 91
    assert rep.counts["r_minimal"] == rep.formulas["r_minimal_formula"]
    from rankmin.combinatorics import count_r_minimal
    assert rep.formulas["r_minimal_formula"] == count_r_minimal(3, 2, 3, 1)


def test_witness_guard_survives_python_optimize():
    # python -O strips assert statements; the re-verification of a witness
    # must still refuse to certify when the decider rejects it.
    script = textwrap.dedent("""
        from rankmin import search
        from rankmin.fields import make_field
        from rankmin.geometry import CuttingVerdict
        from rankmin.linalg import CertificateError

        search.is_cutting = lambda *args, **kw: CuttingVerdict(False, "stub")
        gf4 = make_field(2, 2, ext_poly=(1, 1, 1))
        try:
            res = search.omega_exhaustive(gf4, 3, 1)
        except CertificateError as err:
            print("refused:", err)
        else:
            print("certified:", res.value)
    """)
    src = str(pathlib.Path(rankmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == \
        "refused: witness failed re-verification"


def test_subcode_weight_census_feeds_psi_bound():
    from fractions import Fraction

    from rankmin.combinatorics import psi_bounds
    from rankmin.search import subcode_weight_census

    counts = subcode_weight_census(GF4, 3, 1)
    assert counts == {1: 7, 2: 14}
    rep = psi_bounds(2, 2, 3, 2, 1, 2, psi_t=7, weight_counts=counts)
    assert rep.weight_census_bound == Fraction(14)
    # the census bound really dominates the exact count of non-minimal codes
    census = census_codes(GF4, 3, 2, r=1)
    assert census.counts["not_r_minimal"] <= rep.weight_census_bound


def test_census_constant_weight_matches_full_weight():
    # constant r-dim weight <=> wt(C) = mk, so the counts must coincide
    rep = census_codes(GF4, 4, 2, r=1, constant_weight_r=1)
    wd = rep.counts["weight_distribution"]
    assert rep.counts["constant_weight"] == wd.get(4, 0)
    assert rep.counts["constant_weight"] > 0
