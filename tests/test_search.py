import itertools
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

import rankmin
from rankmin import search, suites
from rankmin.cli import run_command
from rankmin.combinatorics import qbinom
from rankmin.fields import int_to_digits, make_field
from rankmin.geometry import cutting_evasive_params, is_cutting, is_evasive
from rankmin.linalg import (Subspace, enumerate_subspaces, free_cells,
                            mat_vec, unflatten_vector, walk_fills)
from rankmin.search import (
    BudgetExceeded,
    _units,
    census_codes,
    max_evasive_dim,
    omega_exhaustive,
    scan_dimension,
)

GF4 = make_field(2, 2, ext_poly=(1, 1, 1))
GF8 = make_field(2, 3, ext_poly=(1, 1, 0, 1))
GF9 = make_field(3, 2)
GF16_OVER_GF4 = make_field(2, 2, e=2)


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
    assert omega_exhaustive(GF9, 2, 1).value == 3  # q = 3, h = 0: no filter


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
    assert full.witness is None


@pytest.mark.parametrize("tower, k, r, d, stop, shards, index, found", [
    (GF8, 2, 1, 4, True, 1, 0, True),            # h = 0: no filter, q = 2
    (GF8, 3, 1, 5, True, 9, 4, False),           # GF(2) line filter, exhausts
    (GF8, 3, 1, 6, True, 1, 0, True),            # GF(2) line filter
    (GF9, 2, 1, 3, True, 1, 0, True),            # h = 0: no filter, q = 3
    (GF4, 3, 1, 5, False, 2, 0, True),           # every unit, sharded
    (make_field(2, 3, basis=[1, 3, 7]), 3, 1, 6, True, 1, 0, True),
    (GF9, 3, 1, 4, True, 8, 1, False),           # line filter, p = 3
    (GF16_OVER_GF4, 3, 1, 5, True, 1, 0, True),  # line filter, e = 2
], ids=["generic-gf8", "q2-line-d5-shard", "q2-line-d6", "generic-gf9",
        "no-stop-sharded", "custom-basis", "line-gf9",
        "line-gf16-over-gf4"])
def test_scan_dimension_threads_deterministic(tower, k, r, d, stop, shards,
                                              index, found):
    a, b = (scan_dimension(tower, k, r, d, stop_at_first=stop,
                           threads=threads, shards=shards, shard_index=index)
            for threads in (1, 2))
    assert (a.visited, a.witness) == (b.visited, b.witness)
    assert (a.witness is not None) == found


def test_unit_list_partitions_exactly():
    units = _units(6, 3, 2)
    seen = {}
    for pivots, lo, hi in units:
        seen.setdefault(pivots, []).append((lo, hi))
    count = 0
    for pivots, ranges in seen.items():
        ranges.sort()
        assert ranges[0][0] == 0
        for (alo, ahi), (blo, bhi) in zip(ranges, ranges[1:]):
            assert ahi == blo
        count += sum(hi - lo for lo, hi in ranges)
    assert count == qbinom(2, 6, 3)


def test_units_are_lazy():
    # 2^44 fills on the first pivot set alone: the first units come at once
    units = _units(24, 2, 2, shards=1000, shard_index=0)
    assert list(itertools.islice(units, 2)) == [
        ((0, 1), 0, 1 << 16), ((0, 1), 1 << 16, 2 << 16)]


def _no_unit(*args, **kwargs):
    raise AssertionError("a unit was built on a dimension nothing passes")


def test_lemma_dimensions_build_no_unit(monkeypatch):
    # t < min(h, 1) or d < k: no candidate can pass, so the dimension is
    # counted per pivot set without a unit
    for name in ("_units", "_scan_unit"):
        monkeypatch.setattr(search, name, _no_unit)
    # GF(32), k=3, r=1, d=6: (h, t) = (1, 0), 6.1e16 candidates
    res = scan_dimension(make_field(2, 5), 3, 1, 6)
    assert (res.visited, res.witness) == (qbinom(2, 15, 6), None)
    # d < k with a vacuous t, at h = 2
    res = search._scan_evasive(GF4, 3, 2, 6, 2, stop_at_first=False)
    assert (res.visited, res.witness) == (qbinom(2, 6, 2), None)
    # h = 0, t = -1: the zero E-subspace already meets S in 0 > t
    res = search._scan_evasive(GF8, 2, 0, -1, 3)
    assert (res.visited, res.witness) == (qbinom(2, 6, 3), None)


def test_lemma_dimension_shards_count_their_units():
    # GF(8), k=3, r=1, d=4 has t = 0: each shard's total is the fills of
    # its own units, and the shards add up to the q-binomial
    totals = []
    for idx in range(5):
        res = scan_dimension(GF8, 3, 1, 4, stop_at_first=False, threads=2,
                             shards=5, shard_index=idx)
        assert res.witness is None
        assert res.visited == sum(hi - lo for _, lo, hi
                                  in _units(9, 4, 2, 5, idx))
        totals.append(res.visited)
    assert sum(totals) == qbinom(2, 9, 4)


def _check_line_kernel(tower, k, r, d, per_pivot_set, pivot_step):
    """Run the line-filtered scan unit over a sample of candidates, resuming
    after each witness, and compare every verdict with the definition
    route.  Returns the number of cutting candidates seen."""
    table = search._line_table(tower, k)
    ambient = k * tower.m
    h, t = cutting_evasive_params(tower.m, k, r, d)
    assert t >= 1, "t <= 0 is settled by _scan_evasive before any unit"
    cutting = 0
    pivot_sets = itertools.combinations(range(ambient), d)
    for pivots in itertools.islice(pivot_sets, 0, None, pivot_step):
        cells = free_cells(pivots, ambient)
        x, hi = 0, min(tower.q ** len(cells), per_pivot_set)
        while x < hi:
            visited, rows = search._scan_unit(
                tower, k, h, t, table, pivots, x, hi, stop_at_first=True)
            assert visited == hi - x or rows is not None
            candidates = walk_fills(pivots, ambient, tower.q, x, x + visited)
            for fill, cand in enumerate(candidates, x):
                sub = Subspace(tower, "F", ambient, cand, pivots)
                found = rows is not None and fill == x + visited - 1
                assert is_cutting(tower, k, sub, r,
                                  route="definition").verdict == found
                if found:
                    # the filter's packed odometer reached the walk's fill
                    assert rows == sub.rows
                    cutting += 1
            x += visited
    return cutting


@pytest.mark.parametrize("tower", suites.default_towers() + [
    GF16_OVER_GF4, make_field(5, 2), make_field(3, 2, e=2),
    make_field(2, 3, basis=[1, 3, 7]), make_field(3, 2, basis=[2, 4])],
    ids=["gf4", "gf8", "gf9", "gf16-over-gf4", "gf25", "gf81-over-gf9",
         "gf8-basis", "gf9-basis"])
def test_line_kernel_agrees_with_definition(tower):
    m, q = tower.m, tower.q
    cutting = 0
    # a unit runs where t >= 1; t <= 0 never reaches one, and the
    # enumeration-oracle and lemma tests cover those rows
    # k = 2, r = 0: t = d - 1 runs from 1 (d = 2) to t >= m (d = 2m)
    for d in range(2, 2 * m + 1):
        cutting += _check_line_kernel(tower, 2, 0, d, 12, 1)
    # k = 3, r = 1: t = d - m - 1 in (0, m) and >= m
    if q ** (3 * m) <= 1024:
        for d in (2 * m, 2 * m + 1, 3 * m):
            cutting += _check_line_kernel(tower, 3, 1, d, 2, 7)
    assert cutting > 0


@pytest.mark.parametrize("tower", [
    GF8, GF9, make_field(3, 2, basis=[2, 4]), GF16_OVER_GF4],
    ids=["gf8", "gf9", "gf9-basis", "gf16-over-gf4"])
@pytest.mark.parametrize("k", [2, 3])
def test_line_table_partitions_into_e_lines(tower, k):
    table = search._line_table(tower, k)
    big_q, m = tower.order, tower.m

    def packed(vec):
        return sum(table.pack(tower.to_coords(x), j * m)
                   for j, x in enumerate(vec))

    members = {}
    for enc in range(1, big_q ** k):
        vec = int_to_digits(enc, big_q, k)
        lid = table.line_of[packed(vec)]
        members.setdefault(lid, set()).add(vec)
        for lam in range(2, big_q):
            scaled = tuple(tower.E.mul(lam, x) for x in vec)
            assert table.line_of[packed(scaled)] == lid
    assert table.num_lines == (big_q ** k - 1) // (big_q - 1)
    assert sorted(members) == list(range(table.num_lines))
    assert all(len(vecs) == big_q - 1 for vecs in members.values())


def test_line_test_choice():
    assert search._line_test_applies(GF9, 3, 1, 1)
    assert search._line_test_applies(GF16_OVER_GF4, 2, 1, 1)
    assert search._line_test_applies(GF9, 4, 2, 1)      # every h >= 1
    assert not search._line_test_applies(GF9, 4, 2, 2)  # t >= m
    assert not search._line_test_applies(GF9, 2, 0, 0)  # h = 0
    # 2^24 vectors of F^(km) exceed the line-table limit
    assert not search._line_test_applies(make_field(2, 8), 3, 1, 1)


def _line_evasive_fills(tower, k, t, pivots, lo, hi):
    """Oracle: the fills whose span puts at most q^t - 1 nonzero elements
    on each E-line, counted by enumerating the span and normalizing each
    nonzero element over E to a leading 1."""
    ambient, cap = k * tower.m, tower.q ** t - 1
    out = []
    for fill, rows in enumerate(walk_fills(pivots, ambient, tower.q, lo, hi),
                                lo):
        hits = {}
        for coeffs in itertools.product(range(tower.q), repeat=len(rows)):
            vec = unflatten_vector(tower, mat_vec(tower.F, rows, coeffs))
            if any(vec):
                lead = tower.E.inv(next(x for x in vec if x))
                key = tuple(tower.E.mul(lead, x) for x in vec)
                hits[key] = hits.get(key, 0) + 1
        if max(hits.values()) <= cap:
            out.append(fill)
    return out


@pytest.mark.parametrize("tower, k", [
    (GF8, 3), (GF9, 3), (GF16_OVER_GF4, 2),
    (make_field(2, 3, basis=[1, 3, 7]), 2), (make_field(5, 2), 2),
    (make_field(3, 3), 2), (make_field(3, 2, e=2), 2)],
    ids=["gf8", "gf9", "gf16-over-gf4", "gf8-basis", "gf25", "gf27",
         "gf81-over-gf9"])
def test_line_survivors_match_line_count_oracle(tower, k):
    # the filter against the E-line test by its definition, for every
    # 1 <= t < m, on a sample of pivot sets and fill ranges per dimension
    table = search._line_table(tower, k)
    ambient = k * tower.m
    passed = failed = 0
    for t in range(1, tower.m):
        for d in range(2, ambient):
            pivot_sets = list(itertools.combinations(range(ambient), d))
            for pivots in pivot_sets[::max(1, len(pivot_sets) // 4)]:
                nfill = tower.q ** len(free_cells(pivots, ambient))
                lo = nfill // 3
                hi = min(nfill, lo + 20)
                got = list(search._line_survivors(table, t, pivots, lo, hi))
                assert got == _line_evasive_fills(tower, k, t, pivots,
                                                  lo, hi), (t, pivots)
                passed += len(got)
                failed += hi - lo - len(got)
    assert passed > 0 and failed > 0


def _failing_prefix_blocks(tower, k, t, pivots):
    """The blocks [lo, hi) of fills whose rows r..d-1, r >= 1, already put
    more than q^t - 1 elements on an E-line.  Those rows are a fill of the
    pivot set pivots[r:] with the same free cells, so the oracle on that
    pivot set decides them; its fill is the fill's high digits."""
    ambient = k * tower.m
    cells = free_cells(pivots, ambient)
    for r in range(1, len(pivots)):
        size = tower.q ** sum(1 for row, _ in cells if row < r)
        top = tower.q ** len(free_cells(pivots[r:], ambient))
        passing = set(_line_evasive_fills(tower, k, t, pivots[r:], 0, top))
        yield from ((f * size, (f + 1) * size) for f in range(top)
                    if f not in passing)


@pytest.mark.parametrize("tower, k", [
    (GF4, 3), (GF9, 2), (make_field(5, 2), 2), (GF16_OVER_GF4, 2),
    (make_field(2, 3, basis=[1, 3, 7]), 2)],
    ids=["gf4", "gf9", "gf25", "gf16-over-gf4", "gf8-basis"])
def test_line_survivors_match_oracle_on_whole_pivot_sets(tower, k):
    # every fill of sampled pivot sets, so the walk leaves row 0's block
    # and rejects whole blocks under a failing row prefix; then seeded
    # random windows, which clip the nodes of every row, and windows that
    # start and end inside such blocks
    table = search._line_table(tower, k)
    ambient = k * tower.m
    rng = random.Random(16)
    passed = failed = clipped = 0
    for t in range(1, tower.m):
        for d in range(2, ambient):
            pivot_sets = list(itertools.combinations(range(ambient), d))
            for pivots in pivot_sets[::max(1, len(pivot_sets) // 3)]:
                nfill = tower.q ** len(free_cells(pivots, ambient))
                want = _line_evasive_fills(tower, k, t, pivots, 0, nfill)
                got = list(search._line_survivors(table, t, pivots, 0, nfill))
                assert got == want, (t, pivots)
                passed += len(got)
                failed += nfill - len(got)
                for _ in range(3):
                    lo, hi = sorted(rng.sample(range(nfill + 1), 2))
                    got = list(search._line_survivors(table, t, pivots,
                                                      lo, hi))
                    assert got == [f for f in want if lo <= f < hi], \
                        (t, pivots, lo, hi)
                blocks = [b for b in _failing_prefix_blocks(tower, k, t,
                                                            pivots)
                          if b[1] - b[0] >= 3]
                if blocks:
                    lo = min(b[0] for b in blocks) + 1
                    hi = max(b[1] for b in blocks) - 1
                    got = list(search._line_survivors(table, t, pivots,
                                                      lo, hi))
                    assert got == [f for f in want if lo <= f < hi], \
                        (t, pivots, lo, hi)
                    clipped += 1
    assert passed > 0 and failed > 0 and clipped > 0


@pytest.mark.parametrize("tower, k, r, d, shards, index", [
    (GF9, 3, 1, 4, 1, 0),       # p = 3, exhausts
    (GF8, 3, 1, 6, 1, 0),       # finds a witness
    (GF8, 3, 1, 5, 9, 4),       # one shard of the exhaustion
], ids=["gf9-d4", "gf8-d6", "gf8-d5-shard"])
def test_units_that_cut_row_blocks_change_nothing(monkeypatch, tower, k, r,
                                                  d, shards, index):
    # 7 is a power of no q, so units start and end inside row blocks
    want = scan_dimension(tower, k, r, d, shards=shards, shard_index=index)
    monkeypatch.setattr(search, "_FILL_CHUNK", 7)
    got = scan_dimension(tower, k, r, d, shards=shards, shard_index=index)
    assert (got.visited, got.witness) == (want.visited, want.witness)


def _no_table(tower, k):
    raise AssertionError("line table built")


def test_line_table_built_only_where_the_filter_applies(monkeypatch):
    monkeypatch.setattr(search, "_line_table", _no_table)
    # h = 0
    res = search._scan_evasive(GF8, 2, 0, 1, 3, stop_at_first=False)
    assert res.visited == qbinom(2, 6, 3)
    # h = 1, t >= m: the line test passes everything
    res = search._scan_evasive(GF4, 2, 1, 2, 3, stop_at_first=False)
    assert res.visited == qbinom(2, 4, 3)
    # 2^24 vectors of F^(km): the last pivot set of d = 3 is one candidate
    res = search._scan_evasive(make_field(2, 8), 3, 1, 1, 3,
                               shards=2024, shard_index=2023)
    assert (res.visited, res.witness) == (1, None)


def test_line_filter_runs_for_h2(monkeypatch):
    calls = []
    real = search._line_survivors

    def spy(table, t, pivots, lo, hi):
        calls.append(t)
        return real(table, t, pivots, lo, hi)

    monkeypatch.setattr(search, "_line_survivors", spy)
    # GF(4), k = 3, (h, t) = (2, 1): t < m, so the E-line test filters the
    # candidates before is_evasive; no 3-dimensional one is evasive (the
    # enumeration oracle test below checks every d at these (h, t))
    res = search._scan_evasive(GF4, 3, 2, 1, 3, stop_at_first=False)
    assert set(calls) == {1}
    assert (res.visited, res.witness) == (qbinom(2, 6, 3), None)


def test_omega_gf9_k3_r1_line_kernel():
    res = omega_exhaustive(GF9, 3, 1)
    assert res.value == 5
    assert res.exhaustion_certificate.exhaustion["total_visited"] == \
        qbinom(3, 6, 4) == 11011


def test_budget_exceeded_brackets():
    with pytest.raises(BudgetExceeded) as err:
        omega_exhaustive(GF8, 3, 1, budget=1000)
    assert (err.value.lower, err.value.upper) == (6, 6)


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


def _first_evasive_by_dim(tower, k, h, t):
    """Oracle: for every d = km..0, the rows of the first (h,t)-evasive
    d-dimensional subspace in enumeration order, or None.  This is the loop
    max_evasive_dim ran, one ``is_evasive`` call per subspace, before it
    moved onto the scan kernels."""
    ambient = k * tower.m
    return {d: next((sub.rows
                     for sub in enumerate_subspaces(tower, "F", ambient, d)
                     if is_evasive(tower, k, sub, h, t)[0]), None)
            for d in range(ambient, -1, -1)}


def _rows(sub):
    return None if sub is None else sub.rows


@pytest.mark.parametrize("tower, max_k", [
    (GF4, 3), (make_field(2, 3, basis=[1, 3, 7]), 2), (GF9, 2),
    (GF16_OVER_GF4, 2)], ids=["gf4", "gf8-basis", "gf9", "gf16-over-gf4"])
def test_evasive_scan_agrees_with_enumeration_oracle(tower, max_k):
    # every h and every t from "nothing is evasive" to "vacuous", with the
    # line filter (h >= 1, t < m) and without; each dimension is compared,
    # not only the answer, so survivors below it are checked too
    for k in range(max_k + 1):
        for h in range(k + 1):
            for t in range(-1, h * tower.m + 1):
                first = _first_evasive_by_dim(tower, k, h, t)
                for d, rows in first.items():
                    wit = search._scan_evasive(tower, k, h, t, d).witness
                    assert _rows(wit) == rows, (k, h, t, d)
                top = max((d for d, rows in first.items() if rows is not None),
                          default=None)
                dim, wit = max_evasive_dim(tower, k, h, t)
                assert (dim, _rows(wit)) == (top, first.get(top)), (k, h, t)


def test_max_evasive_miscounted_scan_exits_4(capsys, monkeypatch):
    # a sweep that loses a candidate must not pass as exhausted
    scan = search._scan_evasive

    def lossy(*args, **kwargs):
        res = scan(*args, **kwargs)
        res.visited -= 1
        return res

    monkeypatch.setattr(search, "_scan_evasive", lossy)
    code = run_command([
        "evasive-max", "--field", "p=2,e=1,m=2,ext=1,1,1", "--k", "2",
        "--h", "1", "--t", "1", "--json"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: exhaustion visited")


@pytest.mark.parametrize("spec, k, h, t, exit_code", [
    # small-m: Corollary 5.2 at (lam, s) = (1, 2) caps (2, 3) at 4 < 6
    ("p=2,e=1,m=2,ext=1,1,1", 3, 2, 3, 4),
    # descent chain (0, 0) caps (2, 4) in E^[3] over GF(8) at 7 < 9
    ("p=2,e=1,m=3,ext=1,1,0,1", 3, 2, 4, 4),
    # base: (lam, a, u) = (1, 0, 1) fails 1 - 1 >= 1, so km = 3 stands
    ("p=2,e=1,m=3,ext=1,1,0,1", 1, 0, 0, 0),
])
def test_max_evasive_checks_the_certified_caps(capsys, monkeypatch, spec, k,
                                               h, t, exit_code):
    # a sweep that reports a witness at every dimension puts the answer at
    # km; a cap that evasive_bound_certifies proves below km must catch it
    def witness_everywhere(tower, k, h, t, d, **kwargs):
        # F^(km) itself: it spans E^[k], so only a cap can refuse it
        return search.ScanResult(d, 1, Subspace.full(tower, "F", k * tower.m))

    monkeypatch.setattr(search, "_scan_evasive", witness_everywhere)
    code = run_command(["evasive-max", "--field", spec, "--k", str(k),
                        "--h", str(h), "--t", str(t), "--json"])
    assert code == exit_code
    if exit_code:
        assert "beats a certified cap" in capsys.readouterr().err



def test_max_evasive_reverifies_its_witness(capsys, monkeypatch):
    # the scan's witness is rebuilt from the walk, so evasive-max checks it
    # again: a zero subspace at km passes the caps but spans nothing
    def zero_witness(tower, k, h, t, d, **kwargs):
        return search.ScanResult(d, 1, Subspace.zero(tower, "F", k * tower.m))

    monkeypatch.setattr(search, "_scan_evasive", zero_witness)
    code = run_command(["evasive-max", "--field", "p=2,e=1,m=3,ext=1,1,0,1",
                        "--k", "1", "--h", "0", "--t", "0", "--json"])
    assert code == 4
    assert "witness failed re-verification" in capsys.readouterr().err

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

    # the weight distribution of all 1-dimensional codes of E^3
    counts = census_codes(GF4, 3, 1).counts["weight_distribution"]
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
