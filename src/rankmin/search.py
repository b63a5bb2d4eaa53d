"""Exhaustive, certificate-producing searches: minimal cutting-set
dimensions, code censuses and maximal evasive dimensions.

The minimal-length search walks subspace dimensions upward from the best
rule-based lower bound.  A result is certified by a witness subspace at
dimension d plus an exhaustion record at d-1; the d-1 sweep always runs,
even when the rule interval is already a point, so the value never rests
on the closed-form bounds alone.

Over GF(2) towers the cutting test for the common case h = k-r-1 = 1 runs
on bit-packed rows: every nonzero vector of F^(km) lies on exactly one
E-line, so a candidate fails as soon as some line has seen more than
2^t - 1 of its span elements.  Everything else goes through the generic
deciders.

Work is split into units (pivot set, fill range).  One result loop
consumes the output of one unit worker, mapped in-process for a single
thread or by a fork pool whose workers inherit the scan context; results
merge by sum / earliest-witness, so the outcome is independent of worker
count and scheduling.  No symmetry reduction is applied: exhaustion totals
are raw subspace counts and must equal the q-binomial.

Checks that guard a certified answer raise CertificateError explicitly, so
they hold under ``python -O`` too.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import multiprocessing
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .combinatorics import (
    CountReport,
    corollary_52_bound,
    count_r_minimal,
    omega_bounds,
    qbinom,
)
from .fields import FieldTower, int_to_digits
from .geometry import is_cutting, is_evasive
from .linalg import (
    ENUM_ORDER_TAG,
    CertificateError,
    Subspace,
    enumerate_subspaces,
    espan_of_flat,
    free_cells,
    rref_from_fill,
    unpack_gf2,
)
from .rank_metric import RankCode, weight

SCHEMA_VERSION = 1
_FILL_CHUNK = 1 << 16

Rows = Tuple[Tuple[int, ...], ...]


class BudgetExceeded(RuntimeError):
    """Search ran out of budget; carries the verified bracket."""

    def __init__(self, lower: int, upper: int, certificates: List["Certificate"]):
        super().__init__(f"budget exceeded; verified bracket [{lower}, {upper}]")
        self.lower = lower
        self.upper = upper
        self.certificates = certificates


@dataclass
class Certificate:
    kind: str                          # witness | exhaustion
    tower_spec: str
    target: str
    params: Dict[str, int]
    witness: Optional[dict] = None
    exhaustion: Optional[dict] = None
    enum_order: str = ENUM_ORDER_TAG
    schema_version: int = SCHEMA_VERSION
    note: Optional[str] = None

    def to_json(self) -> dict:
        obj = {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "tower": self.tower_spec,
            "target": self.target,
            "params": dict(self.params),
            "enum_order": self.enum_order,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.exhaustion is not None:
            obj["exhaustion"] = self.exhaustion
        if self.note:
            obj["note"] = self.note
        return obj


@dataclass
class ScanResult:
    dimension: int
    visited: int
    complete: bool
    witness: Optional[Subspace] = None


@dataclass
class OmegaResult:
    value: int
    witness_certificate: Certificate
    exhaustion_certificate: Optional[Certificate]
    bounds_lower: int
    bounds_upper: int
    paper_verified: bool
    visited_total: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "bounds": [self.bounds_lower, self.bounds_upper],
            "paper_verified": self.paper_verified,
            "visited_total": self.visited_total,
            "witness_certificate": self.witness_certificate.to_json(),
            "exhaustion_certificate": (
                self.exhaustion_certificate.to_json()
                if self.exhaustion_certificate else None),
        }


# ---------------------------------------------------------------------------
# E-line tables for the GF(2) fast path.
# ---------------------------------------------------------------------------


class _LineTable:
    """Per-(tower, k) lookup: packed nonzero F-vector -> E-line id."""

    def __init__(self, tower: FieldTower, k: int):
        assert tower.q == 2
        m = tower.m
        n_flat = k * m
        assert n_flat <= 22, "line table would be too large"
        comp_mask = (1 << m) - 1
        # packed m-bit group -> E element (basis coordinates -> element)
        elem_of = [tower.from_coords(int_to_digits(b, 2, m))
                   for b in range(1 << m)]
        coords_of = {}
        for b in range(1 << m):
            coords_of[elem_of[b]] = b
        line_of = [0] * (1 << n_flat)
        reps: Dict[int, int] = {}
        for v in range(1, 1 << n_flat):
            comps = [elem_of[(v >> (j * m)) & comp_mask] for j in range(k)]
            lead = next(c for c in comps if c)
            inv = tower.E.inv(lead)
            canon = 0
            for j, c in enumerate(comps):
                canon |= coords_of[tower.E.mul(inv, c)] << (j * m)
            lid = reps.setdefault(canon, len(reps))
            line_of[v] = lid
        self.line_of = line_of
        self.num_lines = len(reps)
        self.k = k
        self.m = m
        self.tower = tower


_LINE_TABLES: Dict[Tuple[FieldTower, int], _LineTable] = {}


def _line_table(tower: FieldTower, k: int) -> _LineTable:
    key = (tower, k)
    if key not in _LINE_TABLES:
        _LINE_TABLES[key] = _LineTable(tower, k)
    return _LINE_TABLES[key]


# ---------------------------------------------------------------------------
# Scanning one dimension for cutting r-blocking sets.
# ---------------------------------------------------------------------------


def _unit_list(ambient: int, d: int, order: int,
               shards: int = 1, shard_index: int = 0,
               ) -> List[Tuple[int, Tuple[int, ...], int, int]]:
    """Work units (unit_id, pivots, fill_lo, fill_hi) in enumeration order.

    Sharding keeps contiguous pivot-set index ranges together so external
    orchestration can split by ``--shards``/``--shard-index``.
    """
    pivot_sets = list(itertools.combinations(range(ambient), d))
    per = (len(pivot_sets) + shards - 1) // shards
    chosen = list(enumerate(pivot_sets))[shard_index * per:
                                         (shard_index + 1) * per]
    units = []
    uid = 0
    for pidx, pivots in chosen:
        nfill = order ** len(free_cells(pivots, ambient))
        lo = 0
        while lo < nfill:
            hi = min(lo + _FILL_CHUNK, nfill)
            units.append((uid, pivots, lo, hi))
            uid += 1
            lo = hi
    return units


def _scan_unit_q2_h1(table: _LineTable, r: int, d: int,
                     pivots: Tuple[int, ...], lo: int, hi: int,
                     stop_at_first: bool) -> Tuple[int, Optional[Rows]]:
    """Scan one unit with the E-line histogram test (h = 1).

    Returns (visited, witness rows or None).
    """
    ambient = table.k * table.m
    m = table.m
    t = d - m * r - 1
    cells = free_cells(pivots, ambient)
    cell_row = [rc[0] for rc in cells]
    cell_bit = [1 << rc[1] for rc in cells]
    nfree = len(cells)
    rows = [1 << p for p in pivots]
    x = lo
    digits = [0] * nfree
    for j in range(nfree):
        x, dgt = divmod(x, 2)
        digits[j] = dgt
        if dgt:
            rows[cell_row[j]] |= cell_bit[j]
    if t < 0:
        # dimension too small to cut; nothing to test candidate-by-candidate
        return hi - lo, None
    cap = (1 << t) - 1
    line_of = table.line_of
    num_lines = table.num_lines
    vacuous = cap >= (1 << m) - 1
    ctz = [0] * (1 << d)
    for i in range(1, 1 << d):
        ctz[i] = (i & -i).bit_length() - 1
    stamp = [0] * num_lines
    cnt = [0] * num_lines
    tag = 0
    visited = 0
    witness = None
    span_size = 1 << d
    for fill in range(lo, hi):
        if fill != lo:
            j = 0
            while digits[j]:
                digits[j] = 0
                rows[cell_row[j]] ^= cell_bit[j]
                j += 1
            digits[j] = 1
            rows[cell_row[j]] ^= cell_bit[j]
        visited += 1
        ok = True
        if not vacuous:
            tag += 1
            v = 0
            if cap == 0:
                ok = d == 0
            else:
                for i in range(1, span_size):
                    v ^= rows[ctz[i]]
                    lid = line_of[v]
                    if stamp[lid] != tag:
                        stamp[lid] = tag
                        cnt[lid] = 1
                    else:
                        c = cnt[lid] + 1
                        if c > cap:
                            ok = False
                            break
                        cnt[lid] = c
        if ok and witness is None:
            flat = tuple(unpack_gf2(rw, ambient) for rw in rows)
            sub = Subspace(table.tower, "F", ambient, flat, pivots)
            if espan_of_flat(sub).dim == table.k:
                witness = flat
                if stop_at_first:
                    return visited, witness
    return visited, witness


def _scan_unit_generic(tower: FieldTower, k: int, r: int, d: int,
                       pivots: Tuple[int, ...], lo: int, hi: int,
                       stop_at_first: bool) -> Tuple[int, Optional[Rows]]:
    ambient = k * tower.m
    order = tower.q
    cells = free_cells(pivots, ambient)
    visited = 0
    witness = None
    for fill in range(lo, hi):
        rows = rref_from_fill(pivots, ambient, cells, fill, order)
        sub = Subspace(tower, "F", ambient,
                       tuple(tuple(rw) for rw in rows), tuple(pivots))
        visited += 1
        if witness is None and is_cutting(tower, k, sub, r).verdict:
            witness = sub.rows
            if stop_at_first:
                return visited, witness
    return visited, witness


# The unit worker of the running scan, (pivots, lo, hi) -> (visited, witness
# rows or None).  It is set before the pool forks, so workers inherit it.
_UNIT_WORKER: Optional[Callable] = None


def _run_unit(unit) -> Tuple[int, Optional[Rows]]:
    _, pivots, lo, hi = unit
    return _UNIT_WORKER(pivots, lo, hi)


def scan_dimension(tower: FieldTower, k: int, r: int, d: int,
                   stop_at_first: bool = True, threads: int = 1,
                   shards: int = 1, shard_index: int = 0,
                   budget: Optional[int] = None) -> ScanResult:
    """Scan every d-dimensional F-subspace of E^[k] for a cutting r-blocking
    set, in enumeration order.  Deterministic for any thread count."""
    global _UNIT_WORKER
    if not 0 <= shard_index < shards:
        raise ValueError(f"need shards >= 1 and 0 <= shard_index < shards, "
                         f"got shards={shards}, shard_index={shard_index}")
    ambient = k * tower.m
    units = _unit_list(ambient, d, tower.q, shards, shard_index)
    if tower.q == 2 and k - r - 1 == 1:
        _UNIT_WORKER = functools.partial(
            _scan_unit_q2_h1, _line_table(tower, k), r, d,
            stop_at_first=stop_at_first)
    else:
        _UNIT_WORKER = functools.partial(
            _scan_unit_generic, tower, k, r, d, stop_at_first=stop_at_first)
    visited_total = 0
    witness: Optional[Subspace] = None
    with contextlib.ExitStack() as stack:
        if threads > 1 and len(units) > 1:
            pool = stack.enter_context(
                multiprocessing.get_context("fork").Pool(threads))
            results = pool.imap(_run_unit, units, chunksize=1)
        else:
            results = map(_run_unit, units)
        for visited, rows in results:
            visited_total += visited
            if rows is not None and witness is None:
                witness = Subspace.span(tower, "F", ambient, rows)
                if stop_at_first:
                    return ScanResult(d, visited_total, False, witness)
            if budget is not None and visited_total > budget:
                raise BudgetExceeded(d, d, [])
    return ScanResult(d, visited_total, True, witness)


# ---------------------------------------------------------------------------
# The minimal-length search.
# ---------------------------------------------------------------------------


def omega_exhaustive(tower: FieldTower, k: int, r: int,
                     dim_cap: Optional[int] = None, threads: int = 1,
                     budget: Optional[int] = None,
                     time_budget_s: Optional[float] = None) -> OmegaResult:
    """Smallest dimension of a cutting r-blocking set of E^[k], with a
    witness certificate at the answer and an exhaustion certificate one
    dimension below.

    Ascends from the rule lower bound; the d-1 sweep runs even when the
    rules already pin the value.  Raises BudgetExceeded with the verified
    bracket when the node or time budget runs out (time is checked between
    dimension scans).
    """
    if k < r + 1:
        raise ValueError("need k >= r + 1")
    m = tower.m
    bounds = omega_bounds(m, k, r)
    ambient = k * m
    hard_cap = min(dim_cap if dim_cap is not None else ambient,
                   ambient)
    spec = tower.spec_string()
    visited_total = 0
    certs: List[Certificate] = []
    exhaust_results: Dict[int, ScanResult] = {}
    deadline = (None if time_budget_s is None
                else time.monotonic() + time_budget_s)

    d = bounds.lower
    while d <= hard_cap:
        remaining = None if budget is None else budget - visited_total
        if remaining is not None and remaining <= 0:
            raise BudgetExceeded(d, bounds.upper, certs)
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(d, bounds.upper, certs)
        try:
            res = scan_dimension(tower, k, r, d, stop_at_first=True,
                                 threads=threads, budget=remaining)
        except BudgetExceeded:
            raise BudgetExceeded(d, bounds.upper, certs) from None
        visited_total += res.visited
        if res.witness is None:
            exhaust_results[d] = res
            certs.append(_exhaustion_certificate(tower, spec, k, r, d, res))
            d += 1
            continue
        # witness found at d: make sure d-1 was exhausted
        witness_cert = _witness_certificate(tower, spec, k, r, d, res.witness)
        exhaustion_cert = None
        if d - 1 >= 0:
            if d - 1 in exhaust_results:
                exhaustion_cert = certs[-1]
            else:
                remaining = (None if budget is None
                             else budget - visited_total)
                below = scan_dimension(tower, k, r, d - 1,
                                       stop_at_first=False, threads=threads,
                                       budget=remaining)
                visited_total += below.visited
                if below.witness is not None:
                    raise CertificateError("witness below the rule lower "
                                           "bound: bounds are wrong")
                exhaustion_cert = _exhaustion_certificate(
                    tower, spec, k, r, d - 1, below)
                certs.append(exhaustion_cert)
        if not bounds.lower <= d <= bounds.upper:
            raise CertificateError("computed value escapes the rule interval")
        return OmegaResult(
            value=d,
            witness_certificate=witness_cert,
            exhaustion_certificate=exhaustion_cert,
            bounds_lower=bounds.lower,
            bounds_upper=bounds.upper,
            paper_verified=bounds.exact,
            visited_total=visited_total,
        )
    raise CertificateError("no cutting set found up to the dimension cap; "
                           "the upper-bound rules contradict the search")


def _witness_certificate(tower: FieldTower, spec: str, k: int, r: int,
                         d: int, witness: Subspace) -> Certificate:
    # re-verify through the public decider before certifying
    verdict = is_cutting(tower, k, witness, r)
    if not verdict.verdict:
        raise CertificateError("witness failed re-verification")
    return Certificate(
        kind="witness", tower_spec=spec, target="omega",
        params={"k": k, "r": r, "dimension": d},
        witness=witness.to_json(),
    )


def _exhaustion_certificate(tower: FieldTower, spec: str, k: int, r: int,
                            d: int, res: ScanResult) -> Certificate:
    expected = qbinom(tower.q, k * tower.m, d)
    if res.visited != expected:
        raise CertificateError(
            f"exhaustion visited {res.visited} != {expected}")
    return Certificate(
        kind="exhaustion", tower_spec=spec, target="omega",
        params={"k": k, "r": r, "dimension": d},
        exhaustion={"dimension": d, "total_visited": res.visited,
                    "counterexample_free": True},
    )


# ---------------------------------------------------------------------------
# Code census.
# ---------------------------------------------------------------------------


def census_codes(tower: FieldTower, n: int, k: int,
                 r: Optional[int] = None,
                 weight_of_interest: Optional[int] = None,
                 constant_weight_r: Optional[int] = None,
                 budget: Optional[int] = None) -> CountReport:
    """Enumerate every [n,k] code, counting r-minimal codes, the weight
    distribution, and optionally constant-weight codes."""
    from .minimality import constant_weight_class, is_r_minimal

    total = qbinom(tower.order, n, k)
    if budget is not None and total > budget:
        raise BudgetExceeded(0, total, [])
    m = tower.m
    counts: Dict[str, int] = {"total": 0}
    weight_dist: Dict[int, int] = {}
    minimal = 0
    constant = 0
    for sub in enumerate_subspaces(tower, "E", n, k):
        code = RankCode(tower, n, sub.rows)
        counts["total"] += 1
        wt = weight(code)
        weight_dist[wt] = weight_dist.get(wt, 0) + 1
        if r is not None:
            ok = is_r_minimal(code, r).verdict if 0 < r < k else True
            if ok:
                minimal += 1
        if constant_weight_r is not None and k >= 2:
            rep = constant_weight_class(code, constant_weight_r)
            if rep.is_constant:
                constant += 1
    if counts["total"] != total:
        raise CertificateError(
            f"census visited {counts['total']} codes, expected {total}")
    report = CountReport(
        inputs={"q": tower.q, "m": m, "n": n, "k": k,
                **({"r": r} if r is not None else {})},
        counts={"total": counts["total"],
                "weight_distribution": weight_dist},
        formulas={"total_formula": total},
    )
    if r is not None:
        report.counts["r_minimal"] = minimal
        report.counts["not_r_minimal"] = counts["total"] - minimal
        if k == r + 1:
            report.formulas["r_minimal_formula"] = count_r_minimal(
                tower.q, m, n, r)
    if constant_weight_r is not None:
        report.counts["constant_weight"] = constant
    if weight_of_interest is not None:
        report.counts["with_weight"] = weight_dist.get(weight_of_interest, 0)
    return report


def subcode_weight_census(tower: FieldTower, n: int, r: int,
                          ) -> Dict[int, int]:
    """Weight distribution of all r-dimensional codes of E^n (the counts
    feeding the existence bound on non-minimal (r+1)-dimensional codes)."""
    out: Dict[int, int] = {}
    for sub in enumerate_subspaces(tower, "E", n, r):
        code = RankCode(tower, n, sub.rows) if r else RankCode.zero(tower, n)
        wt = weight(code)
        out[wt] = out.get(wt, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Maximal evasive dimension.
# ---------------------------------------------------------------------------


def max_evasive_dim(tower: FieldTower, k: int, h: int, t: int,
                    budget: Optional[int] = None,
                    ) -> Tuple[Optional[int], Optional[Subspace]]:
    """Largest dim_F of an (h,t)-evasive subspace of E^[k], by descending
    dimension with early exit; None when no such subspace exists."""
    m = tower.m
    ambient = k * m
    visited = 0
    for d in range(ambient, -1, -1):
        for sub in enumerate_subspaces(tower, "F", ambient, d):
            visited += 1
            if budget is not None and visited > budget:
                raise BudgetExceeded(0, d, [])
            ok, _ = is_evasive(tower, k, sub, h, t)
            if ok:
                _check_evasive_caps(m, k, h, t, d)
                return d, sub
    return None, None


def _check_evasive_caps(m: int, k: int, h: int, t: int, d: int) -> None:
    if t == h and d >= k + 1 and h <= k:
        if d > k * m // (h + 1):
            raise CertificateError("evasive dimension beats the cap")
    if h <= k:
        # the corollary bound applies when t = 2k - lam - s for lam = k - h
        lam = k - h
        s = 2 * k - lam - t
        cap = corollary_52_bound(m, k, lam, s)
        if cap is not None and d > cap:
            raise CertificateError("evasive dimension beats the corollary cap")
