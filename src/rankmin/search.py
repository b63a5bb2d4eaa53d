"""Exhaustive, certificate-producing searches: minimal cutting-set
dimensions, code censuses and maximal evasive dimensions.

Both dimension searches run one sweep of the d-dimensional F-subspaces of
E^[k] for an (h,t)-evasive one.  A cutting r-blocking set is the case
(k-r-1, d-mr-1), swept upward from the best rule-based lower bound; the
maximal evasive dimension sweeps a fixed (h, t) downward from km.  A
minimal length is certified by a witness at dimension d plus an exhaustion
record at d-1, which always runs, so the value never rests on the
closed-form bounds alone.

One unit kernel serves every (h, t): ``is_evasive`` decides each
candidate.  When h >= 1, t < m and F^(km) fits a line table, an E-line
filter on packed rows runs first: every E-line lies in some h-dimensional
E-subspace, so a candidate fails as soon as some line has seen more than
q^t - 1 of its span elements.  The test is hereditary, so the filter is a
recursion with one node per RREF row, highest row first: a node steps its
own row's cells on top of the rows above it, and a row value that already
fails drops every fill under it; the dropped fills still count towards the
unit's visited total.

Work is split into units (pivot set, fill range).  One result loop
consumes the output of one unit worker, mapped in-process for a single
thread or by a fork pool whose workers inherit the scan context; results
merge by sum / earliest-witness, so the outcome is independent of worker
count and scheduling.  No symmetry reduction is applied: the total of
every exhausted dimension, in either search, is a raw subspace count and
must equal the q-binomial.

Checks that guard a certified answer raise CertificateError explicitly, so
they hold under ``python -O`` too.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import multiprocessing
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .combinatorics import (
    CountReport,
    count_r_minimal,
    evasive_bound_certifies,
    omega_bounds,
    qbinom,
)
from .fields import FieldTower, _row_kernel, int_to_digits
from .geometry import cutting_evasive_params, is_cutting, is_evasive
from .linalg import (
    ENUM_ORDER_TAG,
    CertificateError,
    Subspace,
    enumerate_subspaces,
    free_cells,
    walk_fills,
)
from .minimality import constant_weight_class, is_r_minimal
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
        return obj


@dataclass
class ScanResult:
    dimension: int
    visited: int
    witness: Optional[Subspace] = None


@dataclass
class OmegaResult:
    value: int
    witness_certificate: Certificate
    exhaustion_certificate: Certificate
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
            "exhaustion_certificate": self.exhaustion_certificate.to_json(),
        }


# ---------------------------------------------------------------------------
# E-line tables for the line filter.
# ---------------------------------------------------------------------------

# Largest |F^(km)| = q^(km) that a line table indexes; larger towers scan
# without the line filter.  For p = 2 the table is a list of one pointer a
# vector; for odd p it is a dict of about 85 bytes a vector, about 160 MB
# at 5^9 vectors.
_LINE_TABLE_LIMIT = 1 << 22


class _LineTable:
    """Per-(tower, k) lookup: packed nonzero vector of F^(km) -> E-line id.

    A vector packs its GF(p)-digits, e per F-coordinate in ascending order,
    into slots of ``width`` bits.  For p = 2 a slot is one bit, vector
    addition is XOR and the packed vectors are exactly 0 .. 2^(kme) - 1, so
    the table is a list.  For odd p a slot keeps one spare bit above the
    digit for the carry of a slot-wise mod-p add, and the table is a dict.
    """

    def __init__(self, tower: FieldTower, k: int):
        self.tower = tower
        self.k = k
        self.width = 1 if tower.p == 2 else (tower.p - 1).bit_length() + 1
        shift = tower.m * tower.e * self.width      # bits per E-component
        comp = [self.pack(tower.to_coords(x)) for x in range(tower.order)]
        line_of = [0] * (1 << k * shift) if tower.p == 2 else {}
        # every line once, through its RREF row: 1 at the pivot lead, 0
        # before it, so packing the multiples starts at the pivot
        scale = _row_kernel(tower.E)[0]
        for lid, line in enumerate(enumerate_subspaces(tower, "E", k, 1)):
            lead = line.pivots[0]
            tail = line.rows[0][lead + 1:]
            for lam in range(1, tower.order):
                v = comp[lam] << (lead * shift)
                for j, x in enumerate(scale(lam, tail), lead + 1):
                    v |= comp[x] << (j * shift)
                line_of[v] = lid
        self.line_of = line_of
        self.num_lines = lid + 1

    def pack(self, coords: Sequence[int], first: int = 0) -> int:
        """F-coordinates, placed from column ``first`` on, as a packed int."""
        p, e, w = self.tower.p, self.tower.e, self.width
        v = 0
        for c, a in enumerate(coords, first):
            for i, dgt in enumerate(int_to_digits(a, p, e)):
                v |= dgt << (w * (c * e + i))
        return v


# A command scans one (tower, k): keep only its table (up to about 160 MB).
@functools.lru_cache(maxsize=1)
def _line_table(tower: FieldTower, k: int) -> _LineTable:
    return _LineTable(tower, k)


# ---------------------------------------------------------------------------
# Scanning one dimension for (h,t)-evasive subspaces.
# ---------------------------------------------------------------------------


def _pivot_sets(ambient: int, d: int, shards: int = 1, shard_index: int = 0,
                ) -> Iterator[Tuple[int, ...]]:
    """The shard's pivot sets in enumeration order, lazily: a contiguous
    index range, for ``--shards``/``--shard-index`` orchestration."""
    per = -(-math.comb(ambient, d) // shards)
    return itertools.islice(itertools.combinations(range(ambient), d),
                            shard_index * per, (shard_index + 1) * per)


def _units(ambient: int, d: int, order: int,
           shards: int = 1, shard_index: int = 0,
           ) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    """Work units (pivots, fill_lo, fill_hi) in enumeration order, made
    lazily, so a budget or a shard never waits for the whole list."""
    for pivots in _pivot_sets(ambient, d, shards, shard_index):
        nfill = order ** len(free_cells(pivots, ambient))
        for lo in range(0, nfill, _FILL_CHUNK):
            yield pivots, lo, min(lo + _FILL_CHUNK, nfill)


def _line_survivors(table: _LineTable, t: int, pivots: Tuple[int, ...],
                    lo: int, hi: int) -> Iterator[int]:
    """The fills in lo..hi-1 whose span puts at most q^t - 1 nonzero
    elements on every E-line, in increasing order.

    One node per RREF row, row d-1 first.  Row r's cells are digits
    first[r] .. first[r+1]-1 of a fill, so a node at row r, under the
    fill ``base`` of rows r+1..d-1, steps only its own cells: through the
    fills base + a * q^first[r], each the head of a block of q^first[r]
    fills, clipped to [lo, hi).  The span's nonzero elements are walked
    in modular p-ary Gray order over the GF(p)-generators beta_j * row_i
    (beta_j = x^j, a GF(p)-basis of F), highest row first: step i adds
    generator v_p(i), so each element costs one vector add and one line
    lookup.  With g = e * (d-1-r), steps 1 .. p^g - 1 reach exactly
    span_F(rows > r), and steps p^g .. p^(g+e) - 1 exactly the new
    elements a * row_r + s, which is all a node walks, from the vector v0
    its parent's walk ended on.  Its hits stay on the shared line counters
    while the node of row r-1 runs below it, and are undone before its next
    fill.  The test is hereditary (a subspace of S meets every line in a
    subspace of S's meet), so a fill that overloads a line rejects its
    whole block.  Needs t >= 1: ``_scan_evasive`` settles t <= 0 without
    a unit.
    """
    tower = table.tower
    p, e, m, q = tower.p, tower.e, tower.m, tower.q
    ambient = table.k * m
    d = len(pivots)
    # A row is held as its e scalings beta_j * row side by side, block j
    # from bit j * block on.  Every slot holds exactly one digit, so
    # changing a cell's value is a plain integer add.
    block = table.width * ambient * e

    betas = [p ** j for j in range(e)]
    scale = _row_kernel(tower.F)[0]

    def scaled(col: int, a: int) -> int:
        return sum(table.pack((x,), col) << (j * block)
                   for j, x in enumerate(scale(a, betas)))

    cells = free_cells(pivots, ambient)
    val = [[scaled(c, a) for a in range(q)] for _, c in cells]
    step = [[v[a + 1] - v[a] for a in range(q - 1)] for v in val]
    unfilled = [scaled(c, 1) for c in pivots]
    first = [sum(1 for i, _ in cells if i < r) for r in range(d + 1)]
    size = [q ** j for j in first]
    split = [j * block for j in range(e)]
    low_block = (1 << block) - 1
    # beta_b * row_r is gens[r * e + b]; walk[r] lists the generators of
    # row r's steps, the walk's generator j being beta_(j mod e) *
    # row_(d-1-j//e)
    gens = [0] * (d * e)
    walk = []
    for r in range(d):
        g = e * (d - 1 - r)
        seg = []
        for i in range(p ** g, p ** (g + e)):
            j = 0
            while i % p == 0:
                i //= p
                j += 1
            seg.append((d - 1 - j // e) * e + j % e)
        walk.append(seg)
    # slot-wise mod-p add for odd p: s = u + g; u = s - p * (slots >= p)
    top_bit = table.width - 1
    ones = sum(1 << (table.width * s) for s in range(ambient * e))
    carry = ((1 << top_bit) - p) * ones
    cap = q ** t - 1
    last = q - 1
    line_of = table.line_of
    seen = [0] * table.num_lines       # hits of the nodes above, per line

    def node(r: int, v0: int, base: int) -> Iterator[int]:
        j0, block_fills, seg, at = first[r], size[r], walk[r], r * e
        a = max(lo - base, 0) // block_fills
        stop = -(-min(hi - base, size[r + 1]) // block_fills)
        fill = base + a * block_fills
        w = unfilled[r]
        if a:
            w += sum(val[j][x] for j, x in
                     enumerate(int_to_digits(a, q, first[r + 1] - j0), j0))
        log: List[int] = []
        push = log.append
        while True:
            if e == 1:
                gens[r] = w
            else:
                for b, sh in enumerate(split):
                    gens[at + b] = (w >> sh) & low_block
            v = v0
            ok = True
            if p == 2:
                for g in seg:
                    v ^= gens[g]
                    lid = line_of[v]
                    push(lid)
                    c = seen[lid] + 1
                    seen[lid] = c
                    if c > cap:
                        ok = False
                        break
            else:
                for g in seg:
                    s = v + gens[g]
                    v = s - p * (((s + carry) >> top_bit) & ones)
                    lid = line_of[v]
                    push(lid)
                    c = seen[lid] + 1
                    seen[lid] = c
                    if c > cap:
                        ok = False
                        break
            if ok:
                if r:
                    yield from node(r - 1, v, fill)
                else:
                    yield fill
            for lid in log:
                seen[lid] -= 1
            log.clear()
            a += 1
            if a == stop:
                return
            fill += block_fills
            # a's digits that wrapped to 0, then the one that went up
            j, x = j0, a
            while x % q == 0:
                w -= val[j][last]
                x //= q
                j += 1
            w += step[j][x % q - 1]

    if lo < hi:
        yield from node(d - 1, 0, 0)


def _line_test_applies(tower: FieldTower, k: int, h: int, t: int) -> bool:
    """Does an (h,t)-evasive scan of E^[k] run the E-line filter?  It is
    valid for h >= 1, rejects nothing when t >= m and needs a line table."""
    return (h >= 1 and t < tower.m and
            tower.q ** (k * tower.m) <= _LINE_TABLE_LIMIT)


def _scan_unit(tower: FieldTower, k: int, h: int, t: int,
               line_test: Optional[_LineTable],
               pivots: Tuple[int, ...], lo: int, hi: int,
               stop_at_first: bool) -> Tuple[int, Optional[Rows]]:
    """Scan one unit, returning (visited, witness rows or None).  Every
    candidate, or with a line table every survivor of the line filter, goes
    through ``is_evasive``; past the first witness fills are only counted."""
    ambient, q = k * tower.m, tower.q
    if line_test is None:
        candidates = enumerate(walk_fills(pivots, ambient, q, lo, hi), lo)
    else:
        candidates = ((fill, next(walk_fills(pivots, ambient, q,
                                             fill, fill + 1)))
                      for fill in _line_survivors(line_test, t, pivots,
                                                  lo, hi))
    for fill, rows in candidates:
        sub = Subspace(tower, "F", ambient, rows, pivots)
        if is_evasive(tower, k, sub, h, t)[0]:
            return (fill - lo + 1 if stop_at_first else hi - lo), sub.rows
    return hi - lo, None


# The unit worker of the running scan, (pivots, lo, hi) -> (visited, witness
# rows or None).  It is set before the pool forks, so workers inherit it.
_UNIT_WORKER: Optional[Callable] = None


def _run_unit(unit) -> Tuple[int, Optional[Rows]]:
    return _UNIT_WORKER(*unit)


def scan_dimension(tower: FieldTower, k: int, r: int, d: int,
                   stop_at_first: bool = True, threads: int = 1,
                   shards: int = 1, shard_index: int = 0,
                   budget: Optional[int] = None,
                   deadline: Optional[float] = None) -> ScanResult:
    """Scan every d-dimensional F-subspace of E^[k] for a cutting r-blocking
    set: the evasive scan at (h, t) = (k-r-1, d-mr-1)."""
    h, t = cutting_evasive_params(tower.m, k, r, d)
    if not 0 <= d <= k * tower.m:
        raise ValueError(f"scan dimension {d} outside 0..{k * tower.m}")
    return _scan_evasive(tower, k, h, t, d, stop_at_first, threads,
                         shards, shard_index, budget, deadline)


def _scan_evasive(tower: FieldTower, k: int, h: int, t: int, d: int,
                  stop_at_first: bool = True, threads: int = 1,
                  shards: int = 1, shard_index: int = 0,
                  budget: Optional[int] = None,
                  deadline: Optional[float] = None) -> ScanResult:
    """Scan every d-dimensional F-subspace of E^[k] for an (h,t)-evasive
    one, in enumeration order.  Deterministic for any thread count.  The
    node budget and the ``time.monotonic()`` deadline are checked after
    each work unit, whose witness still counts.
    A dimension where no candidate passes, d < k (no E-span E^k) or
    t < min(h, 1) (an E-line, or for h = 0 the zero E-subspace, already
    meets S in more than t), builds no unit: it is counted per pivot set."""
    global _UNIT_WORKER
    if not 0 <= shard_index < shards:
        raise ValueError(f"need shards >= 1 and 0 <= shard_index < shards, "
                         f"got shards={shards}, shard_index={shard_index}")
    ambient = k * tower.m
    if d < k or t < min(h, 1):
        visited = sum(tower.q ** len(free_cells(pivots, ambient)) for pivots
                      in _pivot_sets(ambient, d, shards, shard_index))
        if budget is not None and visited > budget:
            raise BudgetExceeded(d, d, [])
        return ScanResult(d, visited)
    units = _units(ambient, d, tower.q, shards, shard_index)
    head = list(itertools.islice(units, 2))
    units = itertools.chain(head, units)
    table = (_line_table(tower, k) if _line_test_applies(tower, k, h, t)
             else None)
    _UNIT_WORKER = functools.partial(_scan_unit, tower, k, h, t, table,
                                     stop_at_first=stop_at_first)
    visited_total = 0
    witness: Optional[Subspace] = None
    with contextlib.ExitStack() as stack:
        if threads > 1 and len(head) > 1:
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
                    return ScanResult(d, visited_total, witness)
            if (budget is not None and visited_total > budget or
                    deadline is not None and time.monotonic() > deadline):
                raise BudgetExceeded(d, d, [])
    return ScanResult(d, visited_total, witness)


# ---------------------------------------------------------------------------
# The minimal-length search.
# ---------------------------------------------------------------------------


def _check_budget(name: str, value: Optional[float]) -> None:
    if value is not None and not value >= 0:    # NaN fails too
        raise ValueError(f"{name} {value} must be nonnegative")


def omega_exhaustive(tower: FieldTower, k: int, r: int,
                     dim_cap: Optional[int] = None, threads: int = 1,
                     budget: Optional[int] = None,
                     time_budget_s: Optional[float] = None) -> OmegaResult:
    """Smallest dimension of a cutting r-blocking set of E^[k], with a
    witness certificate at the answer and an exhaustion certificate one
    dimension below.

    Ascends from the rule lower bound; the d-1 sweep runs even when the
    rules already pin the value.  Raises BudgetExceeded with the verified
    bracket when the node or time budget runs out (both are checked before
    each dimension scan and after each of its work units) or when
    ``dim_cap`` stops the sweep below the rule upper bound; a cap below the
    rule lower bound is a ValueError.
    """
    _check_budget("node budget", budget)
    _check_budget("time budget", time_budget_s)
    bounds = omega_bounds(tower.m, k, r)
    if dim_cap is not None and dim_cap < bounds.lower:
        raise ValueError(f"dim cap {dim_cap} is below the rule lower bound "
                         f"{bounds.lower}")
    hard_cap = k * tower.m if dim_cap is None else min(dim_cap, k * tower.m)
    spec = tower.spec_string()
    visited_total = 0
    certs: List[Certificate] = []
    deadline = (None if time_budget_s is None
                else time.monotonic() + time_budget_s)

    def scan(dim: int, stop_at_first: bool, bracket: Tuple[int, int],
             held: List[Certificate]) -> ScanResult:
        # a spent budget or a passed deadline reports the caller's bracket
        remaining = None if budget is None else budget - visited_total
        if not (remaining is not None and remaining <= 0 or
                deadline is not None and time.monotonic() > deadline):
            with contextlib.suppress(BudgetExceeded):
                return scan_dimension(tower, k, r, dim, stop_at_first,
                                      threads, budget=remaining,
                                      deadline=deadline)
        raise BudgetExceeded(*bracket, held)

    d = bounds.lower
    while d <= hard_cap:
        res = scan(d, True, (d, bounds.upper), certs)
        visited_total += res.visited
        if res.witness is None:
            certs.append(_exhaustion_certificate(tower, spec, k, r, d, res))
            d += 1
            continue
        # witness found at d: make sure d-1 was exhausted (every rule puts
        # bounds.lower >= k >= 1, so d-1 is a dimension)
        witness_cert = _witness_certificate(tower, spec, k, r, d, res.witness)
        if d > bounds.lower:
            exhaustion_cert = certs[-1]
        else:
            # a budget spent here still leaves [d, d]: the rules give the
            # lower end, and the witness (carried for checking) the upper
            below = scan(d - 1, False, (d, d), certs + [witness_cert])
            visited_total += below.visited
            if below.witness is not None:
                raise CertificateError("witness below the rule lower "
                                       "bound: bounds are wrong")
            exhaustion_cert = _exhaustion_certificate(
                tower, spec, k, r, d - 1, below)
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
    if d <= bounds.upper:
        raise BudgetExceeded(d, bounds.upper, certs)
    raise CertificateError("no cutting set found up to the dimension cap; "
                           "the upper-bound rules contradict the search")


def _witness_certificate(tower: FieldTower, spec: str, k: int, r: int,
                         d: int, witness: Subspace) -> Certificate:
    # re-verify through the public decider before certifying
    if not is_cutting(tower, k, witness, r).verdict:
        raise CertificateError("witness failed re-verification")
    return Certificate(
        kind="witness", tower_spec=spec, target="omega",
        params={"k": k, "r": r, "dimension": d},
        witness=witness.to_json(),
    )


def _check_exhausted(tower: FieldTower, k: int, res: ScanResult) -> None:
    """An exhausted sweep visits every subspace of its dimension in F^(km)."""
    expected = qbinom(tower.q, k * tower.m, res.dimension)
    if res.visited != expected:
        raise CertificateError(
            f"exhaustion visited {res.visited} != {expected}")


def _exhaustion_certificate(tower: FieldTower, spec: str, k: int, r: int,
                            d: int, res: ScanResult) -> Certificate:
    _check_exhausted(tower, k, res)
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
    if r is not None and r < 0:
        raise ValueError("r must be nonnegative")
    if constant_weight_r is not None and not 1 <= constant_weight_r < k:
        raise ValueError(f"constant weight r outside 1..{k - 1}")
    _check_budget("node budget", budget)
    total = qbinom(tower.order, n, k)
    if budget is not None and total > budget:
        raise BudgetExceeded(0, total, [])
    m = tower.m
    seen = minimal = constant = 0
    weight_dist: Dict[int, int] = {}
    for sub in enumerate_subspaces(tower, "E", n, k):
        code = RankCode(tower, n, sub.rows)
        seen += 1
        wt = weight(code)
        weight_dist[wt] = weight_dist.get(wt, 0) + 1
        if r is not None and is_r_minimal(code, r).verdict:
            minimal += 1
        if (constant_weight_r is not None and
                constant_weight_class(code, constant_weight_r).is_constant):
            constant += 1
    if seen != total:
        raise CertificateError(f"census visited {seen} codes, expected {total}")
    report = CountReport(
        inputs={"q": tower.q, "m": m, "n": n, "k": k,
                **({"r": r} if r is not None else {})},
        counts={"total": seen, "weight_distribution": weight_dist},
        formulas={"total_formula": total},
    )
    if r is not None:
        report.counts["r_minimal"] = minimal
        report.counts["not_r_minimal"] = seen - minimal
        if k == r + 1:
            formula = count_r_minimal(tower.q, m, n, r)
            if minimal != formula:
                raise CertificateError(f"census counted {minimal} r-minimal "
                                       f"codes, the closed form {formula}")
            report.formulas["r_minimal_formula"] = formula
    if constant_weight_r is not None:
        report.counts["constant_weight"] = constant
    if weight_of_interest is not None:
        report.counts["with_weight"] = weight_dist.get(weight_of_interest, 0)
    return report


# ---------------------------------------------------------------------------
# Maximal evasive dimension.
# ---------------------------------------------------------------------------


def max_evasive_dim(tower: FieldTower, k: int, h: int, t: int,
                    budget: Optional[int] = None,
                    ) -> Tuple[Optional[int], Optional[Subspace]]:
    """Largest dim_F of an (h,t)-evasive subspace of E^[k] and its earliest
    witness, or (None, None): omega's scan, on one thread, descends from km,
    and every dimension above the answer is checked exhausted."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 0 <= h <= k:
        raise ValueError(f"h={h} outside 0..{k}")
    _check_budget("node budget", budget)
    visited = 0
    for d in range(k * tower.m, -1, -1):
        remaining = None if budget is None else budget - visited
        try:
            res = _scan_evasive(tower, k, h, t, d, budget=remaining)
        except BudgetExceeded:
            raise BudgetExceeded(0, d, []) from None
        visited += res.visited
        if res.witness is not None:
            _check_evasive_caps(tower.m, k, h, t, d)
            if not is_evasive(tower, k, res.witness, h, t)[0]:
                raise CertificateError("witness failed re-verification")
            return d, res.witness
        _check_exhausted(tower, k, res)
    return None, None


def _check_evasive_caps(m: int, k: int, h: int, t: int, d: int) -> None:
    """The closed-form caps on an evasive dimension; needs 0 <= h <= k."""
    if t == h and d >= k + 1 and d > k * m // (h + 1):
        raise CertificateError("evasive dimension beats the cap")
    # k <-> (k - h, t - h, u) caps every (h, t)-evasive subspace of E^[k]
    # at dimension k + (t - h) + u = d - 1
    u = d - k - (t - h) - 1
    if t >= h and u >= 0 and \
            evasive_bound_certifies(m, k - h, t - h, u, k).certified:
        raise CertificateError(
            f"evasive dimension {d} beats a certified cap of {d - 1}")
