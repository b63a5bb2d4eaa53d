"""Exhaustive, certificate-producing searches: minimal cutting-set
dimensions, code censuses and maximal evasive dimensions.

Both dimension searches run one sweep of the d-dimensional F-subspaces of
E^[k] for an (h,t)-evasive one.  A cutting r-blocking set is the case
(k-r-1, d-mr-1), swept upward from the rule lower bound to the rule upper
bound; the maximal evasive dimension sweeps a fixed (h, t) downward from
km.  A minimal length is certified by a witness at dimension d plus an
exhaustion record at d-1, which always runs, so the value never rests on
the closed-form bounds alone.  A sweep whose budget is spent returns None,
and the search that ran it raises BudgetExceeded with its bracket.

One unit kernel serves every (h, t): ``is_evasive`` decides each
candidate.  When h >= 1, t < m and F^(km) fits a line table, an E-line
filter on packed rows runs first: every E-line lies in some h-dimensional
E-subspace, so a candidate fails when it meets some E-line in F-dimension
more than t.  The test is hereditary, so the filter is a recursion with
one node per RREF row, highest row first, and rows are tested by the
dimension lemma: adding a row w to the span A of the rows above raises
dim_F(A ∩ L) by at most 1 on every E-line L, and exactly on the lines of
the elements w + s, s in A.  So w fails iff one of those lines already
meets A in dimension t.  A node tests the next row's values against its
own span A once, for all of its passing values w together; under each w
it then looks up only the new elements of A + F * w, those off A, since
the elements of A are the same for every w.  A row value that fails
drops every fill under it; the dropped fills still count towards the
unit's visited total.

Work is split into units (pivot set, fill range).  One result loop
consumes the output of one unit worker, mapped in-process for a single
thread or by a fork pool whose workers inherit the scan context; results
merge by sum / earliest-witness, so the outcome is independent of worker
count and scheduling.  No symmetry reduction is applied: the total of
every exhausted dimension, in either search, is a raw subspace count and
must equal the q-binomial.  A census visits no code: it sums over the
column spans that contain F^k, weighted by the lemma ``census_codes``
states, and checks each dimension's sum against a closed form.

Checks that guard a certified answer raise CertificateError explicitly, so
they hold under ``python -O`` too.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import multiprocessing
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import (Any, Callable, Dict, FrozenSet, Iterator, List,
                    Optional, Sequence, Set, Tuple)

from .combinatorics import (
    CountReport,
    count_e_spanning,
    count_r_minimal,
    evasive_bound_certifies,
    omega_bounds,
    qbinom,
    qdelta,
)
from .fields import FieldTower, _row_kernel, int_to_digits
from .geometry import cutting_evasive_params, is_cutting, is_evasive
from .linalg import (
    ENUM_ORDER_TAG,
    CertificateError,
    Subspace,
    enumerate_subspaces,
    flatten_vector,
    free_cells,
    meet_dims,
    walk_fills,
)

SCHEMA_VERSION = 1
_FILL_CHUNK = 1 << 16

Rows = Tuple[Tuple[int, ...], ...]


class BudgetExceeded(RuntimeError):
    """Search ran out of budget; carries the verified bracket of a search
    that has one (lower and upper are None otherwise) and the certificates
    made before it ran out."""

    def __init__(self, lower: Optional[int] = None,
                 upper: Optional[int] = None,
                 certificates: Sequence[dict] = ()):
        bracket = ("" if lower is None else
                   f"; verified bracket [{lower}, {upper}]")
        super().__init__("budget exceeded" + bracket)
        self.lower = lower
        self.upper = upper
        self.certificates = list(certificates)


@dataclass
class ScanResult:
    dimension: int
    visited: int
    witness: Optional[Subspace] = None


@dataclass
class OmegaResult:
    value: int
    witness_certificate: dict
    exhaustion_certificate: dict
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
            "witness_certificate": self.witness_certificate,
            "exhaustion_certificate": self.exhaustion_certificate,
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
    """The fills in lo..hi-1 whose span meets every E-line in F-dimension
    at most t, in increasing order.

    One node per RREF row, row d-1 first.  Row r's cells are digits
    first[r] .. first[r+1]-1 of a fill, so the values of row r under the
    fill ``base`` of rows r+1..d-1 are the fills base + a * q^first[r],
    each the head of a block of q^first[r] fills, clipped to [lo, hi).
    Rows are tested by the dimension lemma.  Let A be the span of the rows
    above and w a value of row r.  Adding w raises dim_F(A ∩ L) by at most
    1 on every E-line L, and exactly on the lines that hold a new element
    lambda * w + s (lambda in F*, s in A).  L is closed under F-scalars, so
    those are ``up``, the lines of the coset w + A, and w fails iff one of
    them already meets A in dimension t.  ``depth`` holds dim_F(A ∩ L) for
    every line and ``capped`` the lines at depth t.  The test is
    hereditary (a subspace of S meets every line in a subspace of S's
    meet), so a failing value rejects its whole block.

    A node holds A and the passing values w of its row, each with its
    ``up``, and tests the next row's values x under all of them.  The span
    under w is B = A + F * w: A and the new elements lambda * w + s.  So
    the node tests x against A once, before any w: x is dead if a line of
    x + A is capped, and otherwise keeps those lines at depth t - 1, its
    ``edge``.  Under w, a line at depth t - 1 reaches t exactly when it is
    in ``up``.  So x fails under w iff ``up`` meets its edge, or a line of
    a new element x + lambda * w + s is capped, or in ``up`` at depth
    t - 1: under each w, x looks up only its new elements, not the
    elements of A, which every sibling of w shares.  That test reads
    ``up`` beside the depths, so w raises ``depth`` on ``up`` only when
    its passing values have a row below, while that row runs; the last
    row's passing values are yielded by the loop that tests them, with
    no node of their own.  Needs t >= 1: ``_scan_evasive`` settles t <= 0
    without a unit.
    """
    tower = table.tower
    p, e, m, q = tower.p, tower.e, tower.m, tower.q
    ambient = table.k * m
    d = len(pivots)
    # A row value is held as its e scalings beta_j * row side by side
    # (beta_j = x^j, a GF(p)-basis of F), block j from bit j * block on;
    # the low block is the row itself.  Every slot holds exactly one
    # digit, so summing cell values is a plain integer add.
    block = table.width * ambient * e

    betas = [p ** j for j in range(e)]
    scale = _row_kernel(tower.F)[0]

    def scaled(col: int, a: int) -> int:
        return sum(table.pack((x,), col) << (j * block)
                   for j, x in enumerate(scale(a, betas)))

    cells = free_cells(pivots, ambient)
    val = [[scaled(c, a) for a in range(q)] for _, c in cells]
    unfilled = [scaled(c, 1) for c in pivots]
    first = [sum(1 for i, _ in cells if i < r) for r in range(d + 1)]
    size = [q ** j for j in first]
    split = [j * block for j in range(e)]
    low_block = (1 << block) - 1
    # slot-wise mod-p add for odd p: s = u + g; u = s - p * (slots >= p)
    top_bit = table.width - 1
    ones = sum(1 << (table.width * s) for s in range(ambient * e))
    carry = ((1 << top_bit) - p) * ones
    line_of = table.line_of
    depth = bytearray(table.num_lines)     # never above t
    capped: Set[int] = set()
    full: List[Optional[List[List[int]]]] = [None] * d

    if p == 2:
        def cosets(xs: List[int], span: List[int]) -> List[int]:
            # the packed sums x + s, x in xs, s in span
            return [x ^ s for x in xs for s in span]
    else:
        def cosets(xs: List[int], span: List[int]) -> List[int]:
            return [x + s - p * (((x + s + carry) >> top_bit) & ones)
                    for x in xs for s in span]

    def multiples(w: int) -> List[int]:
        # lambda * w for lambda in F*, w first: the GF(p)-span of the
        # scalings beta_j * w, one generator at a time, less 0
        span = [0]
        for sh in split:
            layer = span
            for _ in range(p - 1):
                layer = cosets([(w >> sh) & low_block], layer)
                span = span + layer
        return span[1:]

    def row_values(r: int, a: int, stop: int) -> List[List[int]]:
        # the multiples of row r's values for digits a .. stop-1: the sums
        # of its low cells (at most stop - a of them) under each high
        # prefix the range meets
        j0, j1 = first[r], first[r + 1]
        whole = a == 0 and q ** (j1 - j0) == stop
        if whole and full[r] is not None:
            return full[r]
        j = j0
        while j < j1 and q ** (j + 1 - j0) <= stop - a:
            j += 1
        sums = [0]
        for c in range(j - 1, j0 - 1, -1):
            sums = [u + x for u in sums for x in val[c]]
        n = len(sums)
        out: List[int] = []
        for h in range(a // n, -(-stop // n)):
            digits = int_to_digits(h, q, j1 - j)
            head = unfilled[r] + sum(val[c][x]
                                     for c, x in enumerate(digits, j))
            out += [head + u for u in sums]
        listed = [multiples(w) for w in out[a % n:a % n + stop - a]]
        if whole:
            full[r] = listed
        return listed

    def clip(r: int, base: int) -> Tuple[int, int]:
        # the digits a .. stop-1 of row r that [lo, hi) meets under the
        # block of fills from ``base`` that the rows above fix
        return (max(lo - base, 0) // size[r],
                -(-min(hi - base, size[r + 1]) // size[r]))

    def node(r: int, span: List[int],
             kids: List[Tuple[int, List[int], FrozenSet[int]]],
             ) -> Iterator[int]:
        # kids: (first fill, multiples, up) of row r's passing values, in
        # order; row r-1 is tested under each of them
        (a, s), (a1, s1) = clip(r - 1, kids[0][0]), clip(r - 1, kids[-1][0])
        a = min(a, a1)
        listed = row_values(r - 1, a, max(s, s1))
        live = []
        for j, xs in enumerate(listed, a):
            x = xs[0]
            edge, rest = [], []
            for u in span:
                if p == 2:
                    lid = line_of[x ^ u]
                else:
                    u += x
                    lid = line_of[u - p * (((u + carry) >> top_bit) & ones)]
                if depth[lid] == t - 1:
                    edge.append(lid)
                elif depth[lid] == t:
                    break
                else:
                    rest.append(lid)
            else:
                live.append((j, frozenset(edge), xs, rest))
        for base, ws, up in kids:
            if lo <= base and base + size[r] <= hi:
                tried = live
            else:
                a, s = clip(r - 1, base)
                tried = live[bisect.bisect_left(live, (a,)):
                             bisect.bisect_left(live, (s,))]
            new = cosets(ws, span)
            # a new element fails on a line at depth t, or in up at t - 1
            near = capped.union(up)
            passing = []
            for j, edge, xs, rest in tried:
                if up.isdisjoint(edge):
                    x = xs[0]
                    if p == 2:
                        for u in new:
                            if (lid := line_of[x ^ u]) in near and \
                                    depth[lid] >= t - 1:
                                break
                        else:
                            passing.append((j, edge, xs, rest))
                    else:
                        for u in new:
                            u += x
                            if (lid := line_of[u - p * (((u + carry)
                                                         >> top_bit) & ones)]
                                ) in near and depth[lid] >= t - 1:
                                break
                        else:
                            passing.append((j, edge, xs, rest))
            if not passing:
                continue
            if r == 1:
                yield from [base + j for j, _, _, _ in passing]
                continue
            for lid in up:
                depth[lid] += 1
            hot = [lid for lid in up if depth[lid] == t]
            capped.update(hot)
            below = []
            for j, edge, xs, rest in passing:
                # the kid's up: the lines of x + A and of its new elements
                x = xs[0]
                if p == 2:
                    rest = rest + [line_of[x ^ u] for u in new]
                else:
                    rest = rest + [line_of[x + u - p * (((x + u + carry)
                                                         >> top_bit) & ones)]
                                   for u in new]
                below.append((base + j * size[r - 1], xs, edge.union(rest)))
            yield from node(r - 1, span + new, below)
            capped.difference_update(hot)
            for lid in up:
                depth[lid] -= 1

    if lo < hi:
        a, stop = clip(d - 1, 0)
        # every single row passes under the zero span, since t >= 1
        tops = [(j * size[d - 1], ws, frozenset([line_of[ws[0]]]))
                for j, ws in enumerate(row_values(d - 1, a, stop), a)]
        yield from (node(d - 1, [0], tops) if d > 1
                    else (base for base, _, _ in tops))


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
    through ``is_evasive``; past the first witness fills are only counted.
    A unit of a stopped pool returns at once; the driver reads none of its
    results."""
    if _stopped():
        return 0, None
    ambient, q = k * tower.m, tower.q
    if line_test is None:
        candidates = enumerate(walk_fills(pivots, ambient, q, lo, hi), lo)
    else:
        candidates = ((fill, next(walk_fills(pivots, ambient, q,
                                             fill, fill + 1)))
                      for fill in _line_survivors(line_test, t, pivots,
                                                  lo, hi))
    for fill, rows in candidates:
        if _stopped():
            return 0, None
        sub = Subspace(tower, "F", ambient, rows, pivots)
        if is_evasive(tower, k, sub, h, t)[0]:
            return (fill - lo + 1 if stop_at_first else hi - lo), sub.rows
    return hi - lo, None


# The unit worker of the running scan, (pivots, lo, hi) -> (visited, witness
# rows or None), and while a pool runs it, the pool's shared stop flag.  Both
# are set before the pool forks, so workers inherit them.
_UNIT_WORKER: Optional[Callable] = None
_STOP: Optional[Any] = None


def _run_unit(unit) -> Tuple[int, Optional[Rows]]:
    return _UNIT_WORKER(*unit)


def _stopped() -> bool:
    """Has the driver left the running pool?"""
    return _STOP is not None and _STOP.value == 1


def scan_dimension(tower: FieldTower, k: int, r: int, d: int,
                   stop_at_first: bool = True, threads: int = 1,
                   shards: int = 1, shard_index: int = 0,
                   budget: Optional[int] = None,
                   deadline: Optional[float] = None) -> Optional[ScanResult]:
    """Scan every d-dimensional F-subspace of E^[k] for a cutting r-blocking
    set: the evasive scan at (h, t) = (k-r-1, d-mr-1), None once its budget
    or deadline is spent."""
    h, t = cutting_evasive_params(tower.m, k, r, d)
    if not 0 <= d <= k * tower.m:
        raise ValueError(f"scan dimension {d} outside 0..{k * tower.m}")
    return _scan_evasive(tower, k, h, t, d, stop_at_first, threads,
                         shards, shard_index, budget, deadline)


def _scan_evasive(tower: FieldTower, k: int, h: int, t: int, d: int,
                  stop_at_first: bool = True, threads: int = 1,
                  shards: int = 1, shard_index: int = 0,
                  budget: Optional[int] = None,
                  deadline: Optional[float] = None) -> Optional[ScanResult]:
    """Scan every d-dimensional F-subspace of E^[k] for an (h,t)-evasive
    one, in enumeration order.  Deterministic for any thread count.
    Returns None once the node budget or the ``time.monotonic()`` deadline
    is spent: both are checked before the sweep starts and after each work
    unit, whose witness still counts.
    A dimension where no candidate passes, d < k (no E-span E^k) or
    t < min(h, 1) (an E-line, or for h = 0 the zero E-subspace, already
    meets S in more than t), builds no unit: it is counted per pivot set,
    and the count is checked against the node budget alone."""
    global _UNIT_WORKER, _STOP
    if not 0 <= shard_index < shards:
        raise ValueError(f"need shards >= 1 and 0 <= shard_index < shards, "
                         f"got shards={shards}, shard_index={shard_index}")
    if (budget is not None and budget <= 0 or
            deadline is not None and time.monotonic() > deadline):
        return None
    ambient = k * tower.m
    if d < k or t < min(h, 1):
        visited = sum(tower.q ** len(free_cells(pivots, ambient)) for pivots
                      in _pivot_sets(ambient, d, shards, shard_index))
        if budget is not None and visited > budget:
            return None
        return ScanResult(d, visited)
    units = _units(ambient, d, tower.q, shards, shard_index)
    head = list(itertools.islice(units, 2))
    units = itertools.chain(head, units)
    table = (_line_table(tower, k) if _line_test_applies(tower, k, h, t)
             else None)
    _UNIT_WORKER = functools.partial(_scan_unit, tower, k, h, t, table,
                                     stop_at_first=stop_at_first)

    def sweep(results: Iterator[Tuple[int, Optional[Rows]]],
              ) -> Optional[ScanResult]:
        visited_total = 0
        witness: Optional[Subspace] = None
        for visited, rows in results:
            visited_total += visited
            if rows is not None and witness is None:
                witness = Subspace.span(tower, "F", ambient, rows)
                if stop_at_first:
                    return ScanResult(d, visited_total, witness)
            if (budget is not None and visited_total > budget or
                    deadline is not None and time.monotonic() > deadline):
                return None
        return ScanResult(d, visited_total, witness)

    if threads < 2 or len(head) < 2:
        return sweep(map(_run_unit, units))
    # The pool is left by its stop flag, close() and join(), never by
    # terminate(): that kills workers, and one killed while it holds the
    # result queue's lock blocks the pool's task handler for good.  Once
    # the flag is up, no unit is queued, queued units return at once and a
    # running unit stops at its next candidate.
    stop = _STOP = multiprocessing.RawValue("b", 0)
    pool = multiprocessing.get_context("fork").Pool(threads)
    try:
        res = sweep(pool.imap(_run_unit, itertools.takewhile(
            lambda _: stop.value == 0, units), chunksize=1))
    finally:
        stop.value = 1
        _STOP = None
        pool.close()
    pool.join()
    return res


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

    Ascends from the rule lower bound to the rule upper bound (or
    ``dim_cap``, if lower), each dimension stopping at its first witness;
    the d-1 sweep runs even when the rules already pin the value.  Raises
    BudgetExceeded with the verified bracket when a sweep reports its node
    or time budget spent, or when ``dim_cap`` stops the ascent below the
    rule upper bound; a cap below the rule lower bound is a ValueError.
    No witness up to the rule upper bound is a CertificateError.
    """
    _check_budget("node budget", budget)
    _check_budget("time budget", time_budget_s)
    bounds = omega_bounds(tower.m, k, r)
    if dim_cap is not None and dim_cap < bounds.lower:
        raise ValueError(f"dim cap {dim_cap} is below the rule lower bound "
                         f"{bounds.lower}")
    top = bounds.upper if dim_cap is None else min(dim_cap, bounds.upper)
    spec = tower.spec_string()
    visited_total = 0
    certs: List[dict] = []
    deadline = (None if time_budget_s is None
                else time.monotonic() + time_budget_s)

    def scan(dim: int, bracket: Tuple[int, int],
             held: List[dict]) -> ScanResult:
        # a spent budget or a passed deadline reports the caller's bracket
        res = scan_dimension(
            tower, k, r, dim, threads=threads, deadline=deadline,
            budget=None if budget is None else budget - visited_total)
        if res is None:
            raise BudgetExceeded(*bracket, held)
        return res

    for d in range(bounds.lower, top + 1):
        res = scan(d, (d, bounds.upper), certs)
        visited_total += res.visited
        if res.witness is None:
            certs.append(_certificate("exhaustion", spec, k, r, d,
                                      _exhausted(tower, k, res)))
            continue
        # witness found at d: re-verify it through the public decider, and
        # make sure d-1 was exhausted (every rule puts bounds.lower >= k >= 1,
        # so d-1 is a dimension)
        if not is_cutting(tower, k, res.witness, r).verdict:
            raise CertificateError("witness failed re-verification")
        witness_cert = _certificate("witness", spec, k, r, d,
                                    res.witness.to_json())
        if d > bounds.lower:
            exhaustion_cert = certs[-1]
        else:
            # a budget spent here still leaves [d, d]: the rules give the
            # lower end, and the witness (carried for checking) the upper
            below = scan(d - 1, (d, d), certs + [witness_cert])
            visited_total += below.visited
            if below.witness is not None:
                raise CertificateError("witness below the rule lower "
                                       "bound: bounds are wrong")
            exhaustion_cert = _certificate("exhaustion", spec, k, r, d - 1,
                                           _exhausted(tower, k, below))
        return OmegaResult(
            value=d,
            witness_certificate=witness_cert,
            exhaustion_certificate=exhaustion_cert,
            bounds_lower=bounds.lower,
            bounds_upper=bounds.upper,
            paper_verified=bounds.exact,
            visited_total=visited_total,
        )
    if top < bounds.upper:
        raise BudgetExceeded(top + 1, bounds.upper, certs)
    raise CertificateError("no cutting set found up to the rule upper bound: "
                           "the rules contradict the search")


def _certificate(kind: str, spec: str, k: int, r: int, d: int,
                 body: dict) -> dict:
    """A witness or exhaustion certificate of omega at dimension d, as
    written to the wire: ``body`` sits under the key ``kind``."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "tower": spec,
            "target": "omega", "params": {"k": k, "r": r, "dimension": d},
            "enum_order": ENUM_ORDER_TAG, kind: body}


def _exhausted(tower: FieldTower, k: int, res: ScanResult) -> dict:
    """The exhaustion record of a sweep without a witness, which must have
    visited every subspace of its dimension in F^(km)."""
    expected = qbinom(tower.q, k * tower.m, res.dimension)
    if res.visited != expected:
        raise CertificateError(
            f"exhaustion visited {res.visited} != {expected}")
    return {"dimension": res.dimension, "total_visited": res.visited,
            "counterexample_free": True}


# ---------------------------------------------------------------------------
# Code census.
# ---------------------------------------------------------------------------


def _frame_spans(tower: FieldTower, k: int, top: int) -> Iterator[Subspace]:
    """Every F-subspace U of F^(km) with F^k <= U and dim U <= top, once,
    by dimension: U = F^k + T, T an RREF subspace of the kept columns.

    F^k is spanned by the flattened e_b * 1.  Each block drops its first
    column where the coordinates of 1 are nonzero (column b*m in the
    polynomial basis).  F^k meets the kept columns' span K only at 0, and
    together they span F^(km), so U -> U cap K maps the U >= F^k one to one
    onto the subspaces of K.
    """
    m = tower.m
    skip = next(j for j, c in enumerate(tower.to_coords(1)) if c)
    frame = [flatten_vector(tower, [int(b == c) for c in range(k)])
             for b in range(k)]
    kept = [b * m + j for b in range(k) for j in range(m) if j != skip]
    for d in range(k, top + 1):
        for t in enumerate_subspaces(tower, "F", len(kept), d - k):
            rows = list(frame)
            for row in t.rows:
                vec = [0] * (k * m)
                for col, x in zip(kept, row):
                    vec[col] = x
                rows.append(vec)
            yield Subspace.span(tower, "F", k * m, rows)


def _basis_count(tower: FieldTower, meets: Sequence[Sequence[int]]) -> int:
    """beta(U), the ordered E-bases of E^k inside U, where meets[h] lists
    dim_F(U cap W) over the h-dimensional E-subspaces W, h = 0 .. k.

    U^k holds q^(k dim(U cap W)) tuples inside W; Moebius inversion over
    the subspace lattice of E^k, mu(W, E^k) = (-1)^j Q^(j(j-1)/2) with
    j = k - dim W, keeps those whose E-span is E^k.  It is 1 at k = 0.
    """
    k, q, big_q = len(meets) - 1, tower.q, tower.order
    return sum((-1) ** (k - h) * big_q ** ((k - h) * (k - h - 1) // 2)
               * sum(q ** (k * meet) for meet in row)
               for h, row in enumerate(meets))


def census_codes(tower: FieldTower, n: int, k: int,
                 r: Optional[int] = None,
                 weight_of_interest: Optional[int] = None,
                 constant_weight_r: Optional[int] = None,
                 budget: Optional[int] = None) -> CountReport:
    """Count the [n,k] codes, by weight, the r-minimal ones and optionally
    those whose r-dimensional subcodes share one weight, without visiting
    a code.

    Each count reads only the column span U = <cols(G)>_F inside
    F^(km) = E^[k], which E-spans E^k: wt(C) = dim U, C is r-minimal iff U
    is a cutting r-blocking set, and the r-dimensional subcode weights are
    dim U - dim(U cap M) over the (k-r)-dimensional E-subspaces M.  All
    three are GL(k,E)-invariant, and each GL(k,E)-orbit of these spans
    meets the U containing F^k (``_frame_spans``), so for such a property P

        #codes with P = sum over U >= F^k with P(U) of
                        surj(q, n, dim U) / beta(U),

    where surj(q, n, u) = prod_{i<u} (q^n - q^i) counts the n-tuples of
    columns that span U and beta(U) the ordered E-bases of E^k inside U
    (``_basis_count``).  Checks, each a CertificateError: for every
    dimension d, |GL(k,Q)| times the sum of 1/beta(U) over the spans of
    dimension d is A_d(k) (``count_e_spanning``); every count is an
    integer; the total is qbinom(Q, n, k); at k = r + 1 and n >= k the
    r-minimal count is ``count_r_minimal``.  A budget below the number of
    codes is refused before any work.
    """
    if n < 0:
        raise ValueError(f"n={n} must be nonnegative")
    if k < 0:
        raise ValueError(f"k={k} must be nonnegative")
    if r is not None and r < 0:
        raise ValueError("r must be nonnegative")
    if constant_weight_r is not None and not 1 <= constant_weight_r < k:
        raise ValueError(f"constant weight r outside 1..{k - 1}")
    _check_budget("node budget", budget)
    total = qbinom(tower.order, n, k)
    if budget is not None and total > budget:
        raise BudgetExceeded()
    q, m = tower.q, tower.m
    # per dimension, the sums of 1/beta(U) over every span, the r-minimal
    # spans and the constant-weight spans
    sums: Dict[int, List[Fraction]] = {}
    for u in _frame_spans(tower, k, min(n, k * m)):
        meets = [[meet for _, meet in meet_dims(u, h)] for h in range(k + 1)]
        share = Fraction(1, _basis_count(tower, meets))
        dim_sums = sums.setdefault(u.dim, [Fraction(0)] * 3)
        dim_sums[0] += share
        if r is not None and (not 1 <= r < k
                              or is_cutting(tower, k, u, r).verdict):
            dim_sums[1] += share
        if constant_weight_r is not None:
            one_weight = len({u.dim - meet
                              for meet in meets[k - constant_weight_r]}) == 1
            if one_weight != (u.dim == m * k):
                raise CertificateError("constant-weight conditions disagree")
            dim_sums[2] += share * one_weight
    # every code count of each dimension: all, r-minimal, constant weight
    group, counts = qdelta(tower.order, k, k), {}
    for d, dim_sums in sums.items():
        spanning = count_e_spanning(q, m, k, d)
        if group * dim_sums[0] != spanning:
            raise CertificateError(
                f"the spans of dimension {d} count {group * dim_sums[0]} "
                f"F-subspaces that E-span E^{k}, the closed form {spanning}")
        counts[d] = [qdelta(q, n, d) * s for s in dim_sums]
        if any(c.denominator != 1 for c in counts[d]):
            raise CertificateError(f"census counted {counts[d]} codes of "
                                   f"weight {d}, not whole numbers")
    weight_dist = {d: int(row[0]) for d, row in counts.items()}
    minimal, constant = (sum(int(row[i]) for row in counts.values())
                         for i in (1, 2))
    if sum(weight_dist.values()) != total:
        raise CertificateError(f"census counted {sum(weight_dist.values())} "
                               f"codes, expected {total}")
    report = CountReport(
        inputs={"q": tower.q, "m": m, "n": n, "k": k,
                **({"r": r} if r is not None else {})},
        counts={"total": total, "weight_distribution": weight_dist},
        formulas={"total_formula": total},
    )
    if r is not None:
        report.counts["r_minimal"] = minimal
        report.counts["not_r_minimal"] = total - minimal
        if k == r + 1 and n >= k:
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
        res = _scan_evasive(tower, k, h, t, d, budget=None if budget is None
                            else budget - visited)
        if res is None:
            raise BudgetExceeded()
        visited += res.visited
        if res.witness is not None:
            _check_evasive_caps(tower.m, k, h, t, d)
            if not is_evasive(tower, k, res.witness, h, t)[0]:
                raise CertificateError("witness failed re-verification")
            return d, res.witness
        _exhausted(tower, k, res)
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
