"""Matrices and canonical subspaces over either level of a field tower.

A subspace is always stored as the reduced row echelon form of a basis
matrix, so equality and hashing are structural; subspaces of different
towers are never equal, even with the same rows.  Enumeration of all
d-dimensional subspaces of K^N walks pivot-column sets in lexicographic
order and fills the free cells in row-major base-|K| counting order
(enumeration order tag: ``subspace-enum/1``); the search module shards by
this order.  The free cells are the odometer: a step changes one cell,
and one more for each carry.

Rows are tuples of int-encoded field elements.  Subspaces are built on
the row kernel and the one elimination that ``fields`` keeps beside the
field engines (``_row_kernel``, ``rref``, ``mat_vec``, re-exported here):
every row operation below goes through the kernel of its level.  When the
base field is GF(2) the rows also pack into ints, which the rank helpers
below use.

The deciders sweep the flattened h-dimensional E-subspaces of E^k
(``flat_grid``, read by ``meet_dims`` and the cutting routes).  One job
sweeps the same few grids again and again, so a small grid is flattened
once and kept for the job, within one budget of flattened rows over all
kept grids; a grid larger than the budget streams.
"""

from __future__ import annotations

import itertools
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .fields import (Field, FieldTower, RowOp, _row_kernel, int_to_digits,
                     mat_vec, rref)

ENUM_ORDER_TAG = "subspace-enum/1"


class AmbientMismatch(ValueError):
    """Operands live in different ambient spaces or field levels."""


class CertificateError(AssertionError):
    """A check that guards a certified answer or a cross-check failed.

    Raised explicitly, so the guard stays active under ``python -O``.
    """


# ---------------------------------------------------------------------------
# Bit-packed GF(2) helpers (rows as ints, bit i = column i).
# ---------------------------------------------------------------------------


def pack_gf2(row: Sequence[int]) -> int:
    x = 0
    for i, v in enumerate(row):
        if v:
            x |= 1 << i
    return x


def rank_gf2(rows: Iterable[int]) -> int:
    basis = {}  # lowest set bit -> reduced row with that pivot
    for v in rows:
        while v:
            low = v & -v
            b = basis.get(low)
            if b is None:
                basis[low] = v
                break
            v ^= b
    return len(basis)


# ---------------------------------------------------------------------------
# Canonical subspaces.
# ---------------------------------------------------------------------------


def _reduce(axpy: RowOp, rows: Sequence[Sequence[int]],
            pivots: Sequence[int], vec: Sequence[int]) -> Sequence[int]:
    """vec minus the combination of the RREF ``rows`` that clears its
    entries at ``pivots``."""
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c != 0:
            vec = axpy(c, vec, row)
    return vec


class Subspace:
    """A subspace of K^N in canonical RREF form (K = one tower level)."""

    __slots__ = ("tower", "level_name", "ambient", "rows", "pivots", "_packed")

    def __init__(self, tower: FieldTower, level_name: str, ambient: int,
                 rows: Tuple[Tuple[int, ...], ...],
                 pivots: Tuple[int, ...]):
        self.tower = tower
        self.level_name = level_name
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._packed: Optional[List[int]] = None

    # -- constructors ------------------------------------------------------
    @staticmethod
    def span(tower: FieldTower, level_name: str, ambient: int,
             vectors: Sequence[Sequence[int]]) -> "Subspace":
        level = tower.F if level_name == "F" else tower.E
        vecs = [v for v in vectors if any(v)]
        if any(len(v) != ambient for v in vecs):
            raise AmbientMismatch("vector length does not match ambient")
        rows, _, pivots = rref(vecs, level)
        return Subspace(tower, level_name, ambient, rows, pivots)

    @staticmethod
    def full(tower: FieldTower, level_name: str, ambient: int) -> "Subspace":
        rows = tuple(
            tuple(1 if j == i else 0 for j in range(ambient))
            for i in range(ambient)
        )
        return Subspace(tower, level_name, ambient, rows, tuple(range(ambient)))

    # -- basics --------------------------------------------------------------
    @property
    def level(self) -> Field:
        return self.tower.F if self.level_name == "F" else self.tower.E

    @property
    def dim(self) -> int:
        return len(self.rows)

    def packed(self) -> List[int]:
        """Rows as GF(2) bitmasks; only valid when |K| = 2."""
        if self._packed is None:
            self._packed = [pack_gf2(r) for r in self.rows]
        return self._packed

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.level_name == other.level_name
                and self.ambient == other.ambient
                and self.rows == other.rows
                and (self.tower is other.tower or self.tower == other.tower))

    def __hash__(self) -> int:
        return hash((self.level_name, self.ambient, self.rows))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Subspace({self.level_name}^{self.ambient}, dim={self.dim})")

    def _check_compat(self, other: "Subspace") -> None:
        if (self.level_name != other.level_name
                or self.ambient != other.ambient
                or self.tower is not other.tower and self.tower != other.tower):
            raise AmbientMismatch("subspaces live in different spaces")

    # -- membership ----------------------------------------------------------
    def reduce_vector(self, vec: Sequence[int]) -> Tuple[int, ...]:
        """Reduce vec modulo this subspace (eliminate pivot coordinates)."""
        if len(vec) != self.ambient:
            raise AmbientMismatch("vector length does not match ambient")
        return tuple(_reduce(_row_kernel(self.level)[1], self.rows,
                             self.pivots, vec))

    def contains_vector(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce_vector(vec))

    def contains(self, other: "Subspace") -> bool:
        self._check_compat(other)
        return all(self.contains_vector(r) for r in other.rows)

    # -- lattice operations ----------------------------------------------------
    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        return Subspace.span(self.tower, self.level_name, self.ambient,
                             list(self.rows) + list(other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: RREF of [[A|A],[B|0]]; zero-left rows carry A cap B."""
        self._check_compat(other)
        n = self.ambient
        stacked = [tuple(r) + tuple(r) for r in self.rows]
        stacked += [tuple(r) + (0,) * n for r in other.rows]
        rows, _, _ = rref(stacked, self.level)
        inter = [r[n:] for r in rows if not any(r[:n])]
        return Subspace.span(self.tower, self.level_name, n, inter)

    def intersection_dim(self, other: "Subspace") -> int:
        """dim(A cap B).  Over GF(2): dim A + dim B - rank(A u B) on packed
        rows.  Otherwise the smaller operand B is reduced modulo the other
        one's pivots, and dim(A cap B) = dim B - rank(remainders)."""
        self._check_compat(other)
        if self.dim == 0 or other.dim == 0:
            return 0
        if self.level.order == 2:
            return (self.dim + other.dim
                    - rank_gf2(self.packed() + other.packed()))
        a, b = (self, other) if self.dim >= other.dim else (other, self)
        axpy = _row_kernel(self.level)[1]
        rest = [v for v in (_reduce(axpy, a.rows, a.pivots, u)
                            for u in b.rows) if any(v)]
        return b.dim - (rref(rest, self.level)[1] if len(rest) > 1
                        else len(rest))

    # -- duality ------------------------------------------------------------
    def dual(self) -> "Subspace":
        """Orthogonal complement under the standard bilinear form a.b^T."""
        n = self.ambient
        level = self.level
        neg = level.neg
        free = [c for c in range(n) if c not in self.pivots]
        basis = []
        # for each free column c: vector with 1 at c and -row[c] at pivots
        for c in free:
            v = [0] * n
            v[c] = 1
            for row, p in zip(self.rows, self.pivots):
                v[p] = neg(row[c])
            basis.append(tuple(v))
        return Subspace.span(self.tower, self.level_name, n, basis)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> dict:
        tower = self.tower
        enc = tower.encode if self.level_name == "E" else (lambda x: x)
        obj = {
            "level": self.level_name,
            "ambient": self.ambient,
            "dim": self.dim,
            "rref_basis": [[enc(v) for v in row] for row in self.rows],
        }
        if self.level_name == "F" and self.ambient % tower.m == 0:
            k = self.ambient // tower.m
            obj["view"] = f"E^{k} as F^{self.ambient}"
        return obj

    @staticmethod
    def from_json(tower: FieldTower, obj: dict) -> "Subspace":
        if not isinstance(obj, dict) or obj.get("level") not in ("F", "E"):
            raise ValueError('subspace "level" must be "F" or "E"')
        level_name = obj["level"]
        order, dec = ((tower.order, tower.decode) if level_name == "E"
                      else (tower.q, int))
        rows = decode_rows(obj, "rref_basis", "ambient", order, dec)
        sub = Subspace.span(tower, level_name, obj["ambient"], rows)
        check_stated_dim(obj, "dim", sub.dim)
        return sub


def decode_rows(obj: dict, rows_key: str, width_key: str, order: int,
                dec: Callable[[int], int]) -> List[List[int]]:
    """Decode the element rows of a wire object, rejecting malformed shapes
    (see docs/json-schemas-v1.md) with ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key in (width_key, rows_key):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    width, rows = obj[width_key], obj[rows_key]
    # bool subclasses int, but a JSON true/false is no count or element
    if type(width) is not int or width < 0:
        raise ValueError(f"{width_key!r} must be a nonnegative integer")
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == width for row in rows):
        raise ValueError(f"{rows_key!r} must be a list of rows of length "
                         f"{width}")
    if not all(type(v) is int and 0 <= v < order
               for row in rows for v in row):
        raise ValueError(f"{rows_key!r} entries must be integers in "
                         f"[0, {order})")
    return [[dec(v) for v in row] for row in rows]


def check_stated_dim(obj: dict, key: str, dim: int) -> None:
    """A wire object's stated dimension, optional, must be the integer that
    its rows load as (see docs/json-schemas-v1.md); ValueError otherwise."""
    if key in obj and (type(obj[key]) is not int or obj[key] != dim):
        raise ValueError(f"{key!r} must be {dim}, the dimension the rows "
                         f"load as, not {obj[key]!r}")


# ---------------------------------------------------------------------------
# Deterministic enumeration of all d-dimensional subspaces of K^N.
# ---------------------------------------------------------------------------


def free_cells(pivots: Sequence[int], ncols: int) -> List[Tuple[int, int]]:
    """Row-major list of fillable cells for an RREF pivot set."""
    pivset = set(pivots)
    return [(r, c) for r, p in enumerate(pivots)
            for c in range(p + 1, ncols) if c not in pivset]


def walk_fills(pivots: Sequence[int], ncols: int, order: int,
               lo: int = 0, hi: Optional[int] = None,
               ) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """RREF rows of the fills lo .. hi-1 (default: all) of a pivot set: the
    free cells start at the base-|K| digits of ``lo``, and each step adds 1
    to cell 0, carrying on while a cell wraps to 0."""
    rows = [[0] * ncols for _ in pivots]
    for row, p in zip(rows, pivots):
        row[p] = 1
    cells = [(rows[r], c) for r, c in free_cells(pivots, ncols)]
    if lo:
        for (row, c), dgt in zip(cells, int_to_digits(lo, order, len(cells))):
            row[c] = dgt
    last = order - 1
    for _ in range(lo, order ** len(cells) if hi is None else hi):
        yield tuple(map(tuple, rows))
        for row, c in cells:
            if row[c] != last:
                row[c] += 1
                break
            row[c] = 0


def enumerate_subspaces(tower: FieldTower, level_name: str, ambient: int,
                        d: int) -> Iterator[Subspace]:
    """Yield every d-dimensional subspace of K^N exactly once.

    Order: pivot-column sets lexicographically, then free cells filled in
    row-major base-|K| counting order (tag ``subspace-enum/1``).
    """
    if d < 0:
        return
    order = (tower.F if level_name == "F" else tower.E).order
    for pivots in itertools.combinations(range(ambient), d):
        for rows in walk_fills(pivots, ambient, order):
            yield Subspace(tower, level_name, ambient, rows, pivots)


def subspaces_of(sub: Subspace, d: int) -> Iterator[Subspace]:
    """All d-dimensional subspaces of a given subspace, in the order induced
    by enumerating coefficient space and mapping through the basis."""
    s = sub.dim
    if d > s:
        return
    tower, level = sub.tower, sub.level
    for coeff in enumerate_subspaces(tower, sub.level_name, s, d):
        vecs = [mat_vec(level, sub.rows, row) for row in coeff.rows]
        yield Subspace.span(tower, sub.level_name, sub.ambient, vecs)


# ---------------------------------------------------------------------------
# Moving between the E-level and the flattened F-level view of E^k.
# ---------------------------------------------------------------------------


def flatten_vector(tower: FieldTower, vec: Sequence[int]) -> Tuple[int, ...]:
    """E^k -> F^(km): concatenate the basis coordinates of each component."""
    out: List[int] = []
    for x in vec:
        out.extend(tower.to_coords(x))
    return tuple(out)


def unflatten_vector(tower: FieldTower, vec: Sequence[int]) -> Tuple[int, ...]:
    m = tower.m
    return tuple(
        tower.from_coords(vec[j * m:(j + 1) * m]) for j in range(len(vec) // m)
    )


def flatten_subspace(esub: Subspace) -> Subspace:
    """View an E-subspace of E^k as an F-subspace of F^(km), dim times m.

    The flattened tau_j * row_i are already in RREF: row i of the E-RREF
    is 1 in its pivot block p_i and 0 in every other pivot block, so
    tau_j * row_i has coordinates e_j in block p_i and 0 in the other
    pivot blocks, and its pivot is column p_i * m + j.
    """
    tower = esub.tower
    if esub.level_name != "E":
        raise AmbientMismatch("flatten_subspace expects an E-level subspace")
    scale, m = _row_kernel(tower.E)[0], tower.m
    rows, pivots = [], []
    for row, p in zip(esub.rows, esub.pivots):
        for j, tau in enumerate(tower.basis):
            rows.append(flatten_vector(tower, scale(tau, row)))
            pivots.append(p * m + j)
    return Subspace(tower, "F", esub.ambient * m, tuple(rows), tuple(pivots))


# Flattened rows that all kept grids hold together (about 0.3 MB); a grid
# larger than this streams.  A job sweeps the same few grids again and
# again, but an unbounded memo of them doubles peak RSS on some jobs.
_GRID_ROW_BUDGET = 1 << 10
_GRIDS: Dict[Tuple[FieldTower, int, int],
             Tuple[Tuple[Subspace, Subspace], ...]] = {}


def flat_grid(tower: FieldTower, k: int, h: int,
              ) -> Iterable[Tuple[Subspace, Subspace]]:
    """(M, flatten_subspace(M)) for every h-dimensional E-subspace M of
    E^k, in ``subspace-enum/1`` order.

    A grid of at most ``_GRID_ROW_BUDGET`` flattened rows is built once,
    GF(2) rows packed, and kept for the job in ``_GRIDS`` keyed by
    (tower, k, h); keeping it empties the memo first when the kept grids
    would pass the budget.  A larger grid streams, one M at a time.
    """
    if not 0 <= h <= k:
        return ()
    grids = _GRIDS
    key = (tower, k, h)
    grid = grids.get(key)
    if grid is not None:
        return grid
    pairs = ((msub, flatten_subspace(msub))
             for msub in enumerate_subspaces(tower, "E", k, h))
    rows = h * tower.m * sum(
        tower.order ** len(free_cells(pivots, k))
        for pivots in itertools.combinations(range(k), h))
    if rows > _GRID_ROW_BUDGET:
        return pairs
    held = sum(len(kept) * d * t.m for (t, _, d), kept in grids.items())
    if held + rows > _GRID_ROW_BUDGET:
        grids.clear()
    grid = grids[key] = tuple(pairs)
    if tower.q == 2:
        for _, flat in grid:
            flat.packed()
    return grid


def meet_dims(s: Subspace, h: int) -> Iterator[Tuple[Subspace, int]]:
    """(M, dim_F(S cap M)) for every h-dimensional E-subspace M of E^k, in
    ``subspace-enum/1`` order, for an F-subspace S of the flattened F^(km).

    The weight deciders all read this one sweep.  For a code with column
    span U (so <U>_E = E^k) and a subcode D = {gamma G | gamma in B},

        wt(D) = dim_F(U) - dim_F(Bdd cap U)

    where Bdd, the transposed dual of B, runs over the (k-r)-dimensional
    E-subspaces as B runs over the r-dimensional subspaces of E^k.  The
    flattened M come from ``flat_grid``: kept within a row budget, or
    streamed when the grid is larger.
    """
    for msub, flat in flat_grid(s.tower, s.ambient // s.tower.m, h):
        yield msub, flat.intersection_dim(s)


def espan_of_flat(fsub: Subspace) -> Subspace:
    """The E-span of a flattened F-subspace, as an E-subspace of E^k."""
    tower = fsub.tower
    if fsub.level_name != "F" or fsub.ambient % tower.m != 0:
        raise AmbientMismatch("expected an F-subspace of some F^(km)")
    k = fsub.ambient // tower.m
    vecs = [unflatten_vector(tower, row) for row in fsub.rows]
    return Subspace.span(tower, "E", k, vecs)


def embed_f_vectors(tower: FieldTower, fsub: Subspace) -> Subspace:
    """Embed an F-subspace of F^n into the flattened view of E^n."""
    vecs = [flatten_vector(tower, row) for row in fsub.rows]
    return Subspace.span(tower, "F", fsub.ambient * tower.m, vecs)


def f_rational_part(tower: FieldTower, esub: Subspace) -> Subspace:
    """A cap F^n for an E-subspace A of E^n, returned inside F^n.

    Computed by intersecting the flattened space with the embedded copy of
    F^n and pulling coordinates back.
    """
    n = esub.ambient
    flat = flatten_subspace(esub)
    embedded = embed_f_vectors(tower, Subspace.full(tower, "F", n))
    inter = flat.intersect(embedded)
    one = tower.to_coords(1)
    j = next(i for i, c in enumerate(one) if c != 0)
    scale = _row_kernel(tower.F)[0]
    cinv = tower.F.inv(one[j])
    vecs = [scale(cinv, row[j::tower.m]) for row in inter.rows]
    return Subspace.span(tower, "F", n, vecs)
