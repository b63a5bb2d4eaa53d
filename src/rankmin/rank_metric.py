"""Rank supports, support weights and generalized rank weights of E-linear
codes, together with the extremal subcode constructions used by the
minimality deciders.

A code C = <rows(G)>_E of length n and dimension k is tied to the
F-subspace U = <cols(G)>_F of E^[k]: wt(C) = dim_F(U), and every subcode
D = {gamma G | gamma in B} has

    wt(D) = dim_F(U) - dim_F(Bdd cap U)

where Bdd is the transposed dual of B.  The geometric route below exploits
that Bdd ranges over all (k-r)-dimensional E-subspaces of E^[k] as B ranges
over the r-dimensional subspaces of E^k.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .fields import FieldTower
from .linalg import (
    CertificateError,
    Subspace,
    decode_rows,
    enumerate_subspaces,
    flatten_subspace,
    flatten_vector,
    mat_vec,
    rref,
    subspaces_of,
)


class RankCode:
    """An [n,k] E-linear code with canonical (RREF) generator matrix."""

    __slots__ = ("tower", "n", "k", "gen", "_colspan")

    def __init__(self, tower: FieldTower, n: int,
                 gen: Sequence[Sequence[int]]):
        rows, rank, _ = rref(gen, tower.E)
        if rank != len(list(gen)):
            raise ValueError("generator rows are E-linearly dependent")
        self.tower = tower
        self.n = n
        self.k = rank
        self.gen = rows
        self._colspan: Optional[Subspace] = None

    @staticmethod
    def zero(tower: FieldTower, n: int) -> "RankCode":
        c = RankCode.__new__(RankCode)
        c.tower, c.n, c.k, c.gen, c._colspan = tower, n, 0, (), None
        return c

    def as_subspace(self) -> Subspace:
        return Subspace.span(self.tower, "E", self.n, self.gen)

    def codeword(self, gamma: Sequence[int]) -> Tuple[int, ...]:
        if self.k == 0:
            return (0,) * self.n
        return mat_vec(self.tower.E, self.gen, gamma)

    def subcode(self, b: Subspace) -> "RankCode":
        """The subcode {gamma G | gamma in B} for B <= E^k."""
        if b.dim == 0:
            return RankCode.zero(self.tower, self.n)
        return RankCode(self.tower, self.n,
                        [self.codeword(g) for g in b.rows])

    def dual(self) -> "RankCode":
        """C^perp under the standard bilinear form."""
        d = self.as_subspace().dual()
        if d.dim == 0:
            return RankCode.zero(self.tower, self.n)
        return RankCode(self.tower, self.n, d.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RankCode) and self.tower == other.tower
                and self.n == other.n and self.gen == other.gen)

    def __hash__(self) -> int:
        return hash((self.n, self.gen))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RankCode([{self.n},{self.k}] over GF({self.tower.order}))"

    def to_json(self) -> dict:
        enc = self.tower.encode
        return {
            "field": self.tower.spec_string(),
            "n": self.n,
            "k": self.k,
            "rows": [[enc(v) for v in row] for row in self.gen],
        }

    @staticmethod
    def from_json(tower: FieldTower, obj: dict) -> "RankCode":
        rows = decode_rows(obj, "rows", "n", tower.order, tower.decode)
        if not rows:
            return RankCode.zero(tower, obj["n"])
        return RankCode(tower, obj["n"], rows)


# ---------------------------------------------------------------------------
# Supports and weights.
# ---------------------------------------------------------------------------


def rank_support(tower: FieldTower, alpha: Sequence[int]) -> Subspace:
    """The F-row space of the coordinate matrix of alpha (basis-invariant)."""
    mat = tower.expand(alpha)
    return Subspace.span(tower, "F", len(alpha), mat)


def chi(tower: FieldTower, vectors: Sequence[Sequence[int]],
        n: Optional[int] = None) -> Subspace:
    """Joint rank support of the E-span of the given vectors.

    Uses the finite F-generating family {tau_i * v_j}: the rows of all
    their coordinate matrices span the same F-space as the supports of the
    whole E-span.
    """
    if n is None:
        n = len(vectors[0]) if vectors else 0
    rows: List[Sequence[int]] = []
    for v in vectors:
        for tau in tower.basis:
            scaled = [tower.E.mul(tau, x) for x in v]
            rows.extend(tower.expand(scaled))
    return Subspace.span(tower, "F", n, rows)


def chi_code(code: RankCode) -> Subspace:
    return chi(code.tower, code.gen, code.n)


def weight(code: RankCode) -> int:
    """wt(C) = dim_F(U) with U the column span; cheaper than chi."""
    return column_support(code).dim


def column_support(code: RankCode) -> Subspace:
    """U = <cols(G)>_F inside E^[k], flattened to F^(km)."""
    if code._colspan is not None:
        return code._colspan
    tower = code.tower
    cols = []
    for j in range(code.n):
        col = tuple(code.gen[i][j] for i in range(code.k))
        cols.append(flatten_vector(tower, col))
    u = Subspace.span(tower, "F", code.k * tower.m, cols)
    code._colspan = u
    return u


def transposed_dual(tower: FieldTower, b: Subspace) -> Subspace:
    """Bdd for B <= E^k: the dual of B moved to the flattened E^[k] view."""
    return flatten_subspace(b.dual())


def subcode_weight(code: RankCode, b: Subspace, cross_check: bool = False) -> int:
    """Weight of the subcode {gamma G | gamma in B} via the dual-intersection
    formula, optionally cross-checked against the direct support."""
    if b.dim == 0:
        return 0
    u = column_support(code)
    bdd = transposed_dual(code.tower, b)
    w = u.dim - bdd.intersection_dim(u)
    if cross_check:
        direct = chi(code.tower, [code.codeword(g) for g in b.rows], code.n)
        if direct.dim != w:
            raise CertificateError(
                "dual-intersection weight disagrees with chi")
    return w


# ---------------------------------------------------------------------------
# Generalized rank weights.
# ---------------------------------------------------------------------------


def grw(code: RankCode, r: int, method: str = "geometric") -> int:
    """d_r(C): the minimum support weight over r-dimensional subcodes.

    ``geometric`` minimizes dim_F(U) - dim_F(M cap U) over the
    (k-r)-dimensional E-subspaces M of E^[k]; ``brute`` minimizes
    subcode weights directly; ``both`` cross-checks the two routes.
    """
    if not 0 <= r <= code.k:
        raise ValueError(f"r={r} outside 0..{code.k}")
    if r == 0:
        return 0
    if method == "both":
        a = grw(code, r, "geometric")
        b = grw(code, r, "brute")
        if a != b:
            raise CertificateError(f"grw routes disagree: {a} vs {b}")
        return a
    if method == "brute":
        return min(
            subcode_weight(code, b)
            for b in enumerate_subspaces(code.tower, "E", code.k, r)
        )
    if method != "geometric":
        raise ValueError(f"unknown grw method {method!r}")
    u = column_support(code)
    best = None
    for msub in enumerate_subspaces(code.tower, "E", code.k, code.k - r):
        flat = flatten_subspace(msub)
        val = u.dim - flat.intersection_dim(u)
        if best is None or val < best:
            best = val
            if best == 0:
                break
    return best if best is not None else 0


def grw_sequence(code: RankCode, method: str = "geometric") -> List[int]:
    return [grw(code, r, method) for r in range(code.k + 1)]


# ---------------------------------------------------------------------------
# Support codes and weight-dropping subcodes.
# ---------------------------------------------------------------------------


def support_code(tower: FieldTower, w: Subspace) -> RankCode:
    """The E-span of an F-subspace w of F^n, i.e. {alpha : rsupp(alpha) <= w};
    its E-dimension equals dim_F(w)."""
    if w.dim == 0:
        return RankCode.zero(tower, w.ambient)
    return RankCode(tower, w.ambient, w.rows)


def drop_weight_subcode(code: RankCode) -> RankCode:
    """A codimension-1 subcode whose support is strictly smaller.

    Intersects the code with the support code of the first hyperplane of
    chi(C) in enumeration order (deterministic).
    """
    if code.k == 0:
        raise ValueError("the zero code has no proper subcode")
    support = chi_code(code)
    hyper = next(subspaces_of(support, support.dim - 1))
    mu = support_code(code.tower, hyper).as_subspace()
    inter = code.as_subspace().intersect(mu)
    sub = (RankCode(code.tower, code.n, inter.rows) if inter.dim
           else RankCode.zero(code.tower, code.n))
    assert sub.k == code.k - 1
    assert chi_code(sub).dim < support.dim
    return sub


# ---------------------------------------------------------------------------
# Maximal subcode weights (and the complement constructions behind them).
# ---------------------------------------------------------------------------


def max_subcode_weight(code: RankCode, s: int) -> Tuple[int, RankCode]:
    """Largest support weight among s-dimensional subcodes: min(ms, wt(C)).

    Returns the value together with a witness subcode, built by avoiding or
    complementing the column span inside E^[k]; the witness's weight is
    verified before returning.
    """
    from .geometry import avoid_complement  # local import: module cycle

    if not 0 <= s <= code.k:
        raise ValueError(f"s={s} outside 0..{code.k}")
    tower, k, m = code.tower, code.k, code.tower.m
    u = column_support(code)
    wt_c = u.dim
    value = min(m * s, wt_c)
    if s == 0:
        return 0, RankCode.zero(tower, code.n)
    if m * s <= wt_c:
        # V with U + V = E^[k]: the witness subcode has weight exactly ms
        v = avoid_complement(tower, k, u, s, dual=True)
    else:
        # W meeting U trivially: the witness keeps the full support
        v = avoid_complement(tower, k, u, s)
    b = v.dual()  # the B <= E^k with Bdd = V
    witness = code.subcode(b)
    got = subcode_weight(code, b)
    assert got == value, "witness weight does not match min(ms, wt(C))"
    assert witness.k == s
    return value, witness


def full_support_codeword(code: RankCode) -> Tuple[int, ...]:
    """For n <= m: a codeword whose rank support equals chi(C)."""
    if code.n > code.tower.m:
        raise ValueError("requires n <= m")
    if code.k == 0:
        return (0,) * code.n
    _, witness = max_subcode_weight(code, 1)
    alpha = witness.gen[0]
    assert rank_support(code.tower, alpha) == chi_code(code)
    return alpha


# ---------------------------------------------------------------------------
# Enumeration helpers shared by the deciders.
# ---------------------------------------------------------------------------


def subcode_spaces(code: RankCode, r: int) -> Iterator[Subspace]:
    """All r-dimensional B <= E^k (each defines the subcode B G)."""
    return enumerate_subspaces(code.tower, "E", code.k, r)


def extensions_containing(code: RankCode, b: Subspace) -> Iterator[Subspace]:
    """All (dim B + 1)-dimensional B' with B <= B' <= E^k, lifted from the
    quotient E^k / B."""
    tower = code.tower
    k = code.k
    comp_idx = [j for j in range(k) if j not in b.pivots]
    for line in enumerate_subspaces(tower, "E", len(comp_idx), 1):
        lift = []
        for row in line.rows:
            v = [0] * k
            for j, c in zip(comp_idx, row):
                v[j] = c
            lift.append(tuple(v))
        yield Subspace.span(tower, "E", k, list(b.rows) + lift)
