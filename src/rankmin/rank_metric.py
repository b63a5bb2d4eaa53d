"""Rank supports, support weights and generalized rank weights of E-linear
codes, together with the extremal subcode constructions used by the
minimality deciders.

A code C = <rows(G)>_E of length n and dimension k is tied to the
F-subspace U = <cols(G)>_F of E^[k]: wt(C) = dim_F(U).  A subcode's weight
is read either directly, as the support of its codewords
(``subcode_support``), or geometrically from U by the dual-intersection
formula, which is stated once, at ``linalg.meet_dims``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .fields import FieldTower
from .geometry import avoid_complement
from .linalg import (
    AmbientMismatch,
    CertificateError,
    Subspace,
    check_stated_dim,
    decode_rows,
    enumerate_subspaces,
    flatten_subspace,
    mat_vec,
    meet_dims,
    subspaces_of,
)


class RankCode:
    """An [n,k] E-linear code: the E-subspace of E^n that it keeps, whose
    canonical (RREF) basis is the generator matrix."""

    __slots__ = ("space", "_colspan")

    def __init__(self, tower: FieldTower, n: int,
                 gen: Sequence[Sequence[int]]):
        order = tower.order
        if not all(0 <= v < order for row in gen for v in row):
            raise ValueError(f"generator entries must lie in [0, {order})")
        self.space = Subspace.span(tower, "E", n, gen)
        if self.space.dim != len(gen):
            raise ValueError("generator rows are E-linearly dependent")
        self._colspan: Optional[Subspace] = None

    tower = property(lambda self: self.space.tower)
    n = property(lambda self: self.space.ambient)
    k = property(lambda self: self.space.dim)
    gen = property(lambda self: self.space.rows)

    def codeword(self, gamma: Sequence[int]) -> Tuple[int, ...]:
        if self.k == 0 == len(gamma):  # mat_vec rejects any other gamma
            return (0,) * self.n
        return mat_vec(self.tower.E, self.gen, gamma)

    def check_message_space(self, b: Subspace) -> None:
        """Raise AmbientMismatch unless B lies in E^k, the gammas' space."""
        if (b.level_name != "E" or b.ambient != self.k
                or b.tower is not self.tower and b.tower != self.tower):
            raise AmbientMismatch(f"B must be an E-subspace of E^{self.k}")

    def subcode(self, b: Subspace) -> "RankCode":
        """The subcode {gamma G | gamma in B} for B <= E^k; the code itself
        when dim B = k, since then B = E^k."""
        self.check_message_space(b)
        if b.dim == self.k:
            return self
        return RankCode(self.tower, self.n,
                        [self.codeword(g) for g in b.rows])

    def dual(self) -> "RankCode":
        """C^perp under the standard bilinear form."""
        return RankCode(self.tower, self.n, self.space.dual().rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, RankCode) and self.space == other.space

    def __hash__(self) -> int:
        return hash(self.space)

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
        code = RankCode(tower, obj["n"], rows)
        check_stated_dim(obj, "k", code.k)
        return code


# ---------------------------------------------------------------------------
# Supports and weights.
# ---------------------------------------------------------------------------


def rank_support(tower: FieldTower, alpha: Sequence[int]) -> Subspace:
    """The F-row space of the coordinate matrix of alpha (basis-invariant)."""
    return chi(tower, [alpha], len(alpha))


def chi(tower: FieldTower, vectors: Sequence[Sequence[int]],
        n: int) -> Subspace:
    """Joint rank support of the E-span of the given vectors.

    The rows of each vector's coordinate matrix suffice: rsupp(av) =
    rsupp(v) for a != 0, and the support of a span is the sum of its
    generators' supports.
    """
    return Subspace.span(tower, "F", n,
                         [row for v in vectors for row in tower.expand(v)])


def chi_code(code: RankCode) -> Subspace:
    return chi(code.tower, code.gen, code.n)


def subcode_support(code: RankCode, b: Subspace) -> Subspace:
    """chi of the subcode {gamma G | gamma in B}, from B's codewords."""
    code.check_message_space(b)
    return chi(code.tower, [code.codeword(g) for g in b.rows], code.n)


def weight(code: RankCode) -> int:
    """wt(C) = dim_F(U) with U the column span; cheaper than chi."""
    return column_support(code).dim


def column_support(code: RankCode) -> Subspace:
    """U = <cols(G)>_F inside E^[k], flattened to F^(km): the column span of
    the km x n coordinate matrix whose row span is chi(C)."""
    if code._colspan is None:
        tower = code.tower
        mat = [row for g in code.gen for row in tower.expand(g)]
        code._colspan = Subspace.span(tower, "F", code.k * tower.m,
                                      list(zip(*mat)))
    return code._colspan


def transposed_dual(b: Subspace) -> Subspace:
    """Bdd for B <= E^k: the dual of B moved to the flattened E^[k] view."""
    return flatten_subspace(b.dual())


def subcode_weight(code: RankCode, b: Subspace, cross_check: bool = False) -> int:
    """Weight of the subcode {gamma G | gamma in B} via the dual-intersection
    formula, optionally cross-checked against the direct support."""
    code.check_message_space(b)
    u = column_support(code)
    bdd = transposed_dual(b)
    w = u.dim - bdd.intersection_dim(u)
    if cross_check and subcode_support(code, b).dim != w:
        raise CertificateError("dual-intersection weight disagrees with chi")
    return w


# ---------------------------------------------------------------------------
# Generalized rank weights.
# ---------------------------------------------------------------------------


def grw(code: RankCode, r: int, method: str = "geometric") -> int:
    """d_r(C): the minimum support weight over r-dimensional subcodes.

    ``geometric`` minimizes dim_F(U) - dim_F(M cap U) over the
    (k-r)-dimensional E-subspaces M of E^[k] (``meet_dims``), and stops at
    the first meet that reaches min(dim_F(U) - r, (k-r)m), which no meet
    can pass; ``brute`` minimizes the direct support dimension of every
    r-dimensional subcode (``subcode_support``), without the
    dual-intersection formula, and is the oracle the tests hold the
    geometric route to.
    """
    if not 0 <= r <= code.k:
        raise ValueError(f"r={r} outside 0..{code.k}")
    if r == 0:
        return 0
    if method == "brute":
        return min(subcode_support(code, b).dim
                   for b in subcode_spaces(code, r))
    if method != "geometric":
        raise ValueError(f"unknown grw method {method!r}")
    u = column_support(code)
    # no meet passes dim U - r (an r-dim subcode D has weight >= r: the
    # support code of chi(D) contains D and has E-dim dim_F chi(D)) or
    # dim_F M = (k-r)m, so the sweep stops at the first meet reaching either
    cap, best = min(u.dim - r, (code.k - r) * code.tower.m), 0
    for _, meet in meet_dims(u, code.k - r):
        best = max(best, meet)
        if best >= cap:
            break
    return u.dim - best


def grw_sequence(code: RankCode) -> List[int]:
    return [grw(code, r) for r in range(code.k + 1)]


# ---------------------------------------------------------------------------
# Support codes and weight-dropping subcodes.
# ---------------------------------------------------------------------------


def support_code(tower: FieldTower, w: Subspace) -> RankCode:
    """The E-span of an F-subspace w of F^n, i.e. {alpha : rsupp(alpha) <= w};
    its E-dimension equals dim_F(w)."""
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
    mu = support_code(code.tower, hyper).space
    inter = code.space.intersect(mu)
    sub = RankCode(code.tower, code.n, inter.rows)
    if sub.k != code.k - 1 or chi_code(sub).dim >= support.dim:
        raise CertificateError("subcode does not drop the support weight")
    return sub


# ---------------------------------------------------------------------------
# Maximal subcode weights (and the complement constructions behind them).
# ---------------------------------------------------------------------------


def max_subcode_weight(code: RankCode, s: int) -> Tuple[int, RankCode]:
    """Largest support weight among s-dimensional subcodes: min(ms, wt(C)).

    Returns the value together with a witness subcode, built by avoiding
    part of the column span inside E^[k]; the witness's weight is verified
    before returning.
    """
    if not 0 <= s <= code.k:
        raise ValueError(f"s={s} outside 0..{code.k}")
    tower, k, m = code.tower, code.k, code.tower.m
    u = column_support(code)
    wt_c = u.dim
    value = min(m * s, wt_c)
    if s == 0:
        return 0, RankCode(tower, code.n, ())
    # V avoiding the first min(ms, wt) RREF rows of U: the witness keeps
    # the full support when ms > wt, and U + V = E^[k] (weight ms) else
    v = avoid_complement(tower, k, Subspace.span(
        tower, "F", u.ambient, u.rows[:m * s]), s)
    b = v.dual()  # the B <= E^k with Bdd = V
    witness = code.subcode(b)
    got = subcode_weight(code, b)
    if got != value or witness.k != s:
        raise CertificateError(
            "witness weight does not match min(ms, wt(C))")
    return value, witness


def full_support_codeword(code: RankCode) -> Tuple[int, ...]:
    """For n <= m: a codeword whose rank support equals chi(C)."""
    if code.n > code.tower.m:
        raise ValueError("requires n <= m")
    if code.k == 0:
        return (0,) * code.n
    _, witness = max_subcode_weight(code, 1)
    alpha = witness.gen[0]
    if rank_support(code.tower, alpha) != chi_code(code):
        raise CertificateError("codeword support is not chi(C)")
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
