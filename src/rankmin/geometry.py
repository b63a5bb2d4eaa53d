"""Evasive subspaces, cutting r-blocking sets and complement avoidance
inside E^[k], all in the flattened F^(km) view.

The default cutting decider tests evasiveness against the
(k-r-1)-dimensional E-subspaces, which is strictly cheaper than the
definition's span checks over (k-r)-dimensional ones; the definition and
the one-dimensional-meeting characterization are kept as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .fields import FieldTower, int_to_digits
from .linalg import (
    CertificateError,
    Subspace,
    enumerate_subspaces,
    espan_of_flat,
    flatten_subspace,
    flatten_vector,
    meet_dims,
)


class PreconditionViolated(ValueError):
    """A dimension or cardinality bound required by a construction fails."""


@dataclass
class CuttingVerdict:
    verdict: bool
    route: str  # definition | prop21 | evasive
    refuting: Optional[Subspace] = None

    def to_json(self) -> dict:
        obj = {"verdict": self.verdict, "route": self.route}
        if self.refuting is not None:
            obj["refuting"] = self.refuting.to_json()
        return obj


# ---------------------------------------------------------------------------
# Evasive subspaces.
# ---------------------------------------------------------------------------


def is_evasive(tower: FieldTower, k: int, j: Subspace, h: int, t: int,
               ) -> Tuple[bool, Optional[Subspace]]:
    """Is J (h,t)-evasive in E^[k]?  Returns a refuting E-subspace on failure.

    Requires <J>_E = E^[k] and dim_F(J cap M) <= t for every h-dimensional
    E-subspace M.
    """
    if j.level_name != "F" or j.ambient != k * tower.m:
        raise ValueError("J must be an F-subspace of the flattened E^[k]")
    if not 0 <= h <= k:
        raise ValueError(f"h={h} outside 0..{k}")
    if espan_of_flat(j).dim != k:
        return False, None
    if t >= h * tower.m:
        return True, None  # dim_F(M) = hm already caps the intersection
    refuting = next((msub for msub, meet in meet_dims(j, h) if meet > t),
                    None)
    return refuting is None, refuting


# ---------------------------------------------------------------------------
# Cutting r-blocking sets.
# ---------------------------------------------------------------------------


def cutting_evasive_params(m: int, k: int, r: int, d: int) -> Tuple[int, int]:
    """(h, t) = (k-r-1, d-mr-1): a d-dimensional F-subspace of E^[k] is a
    cutting r-blocking set iff it is (h,t)-evasive.  Needs 0 <= r <= k-1."""
    if not 0 <= r <= k - 1:
        raise ValueError(f"r={r} outside 0..{k - 1}")
    return k - r - 1, d - m * r - 1


def is_cutting(tower: FieldTower, k: int, s: Subspace, r: int,
               route: str = "evasive") -> CuttingVerdict:
    """Is the F-subspace S a cutting r-blocking set of E^[k]?

    Routes: ``definition`` checks <S cap V>_E = V over the (k-r)-dimensional
    E-subspaces V; ``prop21`` checks (S+W) cap I != 0 over pairs of
    (k-r-1)- and 1-dimensional E-subspaces; ``evasive`` (default) checks
    (k-r-1, dim_F(S)-mr-1)-evasiveness; ``all`` runs the three and insists
    they agree.
    """
    h, t = cutting_evasive_params(tower.m, k, r, s.dim)
    if s.level_name != "F" or s.ambient != k * tower.m:
        raise ValueError("S must be an F-subspace of the flattened E^[k]")
    if route == "all":
        verdicts = [is_cutting(tower, k, s, r, rt)
                    for rt in ("definition", "prop21", "evasive")]
        if len({v.verdict for v in verdicts}) != 1:
            raise CertificateError(
                f"cutting routes disagree on r={r}: "
                + str({v.route: v.verdict for v in verdicts}))
        return verdicts[2]
    if route == "definition":
        for vsub in enumerate_subspaces(tower, "E", k, k - r):
            flat = flatten_subspace(vsub)
            inter = s.intersect(flat)
            if espan_of_flat(inter).dim != k - r:
                return CuttingVerdict(False, route, vsub)
        return CuttingVerdict(True, route)
    if route == "prop21":
        # the E-lines do not depend on W: flatten them once per call
        lines = [(isub, flatten_subspace(isub))
                 for isub in enumerate_subspaces(tower, "E", k, 1)]
        for wsub in enumerate_subspaces(tower, "E", k, k - r - 1):
            sw = s.sum(flatten_subspace(wsub))
            for isub, flat in lines:
                if sw.intersection_dim(flat) == 0:
                    return CuttingVerdict(False, route, isub)
        return CuttingVerdict(True, route)
    if route == "evasive":
        ok, refuting = is_evasive(tower, k, s, h, t)
        return CuttingVerdict(ok, route, refuting)
    raise ValueError(f"unknown cutting route {route!r}")


# ---------------------------------------------------------------------------
# Linearity index.
# ---------------------------------------------------------------------------


def linearity_index(tower: FieldTower, k: int, a: Subspace) -> int:
    """Largest E-dimension of an E-subspace contained in the F-subspace A."""
    if a.level_name != "F" or a.ambient != k * tower.m:
        raise ValueError("A must be an F-subspace of the flattened E^[k]")
    top = min(k, a.dim // tower.m)
    for d in range(top, 0, -1):
        for vsub in enumerate_subspaces(tower, "E", k, d):
            if a.contains(flatten_subspace(vsub)):
                return d
    return 0


# ---------------------------------------------------------------------------
# Complement avoidance (greedy, after the counting construction).
# ---------------------------------------------------------------------------


def _all_e_vectors(tower: FieldTower, k: int):
    order = tower.order
    return (int_to_digits(enc, order, k) for enc in range(order**k))


def _stabilizer_count(tower: FieldTower, hset: frozenset, k: int) -> int:
    count = 0
    for a in range(1, tower.order):
        scaled = frozenset(tuple(tower.E.mul(a, x) for x in v) for v in hset)
        if scaled == hset:
            count += 1
    return count


def avoid_set(tower: FieldTower, k: int, hset: Sequence[Sequence[int]],
              t: int) -> Subspace:
    """An E-subspace L of E^[k] with dim_E(L) = t and H cap L = {0}.

    H is an arbitrary subset containing 0; greedy choice of the smallest
    encoded vector outside every nonzero multiple of H, repeated t times.
    Requires |H| <= w (Q^(k+1-t)-1)/(Q-1) with Q = |E| and w the number of
    scalars fixing H.
    """
    original = {tuple(v) for v in hset}
    if (0,) * k not in original:
        raise PreconditionViolated("H must contain 0")
    big_q = tower.order
    w = _stabilizer_count(tower, frozenset(original), k)
    if len(original) > w * (big_q ** (k + 1 - t) - 1) // (big_q - 1):
        raise PreconditionViolated("|H| exceeds the greedy bound")
    cur = set(original)
    lines: List[Tuple[int, ...]] = []
    for _ in range(t):
        z = _first_avoiding(tower, k, cur)
        lines.append(z)
        cur = {tuple(tower.E.add(a, b) for a, b in zip(v, zz))
               for v in cur
               for zz in _scalar_multiples(tower, z)}
    out = Subspace.span(tower, "E", k, lines)
    if out.dim != t:
        raise CertificateError(f"avoiding span has dimension {out.dim} != {t}")
    # postcondition: every nonzero element of the span avoids the set
    for coeffs in _all_e_vectors(tower, t):
        if not any(coeffs):
            continue
        v = [0] * k
        for c, zz in zip(coeffs, lines):
            v = [tower.E.add(a, tower.E.mul(c, b)) for a, b in zip(v, zz)]
        if tuple(v) in original:
            raise CertificateError("avoiding span meets the set")
    return out


def _scalar_multiples(tower: FieldTower, z: Sequence[int]):
    return [tuple(tower.E.mul(c, x) for x in z) for c in range(tower.order)]


def _first_avoiding(tower: FieldTower, k: int, cur: set) -> Tuple[int, ...]:
    for z in _all_e_vectors(tower, k):
        if z == (0,) * k:
            continue
        # z avoids every aH, a != 0  <=>  no bz lies in H, b != 0
        if all(tuple(tower.E.mul(b, x) for x in z) not in cur
               for b in range(1, tower.order)):
            return z
    raise PreconditionViolated("no avoiding vector exists")


def avoid_complement(tower: FieldTower, k: int, h: Subspace, t: int,
                     dual: bool = False) -> Subspace:
    """Complement-avoidance inside E^[k].

    For an F-subspace H (given flattened) with dim_F(H) <= mt, returns an
    E-subspace V with dim_E(V) = k - t and H cap V = {0}.  With
    ``dual=True`` and dim_F(H) >= mt, returns W with dim_E(W) = k - t and
    H + W = E^[k].  For a set of E^[k] vectors use ``avoid_set``.
    """
    m = tower.m
    if h.level_name != "F" or h.ambient != k * m:
        raise ValueError("H must be an F-subspace of the flattened E^[k]")
    if not 0 <= t <= k:
        raise PreconditionViolated(f"t={t} outside 0..{k}")
    if dual:
        if h.dim < m * t:
            raise PreconditionViolated("dim_F(H) < mt: complement not forced")
        sub = Subspace.span(tower, "F", h.ambient, h.rows[:m * t])
        v = _avoid_subspace(tower, k, sub, t)
        if h.sum(flatten_subspace(v)) != Subspace.full(tower, "F", k * m):
            raise CertificateError("H + W is not all of E^[k]")
        return v
    if h.dim > m * t:
        raise PreconditionViolated("dim_F(H) > mt: no avoiding complement")
    return _avoid_subspace(tower, k, h, t)


def _avoid_subspace(tower: FieldTower, k: int, h: Subspace, t: int,
                    ) -> Subspace:
    """Greedy core: E-subspace V, dim k - t, meeting the F-subspace H only
    at 0.  Scans encoded vectors ascending, keeping determinism."""
    m = tower.m
    cur = h
    basis: List[Tuple[int, ...]] = []
    for _ in range(k - t):
        z = _first_avoiding_subspace(tower, k, cur)
        basis.append(z)
        line = Subspace.span(tower, "E", k, [z])
        cur = cur.sum(flatten_subspace(line))
    out = Subspace.span(tower, "E", k, basis)
    if out.dim != k - t or h.intersection_dim(flatten_subspace(out)) != 0:
        raise CertificateError("avoiding complement has the wrong "
                               "dimension or meets H")
    return out


def _first_avoiding_subspace(tower: FieldTower, k: int,
                             cur: Subspace) -> Tuple[int, ...]:
    for z in _all_e_vectors(tower, k):
        if z == (0,) * k:
            continue
        if not cur.contains_vector(flatten_vector(tower, z)):
            # z's E-line meets cur only at 0 iff no bz with b != 0 lies in
            # cur.  cur is F-linear, so z outside it puts every F-multiple
            # (b < q) outside too; only the b in E \ F are left to test
            if all(not cur.contains_vector(
                    flatten_vector(tower, tuple(tower.E.mul(b, x) for x in z)))
                    for b in range(tower.q, tower.order)):
                return z
    raise PreconditionViolated("greedy ran out of vectors")
