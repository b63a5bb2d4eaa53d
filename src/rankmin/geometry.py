"""Evasive subspaces, cutting r-blocking sets and complement avoidance
inside E^[k], all in the flattened F^(km) view.

The default cutting decider tests evasiveness against the
(k-r-1)-dimensional E-subspaces, which is strictly cheaper than the
definition's span checks over (k-r)-dimensional ones; the definition and
the one-dimensional-meeting characterization are kept as oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .fields import FieldTower, _row_kernel, int_to_digits
from .linalg import (
    CertificateError,
    Subspace,
    espan_of_flat,
    flat_grid,
    flatten_subspace,
    flatten_vector,
    meet_dims,
    unflatten_vector,
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
    cutting r-blocking set iff it is (h,t)-evasive.  Needs k >= 1 and
    0 <= r <= k-1."""
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if not 0 <= r <= k - 1:
        raise ValueError(f"r={r} outside 0..{k - 1}")
    return k - r - 1, d - m * r - 1


def is_cutting(tower: FieldTower, k: int, s: Subspace, r: int,
               route: str = "evasive") -> CuttingVerdict:
    """Is the F-subspace S a cutting r-blocking set of E^[k]?

    Routes: ``definition`` checks <S cap V>_E = V over the (k-r)-dimensional
    E-subspaces V; ``prop21`` checks (S+W) cap I != 0 over pairs of
    (k-r-1)- and 1-dimensional E-subspaces, skipping a W with
    dim_F(S+W) > (k-1)m, which meets every E-line; ``evasive`` (default)
    checks (k-r-1, dim_F(S)-mr-1)-evasiveness; ``all`` runs the three and
    insists they agree.
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
        for vsub, flat in flat_grid(tower, k, k - r):
            if espan_of_flat(s.intersect(flat)).dim != k - r:
                return CuttingVerdict(False, route, vsub)
        return CuttingVerdict(True, route)
    if route == "prop21":
        # the E-lines are swept once per W: a streamed grid is kept per call
        lines = tuple(flat_grid(tower, k, 1))
        for _, wflat in flat_grid(tower, k, k - r - 1):
            sw = s.sum(wflat)
            if sw.dim > (k - 1) * tower.m:
                continue  # meets every E-line, whose dim_F is m (Grassmann)
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
    """Largest E-dimension of an E-subspace contained in the F-subspace A.

    That subspace is the E-core, the intersection of the tau^-1 A over the
    basis tau of E/F: Ev is the F-span of the tau v, so Ev <= A iff v lies
    in every tau^-1 A.
    """
    if a.level_name != "F" or a.ambient != k * tower.m:
        raise ValueError("A must be an F-subspace of the flattened E^[k]")
    scale, core = _row_kernel(tower.E)[0], a
    for tau in tower.basis:
        c = tower.E.inv(tau)
        scaled = [flatten_vector(tower, scale(c, unflatten_vector(tower, row)))
                  for row in a.rows]
        core = core.intersect(Subspace.span(tower, "F", a.ambient, scaled))
    return core.dim // tower.m


# ---------------------------------------------------------------------------
# Complement avoidance (greedy, after the counting construction).
# ---------------------------------------------------------------------------


def _first_avoiding(tower: FieldTower, k: int,
                    meets: Callable[[Tuple[int, ...]], bool],
                    ) -> Tuple[int, ...]:
    """The smallest encoded nonzero z of E^[k] whose E-line ``meets`` is
    false for: the one greedy scan, deterministic.  The first vector of
    each E-line in encoded order is the one whose last nonzero entry is 1,
    so only those are tested."""
    order = tower.order
    for j in range(k):
        for enc in range(order**j, 2 * order**j):
            z = int_to_digits(enc, order, k)
            if not meets(z):
                return z
    raise PreconditionViolated("no avoiding vector exists")


def _e_line(tower: FieldTower, z: Sequence[int]) -> Subspace:
    """The E-line <z>_E of a nonzero z, flattened.  Its RREF row is z
    scaled by the inverse of its first nonzero entry, the pivot."""
    p = next(i for i, c in enumerate(z) if c)
    row = tuple(_row_kernel(tower.E)[0](tower.E.inv(z[p]), z))
    return flatten_subspace(Subspace(tower, "E", len(z), (row,), (p,)))


@functools.lru_cache(maxsize=256)
def avoid_complement(tower: FieldTower, k: int, h: Subspace,
                     t: int) -> Subspace:
    """An E-subspace V of E^[k] with dim_E(V) = k - t and H cap V = {0},
    for an F-subspace H (given flattened) with dim_F(H) <= mt.

    Greedy: each step adds the smallest encoded z whose E-line meets
    H + V only at 0.

    V is a pure function of (tower, k, H, t), so the last 256 answers are
    kept: the witnesses of ``max_subcode_weight`` and the refutations of
    ``is_r_minimal`` that the property suites build ask for the same few
    H again and again.
    The postcondition runs on every miss; a hit returns a V that passed it.
    """
    m = tower.m
    if h.level_name != "F" or h.ambient != k * m:
        raise ValueError("H must be an F-subspace of the flattened E^[k]")
    if not 0 <= t <= k:
        raise PreconditionViolated(f"t={t} outside 0..{k}")
    if h.dim > m * t:
        raise PreconditionViolated("dim_F(H) > mt: no avoiding complement")
    cur = h
    basis: List[Tuple[int, ...]] = []
    for _ in range(k - t):
        z = _first_avoiding(tower, k, lambda z: cur.intersection_dim(
            _e_line(tower, z)) > 0)
        basis.append(z)
        cur = cur.sum(_e_line(tower, z))
    out = Subspace.span(tower, "E", k, basis)
    if out.dim != k - t or h.intersection_dim(flatten_subspace(out)) != 0:
        raise CertificateError("avoiding complement has the wrong "
                               "dimension or meets H")
    return out
