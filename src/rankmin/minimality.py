"""Deciders for rank-minimal subcodes, sigma-maximal subcodes, r-minimal
codes (four independent criteria) and constant-weight classification.

Criteria for "C is r-minimal":
  * grw:        d_{r+1}(C) >= mr + 1
  * cutting:    the column span U is a cutting r-blocking set of E^[k]
  * dual:       d_{n-(m-1)r-k+1}(C-dual) >= n - mr + 1
                (needs m >= 2, 1 <= r <= k-1, n >= (m-1)r + k)
  * definition: no (r+1)-dimensional subcode W has an r-dimensional
                subcode with the same support

False verdicts always carry a definition-level refutation (W, D) with
chi(D) = chi(W), found along the failing criterion and re-checkable on its
own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .geometry import is_cutting
from .linalg import (
    CertificateError,
    Subspace,
    espan_of_flat,
    meet_dims,
    subspaces_of,
)
from .rank_metric import (
    RankCode,
    chi_code,
    column_support,
    drop_weight_subcode,
    extensions_containing,
    grw,
    max_subcode_weight,
    subcode_spaces,
    subcode_support,
    support_code,
    transposed_dual,
)


class MethodInapplicable(ValueError):
    """The requested criterion's preconditions do not hold."""


@dataclass
class MinimalityVerdict:
    verdict: bool
    method: str
    witness: Optional[dict] = None
    checked_conditions: List[int] = field(default_factory=list)

    def to_json(self) -> dict:
        obj = {"verdict": self.verdict, "method": self.method}
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.checked_conditions:
            obj["checked_conditions"] = self.checked_conditions
        return obj


# ---------------------------------------------------------------------------
# Rank-minimal subcodes.
# ---------------------------------------------------------------------------


def is_rank_minimal(code: RankCode, b: Subspace, method: str = "criterion",
                    ) -> MinimalityVerdict:
    """Is D = {gamma G | gamma in B} rank minimal in C?

    ``criterion``: the E-span test <Bdd cap U>_E = Bdd.
    ``support``:   C cap mu(chi(D)) = D via the support code.
    ``definition``: brute force over equal-dimensional subcodes.
    The zero subcode is vacuously minimal.
    """
    tower = code.tower
    code.check_message_space(b)
    if b.dim == 0:
        return MinimalityVerdict(True, method)
    if method == "criterion":
        u = column_support(code)
        bdd = transposed_dual(b)
        ok = espan_of_flat(bdd.intersect(u)).dim == b.dual().dim
        if ok:
            return MinimalityVerdict(True, method)
        return MinimalityVerdict(False, method,
                                 witness=_refute_rank_minimal(code, b))
    if method == "support":
        d_code = code.subcode(b)
        mu = support_code(tower, chi_code(d_code)).space
        inter = code.space.intersect(mu)
        ok = inter == d_code.space
        verdict = MinimalityVerdict(ok, method, checked_conditions=[4])
        if not ok:
            verdict.witness = _refute_rank_minimal(code, b)
        return verdict
    if method == "definition":
        target = subcode_support(code, b)
        for other in subcode_spaces(code, b.dim):
            sup = subcode_support(code, other)
            if target.contains(sup) and sup != target:
                return MinimalityVerdict(
                    False, method,
                    witness={"refuting_b": other.to_json(),
                             "chi_dim": sup.dim},
                    checked_conditions=[1])
        return MinimalityVerdict(True, method, checked_conditions=[1])
    raise ValueError(f"unknown method {method!r}")


def _refute_rank_minimal(code: RankCode, b: Subspace) -> dict:
    """Definition-level refutation: a subcode with strictly smaller support.

    A non-minimal D admits an extension W of one higher dimension with
    chi(W) = chi(D); dropping a support hyperplane inside W then yields a
    same-dimension subcode with strictly smaller support.
    """
    d_code = code.subcode(b)
    target = chi_code(d_code)
    for wsub in extensions_containing(code, b):
        w_code = code.subcode(wsub)
        if chi_code(w_code) == target:
            smaller = drop_weight_subcode(w_code)
            if not target.contains(chi_code(smaller)) \
                    or chi_code(smaller) == target:
                raise CertificateError("refuting subcode does not shrink "
                                       "the support")
            return {
                "refuting_subcode": smaller.to_json(),
                "chi_dim": chi_code(smaller).dim,
                "target_chi_dim": target.dim,
            }
    raise CertificateError("no refutation found for a false verdict")


# ---------------------------------------------------------------------------
# r-minimal codes.
# ---------------------------------------------------------------------------

_DUAL_PRECONDITION = "dual criterion needs m >= 2, 1 <= r <= k-1, n >= (m-1)r+k"


def dual_criterion_applicable(code: RankCode, r: int) -> bool:
    m = code.tower.m
    return m >= 2 and 1 <= r <= code.k - 1 and code.n >= (m - 1) * r + code.k


def is_r_minimal(code: RankCode, r: int, method: str = "grw",
                 ) -> MinimalityVerdict:
    """Is every r-dimensional subcode of C rank minimal?

    r = 0 and r >= k are vacuously true.  ``all`` evaluates every
    applicable criterion and insists on agreement.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0 or r >= code.k:
        return MinimalityVerdict(True, "trivial")
    if method == "all":
        methods = ["grw", "cutting", "definition"]
        if dual_criterion_applicable(code, r):
            methods.append("dual")
        verdicts = {mth: _criterion(code, r, mth) for mth in methods}
        if len(set(verdicts.values())) != 1:
            raise CertificateError(f"criteria disagree on r={r}: {verdicts}")
        method, ok = "grw", verdicts["grw"]
    else:
        ok = _criterion(code, r, method)
    verdict = MinimalityVerdict(ok, method)
    if not ok:
        verdict.witness = _refute_r_minimal(code, r)
    return verdict


def _criterion(code: RankCode, r: int, method: str) -> bool:
    """One criterion's verdict on r-minimality, for 1 <= r <= k - 1."""
    tower, m, k = code.tower, code.tower.m, code.k
    if method == "grw":
        return grw(code, r + 1) >= m * r + 1
    if method == "cutting":
        return is_cutting(tower, k, column_support(code), r).verdict
    if method == "dual":
        if not dual_criterion_applicable(code, r):
            raise MethodInapplicable(_DUAL_PRECONDITION)
        return (grw(code.dual(), code.n - (m - 1) * r - k + 1)
                >= code.n - m * r + 1)
    if method == "definition":
        return _r_minimal_definition(code, r)
    raise ValueError(f"unknown method {method!r}")


def _r_minimal_definition(code: RankCode, r: int) -> bool:
    """No (r+1)-dimensional subcode shares its support with an r-dimensional
    subcode of it."""
    for wsub in subcode_spaces(code, r + 1):
        target = subcode_support(code, wsub)
        for dsub in subspaces_of(wsub, r):
            if subcode_support(code, dsub) == target:
                return False
    return True


def _refute_r_minimal(code: RankCode, r: int) -> dict:
    """A pair (W, D), dim W = r+1, D < W, chi(D) = chi(W).

    Built from a (r+1)-dimensional subcode of weight <= mr: the maximal
    r-dimensional subcode weight inside it already reaches its full
    support.
    """
    u = column_support(code)
    for msub, meet in meet_dims(u, code.k - r - 1):
        if u.dim - meet <= code.tower.m * r:
            b = msub.dual()  # Bdd = M
            w_code = code.subcode(b)
            _, d_code = max_subcode_weight(w_code, r)
            chi_w = chi_code(w_code)
            if chi_code(d_code) != chi_w:
                raise CertificateError("refuting pair has unequal supports")
            return {"w": w_code.to_json(), "d": d_code.to_json(),
                    "chi_dim": chi_w.dim}
    raise CertificateError("no refutation found for a false verdict")


# ---------------------------------------------------------------------------
# Sigma-maximal subcodes.
# ---------------------------------------------------------------------------


def is_sigma_maximal(code: RankCode, b: Subspace) -> bool:
    """Every equal-dimensional subcode whose support contains chi(D) is D."""
    target = subcode_support(code, b)
    for other in subcode_spaces(code, b.dim):
        if subcode_support(code, other).contains(target) and other != b:
            return False
    return True


# ---------------------------------------------------------------------------
# Constant-weight classification.
# ---------------------------------------------------------------------------


@dataclass
class ConstantWeightReport:
    is_constant: bool
    weights_seen: List[int]


def constant_weight_class(code: RankCode, r: int) -> ConstantWeightReport:
    """Evaluate two equivalent constant-weight conditions and insist they
    agree: all r-dimensional subcodes share one weight, and the column span
    is all of E^[k] (equivalently wt(C) = mk, since wt(C) = dim_F(U))."""
    m, k = code.tower.m, code.k
    if k < 2 or not 1 <= r <= k - 1:
        raise ValueError("requires k >= 2 and 1 <= r <= k-1")
    # the r-dimensional subcode weights, one per (k-r)-dim E-subspace M
    u = column_support(code)
    weights = sorted({u.dim - meet for _, meet in meet_dims(u, k - r)})
    cond1 = len(weights) == 1
    cond2 = u.dim == m * k
    if cond1 != cond2:
        raise CertificateError("constant-weight conditions disagree")
    return ConstantWeightReport(cond1, weights)
