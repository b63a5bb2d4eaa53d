"""Exact counting and closed-form bound evaluation.

Everything here is arbitrary-precision: counts are ints, inequality checks
run on Fractions.  The q-binomial convention returns 0 when r > n.

``omega_bounds`` aggregates every applicable lower/upper rule for the
minimal length of k-dimensional r-minimal codes; the generic lower bound
searches sequences on the documented bounded grid (entries in [0, m],
length up to (m-1)(k-r)) and reports which sequence achieved the max.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .linalg import CertificateError


class NonIntegerResult(ArithmeticError):
    """An exact division that must be integral was not (implementation bug)."""


@dataclass
class CountReport:
    """Exact counts plus the formula values they were checked against."""

    inputs: Dict[str, int]
    counts: Dict[str, int] = field(default_factory=dict)
    formulas: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "inputs": dict(self.inputs),
            "counts": {k: str(v) if isinstance(v, int) and abs(v) > 2**53
                       else v for k, v in self.counts.items()},
            "formulas": {k: str(v) if isinstance(v, int) and abs(v) > 2**53
                         else v for k, v in self.formulas.items()},
        }


# ---------------------------------------------------------------------------
# q-binomials and rank counts.
# ---------------------------------------------------------------------------


def qbinom(q: int, n: int, r: int) -> int:
    """Number of r-dimensional subspaces of an n-dimensional space."""
    if q < 2 or n < 0 or r < 0:
        raise ValueError("need q >= 2 and n, r >= 0")
    if r > n:
        return 0
    num = den = 1
    for i in range(1, r + 1):
        num *= q ** (i + n - r) - 1
        den *= q**i - 1
    if num % den:
        raise NonIntegerResult("q-binomial product did not divide")
    return num // den


def qdelta(q: int, n: int, r: int) -> int:
    """Number of ordered r-tuples of independent vectors in GF(q)^n."""
    if q < 2 or n < 0 or r < 0:
        raise ValueError("need q >= 2 and n, r >= 0")
    out = 1
    for i in range(r):
        out *= q**n - q**i
    return out


def qbinom_frac(a: Fraction, n: int, r: int) -> Fraction:
    if r > n:
        return Fraction(0)
    out = Fraction(1)
    for i in range(1, r + 1):
        out *= (a ** (i + n - r) - 1) / (a**i - 1)
    return out


def qdelta_frac(a: Fraction, n: int, r: int) -> Fraction:
    out = Fraction(1)
    for i in range(r):
        out *= a**n - a**i
    return out


def count_rank_matrices(q: int, m: int, n: int, r: int) -> int:
    """Number of m x n matrices over GF(q) of rank exactly r."""
    return qdelta(q, m, r) * qbinom(q, n, r)


def count_r_minimal(q: int, m: int, n: int, r: int) -> int:
    """Exact number of [n, r+1] r-minimal codes over GF(q^m)/GF(q).

    An [n, r+1] code is r-minimal iff its support weight exceeds mr, so the
    count is the number of full-rank (r+1) x n matrices with column span of
    F-dimension in (mr, m(r+1)], divided by the generator-matrix count per
    code.
    """
    if n < r + 1:
        raise ValueError("need n >= r + 1")
    total = sum(count_rank_matrices(q, m * (r + 1), n, i)
                for i in range(m * r + 1, m * (r + 1) + 1))
    denom = qdelta(q**m, r + 1, r + 1)
    if total % denom:
        raise NonIntegerResult("r-minimal count did not divide evenly")
    return total // denom


# ---------------------------------------------------------------------------
# psi bounds (counts of non-r-minimal codes).
# ---------------------------------------------------------------------------


@dataclass
class PsiBounds:
    bound_dimension_step: int      # psi(k,r) <= psi(t,r) * bin(n-t, k-t)
    existence_condition: bool      # psi(t,r) < the product forcing existence
    existence_rhs: Fraction
    weight_census_bound: Optional[Fraction] = None  # for t = r+1 only


def psi_step_bound(big_q: int, n: int, k: int, r: int, t: int,
                   psi_t: int) -> int:
    """psi(k, r) <= psi(t, r) * bin(n-t, k-t), all at the code field size."""
    if not r + 1 <= t <= k <= n:
        raise ValueError("need r+1 <= t <= k <= n")
    return psi_t * qbinom(big_q, n - t, k - t)


def psi_existence_rhs(big_q: int, n: int, k: int, t: int) -> Fraction:
    """The product whose excess over psi(t,r) forces a (sigma,r)-minimal
    k-dimensional code to exist (a rational in general; equal to the full
    subspace count when t = k)."""
    out = Fraction(1)
    for i in range(k - t + 1, k + 1):
        out *= Fraction(big_q ** (i + n - k) - 1, big_q**i - 1)
    return out


def psi_weight_census_bound(big_q: int, n: int, r: int,
                            weight_counts: Dict[int, int]) -> Fraction:
    """psi(r+1, r) <= sum_s N_s (Q^(s-r) - 1) / (Q - 1), N_s the number of
    r-dimensional codes of the ambient space with support weight s."""
    total = 0
    for s, count in weight_counts.items():
        if s >= r + 1:
            total += count * (big_q ** (s - r) - 1)
    return Fraction(total, big_q - 1)


def psi_bounds(q: int, m: int, n: int, k: int, r: int, t: int, psi_t: int,
               weight_counts: Optional[Dict[int, int]] = None) -> PsiBounds:
    """Evaluate the dimension-step bound and the existence condition at the
    code field size q^m; optionally also the census-based bound on
    psi(r+1, r) from supplied weight counts."""
    big_q = q**m
    bound = psi_step_bound(big_q, n, k, r, t, psi_t)
    rhs = psi_existence_rhs(big_q, n, k, t)
    census = None
    if weight_counts is not None:
        census = psi_weight_census_bound(big_q, n, r, weight_counts)
    return PsiBounds(bound, psi_t < rhs, rhs, census)


# ---------------------------------------------------------------------------
# Evasive-dimension certification machinery.
# ---------------------------------------------------------------------------


def _lemma_base_condition(m: int, lam: int, u: int, k: int) -> bool:
    """Quadratic sufficient condition for k <-> (lam, 0, u)."""
    return (k >= lam
            and k * k - (m + lam - u - 2) * k >= (lam - 1) * u + lam)


def _step_condition(m: int, lam: int, u: int, g_next: int, prefix: int,
                    s: int) -> bool:
    """One inequality of the certified descent chain at position s."""
    lhs = g_next * g_next + (lam + u + 2 - m + prefix + s) * g_next
    rhs = (m - 1) * lam + (m - 1) * prefix - u - s
    return lhs >= rhs


@dataclass
class EvasiveCertification:
    certified: bool
    rule: str
    sequence: Optional[Tuple[int, ...]] = None


def evasive_bound_certifies(m: int, lam: int, a: int, u: int, k: int,
                            ) -> EvasiveCertification:
    """Can k <-> (lam, a, u) be certified arithmetically?

    Meaning: every (n-lam, n-lam+a)-evasive subspace of E^n with n >= k has
    F-dimension at most n + a + u.  Certification routes: the small-m rule
    (Corollary 5.2's cap at s = k - a is at most k + a + u), the base
    condition when a = 0, and the descent-chain search over bounded
    nonnegative sequences (g_1..g_a).
    """
    if min(m, lam, a, u, k) < 0:
        raise ValueError("arguments must be nonnegative")
    cap = corollary_52_bound(m, k, lam, k - a)
    if cap is not None and cap <= k + a + u:
        return EvasiveCertification(True, "small-m")
    if a == 0:
        if _lemma_base_condition(m, lam, u, k):
            return EvasiveCertification(True, "base", ())
        return EvasiveCertification(False, "none")
    # g_1..g_a along the descent chain, then the base condition at
    # (lam + sum g_i, 0, u + a)
    seq = _search_sequence(
        a, m, lambda g, prefix, s: _step_condition(m, lam, u, g, prefix, s),
        lambda total: _lemma_base_condition(m, lam + total, u + a, k))
    if seq is not None:
        return EvasiveCertification(True, "descent-chain", seq)
    return EvasiveCertification(False, "none")


def _search_sequence(length: int, m: int,
                     step_ok: Callable[[int, int, int], bool],
                     final_ok: Callable[[int], bool],
                     ) -> Optional[Tuple[int, ...]]:
    """The first sequence (g_1..g_length), entries in [0, m], in ascending
    order, with step_ok(g, prefix, s) at every position s and final_ok(sum)
    at the end; (position, prefix) pairs without a completion are memoized.
    """
    dead = set()

    def rec(s: int, prefix: int, chosen: List[int]):
        if s == length:
            return tuple(chosen) if final_ok(prefix) else None
        if (s, prefix) in dead:
            return None
        for g in range(m + 1):
            if step_ok(g, prefix, s):
                out = rec(s + 1, prefix + g, chosen + [g])
                if out is not None:
                    return out
        dead.add((s, prefix))
        return None

    return rec(0, 0, [])


def corollary_52_bound(m: int, k: int, lam: int, s: int) -> Optional[int]:
    """Dimension cap for (k-lam, 2k-lam-s)-evasive subspaces of E^[k] at
    m in {2, 3, 4}; None when the hypotheses (k >= s >= lam+1) fail or m is
    out of range."""
    if not k >= s >= lam + 1:
        return None
    if m == 2:
        return 2 * k - s
    if m == 3:
        return 2 * k - s + (lam + 1) // 2
    if m == 4:
        return 2 * k - s + lam + 1
    return None


# ---------------------------------------------------------------------------
# Bounds for the minimal length of r-minimal codes.
# ---------------------------------------------------------------------------


@dataclass
class OmegaBounds:
    m: int
    k: int
    r: int
    lower: int
    upper: int
    rules: List[dict] = field(default_factory=list)
    exact: bool = False

    def to_json(self) -> dict:
        return {
            "m": self.m, "k": self.k, "r": self.r,
            "lower": self.lower, "upper": self.upper,
            "exact": self.exact, "rules": self.rules,
        }


def _generic_lower_search(m: int, k: int, r: int,
                          ) -> Tuple[int, Optional[dict]]:
    """Best lower bound (m-1)r + k + w + 1 achievable from the descent
    machinery, searching w and sequences (a_i) on the documented grid."""
    if r < 1:
        return 0, None
    for w in range((m - 1) * (k - r), -1, -1):
        seq = _search_omega_sequence(m, k, r, w)
        if seq is not None:
            return (m - 1) * r + k + w + 1, {"w": w, "sequence": list(seq)}
    return 0, None


def _search_omega_sequence(m: int, k: int, r: int, w: int,
                           ) -> Optional[Tuple[int, ...]]:
    """A sequence (a_1..a_w), entries in [0, m], satisfying the chain
    inequalities and the final quadratic condition for this k."""

    def chain_ok(g: int, prefix: int, s: int) -> bool:
        lhs = g * g + (m * (r - 1) + 2 + prefix + s) * g
        rhs = (m - 1) * prefix + m - s
        return lhs >= rhs

    def final_ok(total: int) -> bool:
        if k < r + 1 + total:
            return False
        lhs = k * k - (2 * r - m * (r - 1) + total - w) * k
        rhs = (total + r) * ((m - 1) * r + w) + 1
        return lhs >= rhs

    return _search_sequence(w, m, chain_ok, final_ok)


def omega_bounds(m: int, k: int, r: int) -> OmegaBounds:
    """Aggregate all applicable lower/upper/exact rules for the minimal
    length of a k-dimensional r-minimal code over a degree-m extension."""
    if not (m >= 1 and r >= 0 and k >= r + 1):
        raise ValueError("need m >= 1 and k >= r + 1 >= 1")
    rules: List[dict] = []
    lowers: List[int] = []
    uppers: List[int] = []
    exact: Optional[int] = None

    def rule(tag: str, kind: str, value: int, **extra) -> None:
        rules.append({"rule": tag, "kind": kind, "value": value, **extra})
        if kind == "lower":
            lowers.append(value)
        elif kind == "upper":
            uppers.append(value)

    # exact closed cases
    if r == 0:
        rule("zero-blocking", "exact", k)
        exact = k
    if r == k - 1:
        rule("hyperplane-case", "exact", (k - 1) * m + 1)
        exact = (k - 1) * m + 1
    if r + 1 >= m and exact is None:
        rule("degree-capped", "exact", (k - 1) * m + 1)
        exact = (k - 1) * m + 1
    if m == 3 and r == 1 and k >= 2 and exact is None:
        rule("cubic-extension-exact", "exact", 2 * k,
             note="finite base field")
        exact = 2 * k

    # general sandwich
    rule("dimension-sandwich-lower", "lower", (m - 1) * r + k)
    rule("dimension-sandwich-upper", "upper", (k - 1) * m + 1)

    # counting upper bound (finite base field)
    rule("counting-upper", "upper", m * r + k * (r + 1) - r * r - 2 * r,
         note="finite base field")
    if r == 1 and k >= 2:
        rule("counting-upper-minimal", "upper", m + 2 * k - 3,
             note="finite base field")

    # special lower bounds (the whole family needs m >= 2)
    if m >= 2:
        if r == 1 and k >= isqrt(m) + 2:
            rule("sqrt-threshold", "lower", m + k)
        c = _ceil_sqrt(m + 1)
        if r == 1 and k * k - c * k >= c * m + 1:
            rule("sqrt-plus-one", "lower", m + k + 1)
        if r >= 2 and k >= r + 2:
            rule("two-step", "lower", (m - 1) * r + k + 1)
        if r >= 3 and k >= r + 3:
            rule("three-step", "lower", (m - 1) * r + k + 2)
        if r == 2 and (k >= 6 or (k == 5 and m <= 7)):
            rule("r2-family", "lower", 2 * m + k)
        if m == 3 and r == 1 and k >= 2:
            rule("cubic-extension", "lower", 2 * k)
        if m == 4 and r == 2 and k >= 3:
            rule("quartic-extension", "lower", 2 * k + 3)

        generic, info = _generic_lower_search(m, k, r)
        if info is not None:
            rule("descent-search", "lower", generic, **info)

    lower = max(lowers) if lowers else 0
    upper = min(uppers) if uppers else (k - 1) * m + 1
    if lower > upper:
        raise CertificateError(f"bound rules crossed: {lower} > {upper}")
    if exact is not None:
        if not lower <= exact <= upper:
            raise CertificateError("exact rule outside rule interval")
        lower = upper = exact
    return OmegaBounds(m, k, r, lower, upper, rules, exact is not None)


def _ceil_sqrt(n: int) -> int:
    s = isqrt(n)
    return s if s * s == n else s + 1


# ---------------------------------------------------------------------------
# Exact Weierstrass-style inequality checks.
# ---------------------------------------------------------------------------


@dataclass
class InequalityReport:
    holds: bool
    lhs: Fraction
    rhs: Fraction


def product_tail_lower(a: Fraction, n: int) -> InequalityReport:
    """prod_{i=1}^n (1 - a^-i)  >  1 - 1/a - 1/a^2 + 1/a^5, exactly."""
    a = Fraction(a)
    if a <= 1:
        raise ValueError("requires a > 1")
    lhs = Fraction(1)
    for i in range(1, n + 1):
        lhs *= 1 - a ** (-i)
    rhs = 1 - a ** (-1) - a ** (-2) + a ** (-5)
    return InequalityReport(lhs > rhs, lhs, rhs)


def rank_count_upper(a: Fraction, m: int, n: int, h: int) -> InequalityReport:
    """a^(-h(m+n-h))
       * sum_{i<=h} delta_a(m,i) bin_a(n,i)
       <  1/((a-1)(a^2-a-1) a^(m+n-2h-2)) + a^2/(a^2-a-1), exactly."""
    a = Fraction(a)
    if a * a <= a + 1:
        raise ValueError("requires a^2 > a + 1 (a above the golden ratio)")
    if not 1 <= h <= min(m, n):
        raise ValueError("requires 1 <= h <= min(m, n)")
    total = Fraction(0)
    for i in range(h + 1):
        total += qdelta_frac(a, m, i) * qbinom_frac(a, n, i)
    lhs = a ** (-h * (m + n - h)) * total
    rhs = (Fraction(1) / ((a - 1) * (a * a - a - 1) * a ** (m + n - 2 * h - 2))
           + a * a / (a * a - a - 1))
    return InequalityReport(lhs < rhs, lhs, rhs)


def weierstrass_checks(a_values: Sequence[Fraction], n_max: int,
                       triples: Sequence[Tuple[int, int, int]]) -> dict:
    """Run both inequality families on a grid; returns per-case booleans."""
    product_results = {}
    for a in a_values:
        for n in range(n_max + 1):
            rep = product_tail_lower(Fraction(a), n)
            product_results[(str(a), n)] = rep.holds
    rank_results = {}
    for (m, n, h) in triples:
        for a in a_values:
            aa = Fraction(a)
            if aa * aa > aa + 1:
                rep = rank_count_upper(aa, m, n, h)
                rank_results[(str(a), m, n, h)] = rep.holds
    return {
        "product_lower": product_results,
        "rank_count_upper": rank_results,
        "all_pass": (all(product_results.values())
                     and all(rank_results.values())),
    }
