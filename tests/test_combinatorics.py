import itertools
from fractions import Fraction

import pytest

from rankmin import combinatorics
from rankmin.combinatorics import (
    EvasiveCertification,
    corollary_52_bound,
    count_e_spanning,
    count_r_minimal,
    count_rank_matrices,
    evasive_bound_certifies,
    omega_bounds,
    product_tail_lower,
    qbinom,
    qdelta,
    rank_count_upper,
    weierstrass_checks,
)
from rankmin.fields import make_field
from rankmin.linalg import enumerate_subspaces, espan_of_flat


def brute_count_subspaces(q, n, d):
    num = den = 1
    for i in range(d):
        num *= q**n - q**i
        den *= q**d - q**i
    return num // den if d else 1


def test_qbinom_examples():
    assert qbinom(2, 3, 1) == 7
    assert qbinom(5, 7, 0) == 1
    assert qbinom(2, 3, 4) == 0
    assert qbinom(2, 4, 2) == 35
    assert qbinom(2, 9, 5) == 3309747


def test_qbinom_matches_enumeration():
    gf2 = make_field(2, 1)
    gf3 = make_field(3, 1)
    for n in range(0, 7):
        for d in range(0, n + 1):
            assert qbinom(2, n, d) == sum(
                1 for _ in enumerate_subspaces(gf2, "F", n, d))
    for n in range(0, 5):
        for d in range(0, n + 1):
            assert qbinom(3, n, d) == sum(
                1 for _ in enumerate_subspaces(gf3, "F", n, d))


def test_qbinom_matches_independent_oracle():
    for q in (2, 3, 4, 8):
        for n in range(0, 9):
            for d in range(0, n + 1):
                assert qbinom(q, n, d) == brute_count_subspaces(q, n, d)


def test_pascal_type_consistency():
    for q in (2, 3, 5):
        for n in range(1, 8):
            for r in range(1, n + 1):
                lhs = qbinom(q, n, r) * (q**r - 1)
                rhs = qbinom(q, n - 1, r - 1) * (q**n - 1)
                assert lhs == rhs


def test_qdelta_examples():
    assert qdelta(2, 2, 2) == 6
    assert qdelta(7, 5, 0) == 1
    assert qdelta(4, 2, 2) == 180


def test_rank_matrix_count_brute_force():
    """delta_q(m,r) * bin_q(n,r) equals a full census of rank-r matrices."""
    import random

    from rankmin.linalg import rref

    for q, tower in ((2, make_field(2, 1)), (3, make_field(3, 1))):
        for m in range(1, 4):
            for n in range(1, 4):
                counts = {}
                for flat in range(q ** (m * n)):
                    x = flat
                    rows = []
                    for _ in range(m):
                        row = []
                        for _ in range(n):
                            x, d = divmod(x, q)
                            row.append(d)
                        rows.append(tuple(row))
                    rank = rref(rows, tower.F)[1]
                    counts[rank] = counts.get(rank, 0) + 1
                for r in range(min(m, n) + 1):
                    assert counts.get(r, 0) == count_rank_matrices(q, m, n, r)


@pytest.mark.parametrize("p, m, k", [(2, 2, 2), (2, 2, 3), (2, 3, 2),
                                     (3, 2, 2)])
def test_count_e_spanning_matches_enumeration(p, m, k):
    # the d-dimensional F-subspaces of F^(km) whose E-span is E^k
    tower = make_field(p, m)
    for d in range(k * m + 1):
        want = sum(espan_of_flat(sub).dim == k
                   for sub in enumerate_subspaces(tower, "F", k * m, d))
        assert count_e_spanning(p, m, k, d) == want


def test_count_r_minimal_examples():
    assert count_r_minimal(2, 2, 3, 1) == 14
    assert count_r_minimal(2, 2, 2, 1) == 0
    assert count_r_minimal(2, 3, 4, 1) == 3720


@pytest.mark.parametrize("q, m, message", [
    (6, 2, "q=6 is not a prime power"), (1, 2, "q=1 is not a prime power"),
    (2, 0, "m=0 must be >= 1"), (4, -1, "m=-1 must be >= 1"),
])
def test_count_r_minimal_needs_a_field(q, m, message):
    # the r-minimal count is over GF(q^m)/GF(q), so it needs both fields;
    # the q-binomials stay polynomial values for any q >= 2
    with pytest.raises(ValueError, match=message):
        count_r_minimal(q, m, 3, 1)
    assert qbinom(6, 3, 1) == 43 and qdelta(6, 2, 1) == 35


def test_omega_bounds_known_values():
    b = omega_bounds(3, 4, 1)
    assert (b.lower, b.upper) == (8, 8) and b.exact
    b = omega_bounds(2, 5, 1)
    assert (b.lower, b.upper) == (9, 9) and b.exact
    b = omega_bounds(5, 3, 1)
    assert (b.lower, b.upper) == (7, 8)


def test_omega_bounds_acceptance_instances():
    assert omega_bounds(2, 2, 1).lower == omega_bounds(2, 2, 1).upper == 3
    assert omega_bounds(3, 2, 1).lower == omega_bounds(3, 2, 1).upper == 4
    assert omega_bounds(2, 3, 1).lower == omega_bounds(2, 3, 1).upper == 5
    assert omega_bounds(3, 3, 1).lower == omega_bounds(3, 3, 1).upper == 6


def test_omega_bounds_edge_rules():
    assert omega_bounds(4, 3, 0).lower == omega_bounds(4, 3, 0).upper == 3
    b = omega_bounds(4, 4, 3)  # r = k-1
    assert b.lower == b.upper == 3 * 4 + 1
    b = omega_bounds(2, 6, 2)  # r+1 >= m
    assert b.lower == b.upper == 11


def test_omega_bounds_counting_value_dominates():
    for m, k, r in ((2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 1), (4, 5, 2)):
        b = omega_bounds(m, k, r)
        counting = m * r + k * (r + 1) - r * r - 2 * r
        assert counting >= b.lower


def test_omega_bounds_sandwich_on_grid():
    for m in range(1, 6):
        for k in range(1, 7):
            for r in range(0, k):
                b = omega_bounds(m, k, r)
                assert (m - 1) * r + k <= b.lower <= b.upper <= (k - 1) * m + 1


def test_descent_search_reports_witness_sequence():
    b = omega_bounds(2, 3, 1)
    tags = {rule["rule"]: rule for rule in b.rules}
    assert "descent-search" in tags
    assert tags["descent-search"]["value"] == 5
    assert tags["descent-search"]["w"] == 0


def test_evasive_certification_examples():
    cert = evasive_bound_certifies(3, 0, 0, 0, 2)
    assert cert.certified and cert.rule in ("base", "small-m")
    # m = 2 certifies any (lam, a, u) at k = a + lam + 1
    cert = evasive_bound_certifies(2, 1, 3, 0, 5)
    assert cert.certified and cert.rule == "small-m"
    cert = evasive_bound_certifies(5, 3, 1, 0, 4)
    assert isinstance(cert, EvasiveCertification)


def test_evasive_certification_base_and_descent_routes():
    # m = 5 has no small-m rule.  Base, (lam, a, u) = (1, 0, 0): k >= 1 and
    # k^2 - 4k >= 1, first true at k = 5 (5 >= 1; at k = 4, 0 < 1)
    assert evasive_bound_certifies(5, 1, 0, 0, 5) == \
        EvasiveCertification(True, "base", ())
    assert evasive_bound_certifies(5, 1, 0, 0, 4) == \
        EvasiveCertification(False, "none")
    # descent chain, (1, 1, 0): the step g^2 - 2g >= 4 first holds at g = 4;
    # then the base at (1 + 4, 0, 1) needs k >= 5 and k^2 - 7k >= 9, first
    # true at k = 9 (18; at k = 8, 8 < 9).  At k = 8, g = 5 gives the base
    # at (6, 0, 1): k^2 - 8k = 0 < 11, so nothing certifies
    assert evasive_bound_certifies(5, 1, 1, 0, 9) == \
        EvasiveCertification(True, "descent-chain", (4,))
    assert evasive_bound_certifies(5, 1, 1, 0, 8) == \
        EvasiveCertification(False, "none")


def _recursive_search_sequence(length, m, step_ok, final_ok):
    # the oracle, a depth-first search: the first sequence in ascending
    # order, with dead (position, prefix) pairs memoized
    dead = set()

    def rec(s, prefix, chosen):
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


def _recursive_search_omega_sequence(m, k, r, w):
    def chain_ok(g, prefix, s):
        lhs = g * g + (m * (r - 1) + 2 + prefix + s) * g
        rhs = (m - 1) * prefix + m - s
        return lhs >= rhs

    def final_ok(total):
        if k < r + 1 + total:
            return False
        lhs = k * k - (2 * r - m * (r - 1) + total - w) * k
        rhs = (total + r) * ((m - 1) * r + w) + 1
        return lhs >= rhs

    return _recursive_search_sequence(w, m, chain_ok, final_ok)


def _recursive_generic_lower_search(m, k, r):
    # one search per w, from the largest down
    if r < 1:
        return 0, None
    for w in range((m - 1) * (k - r), -1, -1):
        seq = _recursive_search_omega_sequence(m, k, r, w)
        if seq is not None:
            return (m - 1) * r + k + w + 1, {"w": w, "sequence": list(seq)}
    return 0, None


def _recursive_search_one_length(lengths, m, step_ok, final_ok):
    (length,) = lengths  # evasive_bound_certifies asks for one length
    return _recursive_search_sequence(length, m, step_ok,
                                      lambda total: final_ok(length, total))


def test_descent_chains_match_the_recursive_search(monkeypatch):
    # every rule, w and sequence of omega_bounds and every evasive
    # certification equal the depth-first search's on the same grid
    triples = [(m, k, r) for m in range(1, 7) for k in range(1, 11)
               for r in range(k)]
    evasive = list(itertools.product(range(7), range(6), range(6), range(6),
                                     range(9)))
    got = ([omega_bounds(*t).to_json() for t in triples],
           [evasive_bound_certifies(*t) for t in evasive])
    monkeypatch.setattr(combinatorics, "_generic_lower_search",
                        _recursive_generic_lower_search)
    monkeypatch.setattr(combinatorics, "_search_sequence",
                        _recursive_search_one_length)
    want = ([omega_bounds(*t).to_json() for t in triples],
            [evasive_bound_certifies(*t) for t in evasive])
    assert len(triples) == 330
    assert any(rule.get("w") for b in want[0] for rule in b["rules"])
    assert any(c.rule == "descent-chain" for c in want[1])
    assert got[0] == want[0]
    assert got[1] == want[1]


def test_long_descent_chains_need_no_deep_stack():
    # w runs to (m-1)(k-r) = 999 here; one frame per position overran
    # Python's stack
    b = omega_bounds(2, 1000, 1)
    assert (b.lower, b.upper) == (1999, 1999)
    rule = next(rule for rule in b.rules if rule["rule"] == "descent-search")
    assert (rule["value"], rule["w"]) == (1999, 997)


def test_small_m_rule_in_closed_form():
    # Corollary 5.2's cap at s = k - a is at most k + a + u exactly when
    # k >= a + lam + 1 and m = 2, m = 3 with 2u >= lam, or m = 4 with
    # u >= lam + 1
    for m in range(2, 7):
        for lam in range(5):
            for a in range(5):
                for u in range(7):
                    for k in range(11):
                        rule = (m == 2 or (m == 3 and 2 * u >= lam)
                                or (m == 4 and u >= lam + 1))
                        cert = evasive_bound_certifies(m, lam, a, u, k)
                        assert (cert.rule == "small-m") == \
                            (rule and k >= a + lam + 1), (m, lam, a, u, k)


def test_corollary_52_bounds():
    assert corollary_52_bound(3, 3, 1, 2) == 5
    assert corollary_52_bound(2, 4, 0, 2) == 6
    assert corollary_52_bound(4, 4, 1, 2) == 8
    assert corollary_52_bound(3, 2, 2, 1) is None  # hypotheses fail
    assert corollary_52_bound(5, 4, 1, 2) is None  # m out of range


def test_product_tail_lower_examples():
    rep = product_tail_lower(Fraction(2), 5)
    assert rep.holds
    assert rep.lhs == Fraction(9765, 32768)
    assert rep.rhs == Fraction(9, 32)  # 1 - 1/2 - 1/4 + 1/32
    rep0 = product_tail_lower(Fraction(2), 0)
    assert rep0.holds and rep0.lhs == 1


def test_rank_count_upper_example():
    rep = rank_count_upper(Fraction(2), 4, 4, 2)
    assert rep.holds
    with pytest.raises(ValueError):
        rank_count_upper(Fraction(3, 2), 4, 4, 2)  # below golden ratio


def test_weierstrass_grid():
    triples = [(m, n, h)
               for m in range(1, 6) for n in range(1, 6)
               for h in range(1, min(m, n) + 1)]
    out = weierstrass_checks([Fraction(2), Fraction(3), Fraction(4),
                              Fraction(8)], 12, triples)
    assert out["all_pass"]


def test_rank_matrix_count_q2_four_by_four():
    from rankmin.linalg import pack_gf2, rank_gf2

    counts = {}
    for flat in range(1 << 16):
        rows = [(flat >> (4 * i)) & 0xF for i in range(4)]
        rank = rank_gf2(rows)
        counts[rank] = counts.get(rank, 0) + 1
    for r in range(5):
        assert counts.get(r, 0) == count_rank_matrices(2, 4, 4, r)


def test_rank_matrix_count_q3_rectangles():
    from rankmin.fields import make_field
    from rankmin.linalg import rref

    gf3 = make_field(3, 1)
    for m, n in ((4, 2), (2, 4)):
        counts = {}
        for flat in range(3 ** (m * n)):
            x = flat
            rows = []
            for _ in range(m):
                row = []
                for _ in range(n):
                    x, d = divmod(x, 3)
                    row.append(d)
                rows.append(tuple(row))
            rank = rref(rows, gf3.F)[1]
            counts[rank] = counts.get(rank, 0) + 1
        for r in range(min(m, n) + 1):
            assert counts.get(r, 0) == count_rank_matrices(3, m, n, r)
