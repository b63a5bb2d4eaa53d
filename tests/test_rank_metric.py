import random

import pytest

from rankmin import linalg, rank_metric
from rankmin.combinatorics import qbinom
from rankmin.fields import make_field
from rankmin.linalg import (CertificateError, Subspace, enumerate_subspaces,
                            f_rational_part)
from rankmin.rank_metric import (
    RankCode,
    chi,
    chi_code,
    column_support,
    drop_weight_subcode,
    full_support_codeword,
    grw,
    grw_sequence,
    max_subcode_weight,
    rank_support,
    subcode_spaces,
    subcode_weight,
    support_code,
    weight,
)

GF4 = make_field(2, 2, ext_poly=(1, 1, 1))
GF8 = make_field(2, 3, ext_poly=(1, 1, 0, 1))
W = 2  # omega

# the running [3,2] example over GF(4): G = [[1,0,w],[0,1,1]]
C32 = RankCode(GF4, 3, [(1, 0, W), (0, 1, 1)])


def random_code(tower, n, k, rng):
    k = min(k, n)
    while True:
        rows = [tuple(rng.randrange(tower.order) for _ in range(n))
                for _ in range(k)]
        try:
            code = RankCode(tower, n, rows)
        except ValueError:
            continue
        if code.k == k:
            return code


def test_rank_support_examples():
    assert rank_support(GF4, (1, W)).dim == 2
    assert rank_support(GF4, (0, 0)).dim == 0
    s = rank_support(GF4, (1, 1))
    assert s.dim == 1 and s.contains_vector((1, 1))


def test_rank_support_scalar_invariance_and_basis_invariance():
    rng = random.Random(2)
    alt = make_field(2, 2, ext_poly=(1, 1, 1), basis=(W, 3))  # (w, w+1)
    for _ in range(80):
        alpha = tuple(rng.randrange(4) for _ in range(3))
        c = rng.randrange(1, 4)
        scaled = tuple(GF4.E.mul(c, x) for x in alpha)
        assert rank_support(GF4, scaled) == rank_support(GF4, alpha)
        # subspaces of different towers never compare equal; the supports
        # are compared as RREF bases of F^3
        assert rank_support(alt, alpha).rows == rank_support(GF4, alpha).rows


def test_chi_examples():
    assert chi(GF4, [(0, 0)], 2).dim == 0
    assert chi(GF4, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3).dim == 3
    assert chi_code(C32).dim == 3


def _chi_tau_scaled(tower, vectors, n):
    """Oracle: the supports of the F-generating family {tau * v}."""
    rows = [row for v in vectors for tau in tower.basis
            for row in tower.expand([tower.E.mul(tau, x) for x in v])]
    return Subspace.span(tower, "F", n, rows)


@pytest.mark.parametrize("tower", [
    GF4, GF8,
    make_field(3, 2),                        # odd p
    make_field(2, 2, e=2),                   # GF(16)/GF(4)
    make_field(2, 3, basis=[1, 3, 7]),       # custom basis
], ids=lambda t: t.spec_string())
def test_chi_matches_tau_scaled_oracle(tower):
    """One coordinate matrix per vector spans the same support as the m
    scalings tau * v of each."""
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 5)
        vecs = [tuple(rng.randrange(tower.order) for _ in range(n))
                for _ in range(rng.randrange(0, 4))]
        assert chi(tower, vecs, n) == _chi_tau_scaled(tower, vecs, n)


def test_column_support_examples():
    assert column_support(C32).dim == 3
    ident = RankCode(GF4, 2, [(1, 0), (0, 1)])
    assert column_support(ident).dim == 2
    wide = RankCode(GF4, 4, [(1, 0, W, 0), (0, 1, 0, W)])
    assert column_support(wide).dim == 4  # U = E^[2]


def test_subcode_weight_examples():
    assert subcode_weight(C32, Subspace.span(GF4, "E", 2, [])) == 0
    b = Subspace.span(GF4, "E", 2, [(1, 0)])
    assert subcode_weight(C32, b, cross_check=True) == 2
    assert subcode_weight(C32, Subspace.full(GF4, "E", 2)) == 3


def test_subcode_weight_formula_matches_chi_everywhere():
    rng = random.Random(31)
    for tower in (GF4, GF8):
        for _ in range(25):
            code = random_code(tower, rng.randrange(2, 5), 2, rng)
            for b in subcode_spaces(code, 1):
                subcode_weight(code, b, cross_check=True)


def test_grw_examples():
    assert grw(C32, 0) == 0
    line = RankCode(GF4, 2, [(1, W)])
    assert grw(line, 1) == 2
    assert grw(C32, 2) == 3
    # d_1(C32) = 1: the codeword (0,1,1) expands to a single F-row
    assert grw(C32, 1) == grw(C32, 1, method="brute") == 1


def test_grw_brute_ignores_lying_flatten(monkeypatch):
    # a flattening that drops one row makes the geometric route report
    # d_1(C32) = 2; the brute route computes supports without flattening.
    # A fresh grid memo: a grid kept earlier would hide the patch, and the
    # poisoned grid leaves with the fresh memo when the patch is undone
    real = linalg.flatten_subspace
    monkeypatch.setattr(linalg, "_GRIDS", {})

    def lying_flatten(esub):
        flat = real(esub)
        return Subspace(flat.tower, "F", flat.ambient, flat.rows[:-1],
                        flat.pivots[:-1])

    monkeypatch.setattr(linalg, "flatten_subspace", lying_flatten)
    assert grw(C32, 1) == 2
    assert grw(C32, 1, method="brute") == 1


def test_grw_routes_agree_random():
    rng = random.Random(41)
    for tower in (GF4, GF8):
        for _ in range(15):
            code = random_code(tower, rng.randrange(2, 5),
                               rng.randrange(1, 3), rng)
            for r in range(code.k + 1):
                assert grw(code, r) == grw(code, r, method="brute")


def _grw_full_sweep(code, r):
    """d_r(C) as dim U - max(meets) over every M: no early exit."""
    u = column_support(code)
    return u.dim - max(meet for _, meet in linalg.meet_dims(u, code.k - r))


def _identity_code(tower, n):
    """E^n, whose column span F^n stops grw at its floor dim U - r."""
    return RankCode(tower, n, [tuple(int(i == j) for j in range(n))
                               for i in range(n)])


# U = F^(km): every E-subspace M lies in U, so grw stops at its ceiling
CEILING = RankCode(GF4, 4, [(1, W, 0, 0), (0, 0, 1, W)])


@pytest.mark.parametrize("tower", [
    GF4, GF8,
    make_field(3, 2),                         # GF(9), odd p
    make_field(2, 2, e=2),                    # GF(16)/GF(4)
    make_field(2, 3, basis=[1, 3, 7]),        # custom basis
])
def test_grw_early_exit_matches_full_sweep_and_brute(tower):
    rng = random.Random(211)
    codes = [_identity_code(tower, n) for n in (1, 2, 3)]
    codes += [random_code(tower, rng.randrange(2, 5), rng.randrange(1, 4),
                          rng) for _ in range(8)]
    if tower is GF4:
        codes.append(CEILING)
    for code in codes:
        for r in range(1, code.k + 1):
            assert grw(code, r) == _grw_full_sweep(code, r) \
                == grw(code, r, method="brute")


def test_grw_stops_at_floor_and_ceiling(monkeypatch):
    read = []
    real = rank_metric.meet_dims

    def counting(s, h):
        for msub, meet in real(s, h):
            read.append(msub)
            yield msub, meet

    monkeypatch.setattr(rank_metric, "meet_dims", counting)
    gf9 = make_field(3, 2)
    # E^4: the first plane meets F^4 in dim U - r = 2, of qbinom(9, 4, 2)
    assert grw(_identity_code(gf9, 4), 2) == 2
    assert len(read) == 1 and qbinom(9, 4, 2) == 7462
    read.clear()
    # the first line meets F^4 in (k-r)m = 2; the floor dim U - r = 3 is
    # never reached, so it alone would read all qbinom(4, 2, 1) = 5 lines
    assert grw(CEILING, 1) == 2
    assert len(read) == 1 and _grw_full_sweep(CEILING, 1) == 2


def test_grw_strictly_monotone():
    rng = random.Random(43)
    for tower in (GF4, GF8):
        for _ in range(20):
            code = random_code(tower, rng.randrange(2, 5),
                               rng.randrange(1, 4), rng)
            seq = grw_sequence(code)
            assert all(a < b for a, b in zip(seq, seq[1:]))


def test_dual_space_support_identities():
    """The dual of a code meets F^n exactly where the dual of its
    support does, and the weight drops out of that intersection."""
    rng = random.Random(47)
    for tower in (GF4, GF8):
        for _ in range(20):
            n = rng.randrange(2, 5)
            code = random_code(tower, n, rng.randrange(1, 3), rng)
            lhs = f_rational_part(tower, code.space.dual())
            rhs_space = chi_code(code).dual()
            assert lhs == rhs_space
            assert weight(code) == n - lhs.dim


def test_weight_bounded_by_f_dimension():
    rng = random.Random(53)
    for tower in (GF4, GF8):
        m = tower.m
        for _ in range(20):
            n = rng.randrange(2, 5)
            k = rng.randrange(1, min(3, n) + 1)
            code = random_code(tower, n, k, rng)
            wtc = weight(code)
            assert wtc <= m * k
            assert (wtc == m * k) == (column_support(code).dim == m * k)
            if wtc == m * k:
                for b in subcode_spaces(code, 1):
                    assert subcode_weight(code, b) == m


def test_max_subcode_weight_examples():
    val, wit = max_subcode_weight(C32, 0)
    assert val == 0 and wit.k == 0
    val, wit = max_subcode_weight(C32, 1)
    assert val == 2 == min(2 * 1, 3)
    assert wit.k == 1 and chi_code(wit).dim == 2
    val, wit = max_subcode_weight(C32, 2)
    assert val == 3 == weight(C32)


def test_max_subcode_weight_brute_force_oracle():
    rng = random.Random(59)
    for tower in (GF4, GF8):
        m = tower.m
        for _ in range(10):
            code = random_code(tower, rng.randrange(2, 4), 2, rng)
            for s in range(code.k + 1):
                val, wit = max_subcode_weight(code, s)
                brute = max(
                    (subcode_weight(code, b) for b in subcode_spaces(code, s)),
                    default=0)
                assert val == brute == min(m * s, weight(code))
                assert chi_code(wit).dim == val


def test_max_subcode_weight_checks_its_witness(monkeypatch):
    # an avoid_complement that returns the wrong E-line gives a witness
    # subcode lighter than min(ms, wt(C)) = 2; the check holds under -O too
    k, s = C32.k, 1
    wrong = next(v for v in enumerate_subspaces(GF4, "E", k, k - s)
                 if subcode_weight(C32, v.dual()) != 2)
    monkeypatch.setattr(rank_metric, "avoid_complement",
                        lambda *args, **kwargs: wrong)
    with pytest.raises(CertificateError, match="witness weight"):
        max_subcode_weight(C32, s)


def test_subcode_of_all_of_e_k_is_the_code():
    # B = E^k gives the code itself, which keeps its column span; a proper
    # B still gives a new code, and B is checked before either
    rng = random.Random(67)
    for tower in (GF4, GF8):
        for k in (0, 1, 2, 3):
            code = random_code(tower, 3, k, rng)
            full = Subspace.full(tower, "E", code.k)
            assert code.subcode(full) is code
            assert RankCode(tower, code.n, [code.codeword(g)
                                            for g in full.rows]) == code
    line = C32.subcode(Subspace.span(GF4, "E", 2, [(1, 1)]))
    assert line is not C32 and line.k == 1
    with pytest.raises(linalg.AmbientMismatch):
        C32.subcode(Subspace.full(GF4, "F", 2))


def test_full_support_codeword_when_short():
    rng = random.Random(61)
    for tower in (GF4, GF8):
        for _ in range(15):
            n = rng.randrange(1, tower.m + 1)  # n <= m
            code = random_code(tower, n, rng.randrange(1, n + 1), rng)
            alpha = full_support_codeword(code)
            assert rank_support(tower, alpha) == chi_code(code)


def test_support_code_examples():
    full = support_code(GF4, Subspace.full(GF4, "F", 3))
    assert full.k == 3
    w = Subspace.span(GF4, "F", 3, [(1, 0, 0), (0, 1, 0)])
    mu = support_code(GF4, w)
    assert mu.gen == ((1, 0, 0), (0, 1, 0))
    assert support_code(GF4, Subspace.span(GF4, "F", 3, [])).k == 0
    # mu(w) = {alpha : rsupp(alpha) <= w}: check by exhaustion over E^3
    members = set()
    for a in range(4):
        for b in range(4):
            for c in range(4):
                if w.contains(rank_support(GF4, (a, b, c))):
                    members.add((a, b, c))
    space = mu.space
    assert all(space.contains_vector(v) for v in members)
    assert len(members) == 4 ** mu.k


def test_drop_weight_subcode_examples():
    line = RankCode(GF4, 2, [(1, W)])
    dropped = drop_weight_subcode(line)
    assert dropped.k == 0 and chi_code(dropped).dim == 0
    flat = RankCode(GF4, 3, [(1, 0, 0), (0, 1, 0)])
    sub = drop_weight_subcode(flat)
    assert sub.k == 1 and chi_code(sub).dim <= 1
    sub2 = drop_weight_subcode(C32)
    assert sub2.k == 1 and chi_code(sub2).dim <= 2


def test_singleton_gap_for_minimal_subcodes():
    """For a rank-minimal subcode the dimension gap is at most the
    weight gap, with equality exactly when the support code of D plus C
    fills the support code of C."""
    from rankmin.minimality import is_rank_minimal

    rng = random.Random(67)
    for tower in (GF4, GF8):
        for _ in range(15):
            code = random_code(tower, rng.randrange(2, 5), 2, rng)
            for b in subcode_spaces(code, 1):
                if not is_rank_minimal(code, b).verdict:
                    continue
                d_code = code.subcode(b)
                lhs = code.k - 1
                rhs = weight(code) - chi_code(d_code).dim
                assert lhs <= rhs
                mu_d = support_code(tower, chi_code(d_code)).space
                mu_c = support_code(tower, chi_code(code)).space
                eq = mu_d.sum(code.space) == mu_c
                assert (lhs == rhs) == eq


def test_code_json_roundtrip():
    obj = C32.to_json()
    again = RankCode.from_json(GF4, obj)
    assert again == C32


def test_a_code_is_the_subspace_it_keeps():
    # RankCode's generator matrix, dimensions, equality and hash are its
    # E-subspace's, which ``space`` holds
    space = Subspace.span(GF4, "E", 3, [(0, 1, 1), (1, 1, 3)])
    code = RankCode(GF4, 3, [(0, 1, 1), (1, 1, 3)])
    assert code.space == space
    assert (code.tower, code.n, code.k, code.gen) == \
        (GF4, 3, 2, space.rows) == (GF4, 3, 2, C32.gen)
    assert code == C32 and hash(code) == hash(C32) == hash(space)
    assert code != RankCode(make_field(2, 2, basis=(1, 3)), 3, C32.gen)
    assert code.dual().space == space.dual()
    with pytest.raises(ValueError):
        RankCode(GF4, 3, [(1, 0, W), (W, 0, 3)])


def test_rows_of_the_wrong_length_are_rejected():
    # a generator row of the wrong length, or a message gamma outside
    # E^k, raises instead of being read truncated
    with pytest.raises(linalg.AmbientMismatch):
        RankCode(GF4, 3, [[1, 0]])
    with pytest.raises(linalg.AmbientMismatch):
        RankCode(GF4, 2, [(1, 0, W)])
    assert C32.codeword((1, 0)) == (1, 0, W)
    zero = RankCode(GF4, 3, ())
    assert zero.codeword(()) == (0, 0, 0)
    for code, gamma in [(C32, (1,)), (C32, (1, 0, 3)), (zero, (1, 2, 3))]:
        with pytest.raises(ValueError):
            code.codeword(gamma)


def test_entries_outside_the_field_are_rejected():
    # 5 is no element of GF(4), and -1 is no element either (it would be
    # read as a list index from the end of the row kernel's tables)
    for row in [(5, 0, 0), (-1, 0, 0), (1, 0, 4)]:
        with pytest.raises(ValueError, match="generator entries"):
            RankCode(GF4, 3, [row])
    assert RankCode(GF4, 3, [(3, 0, 0)]).gen == ((1, 0, 0),)


def test_support_containment_equivalence():
    """chi(Q) <= chi(D) iff Bdd cap U <= Pdd, for random B, P."""
    from rankmin.rank_metric import transposed_dual

    rng = random.Random(71)
    for tower in (GF4, GF8):
        for _ in range(20):
            code = random_code(tower, rng.randrange(2, 5), 2, rng)
            u = column_support(code)
            subs = list(subcode_spaces(code, 1))
            b = subs[rng.randrange(len(subs))]
            p = subs[rng.randrange(len(subs))]
            d_sup = chi(tower, [code.codeword(g) for g in b.rows], code.n)
            q_sup = chi(tower, [code.codeword(g) for g in p.rows], code.n)
            lhs = d_sup.contains(q_sup)
            bdd_u = transposed_dual(b).intersect(u)
            rhs = transposed_dual(p).contains(bdd_u)
            assert lhs == rhs


def test_weight_on_deeper_tower():
    # GF(16)/GF(4): q = 4 exercises the non-bitpacked lanes end to end
    t = make_field(2, 2, e=2)
    assert t.q == 4 and t.m == 2
    x = 4  # the class of the degree-2 generator over GF(4)
    code = RankCode(t, 3, [(1, 0, x), (0, 1, 1)])
    assert weight(code) == 3
    assert grw(code, 2) == grw(code, 2, method="brute") == 3
