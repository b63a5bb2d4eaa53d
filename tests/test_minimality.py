import itertools
import random

import pytest

from rankmin.fields import make_field
from rankmin.linalg import Subspace, enumerate_subspaces, subspaces_of
from rankmin.minimality import (
    MethodInapplicable,
    MinimalityVerdict,
    constant_weight_class,
    dual_criterion_applicable,
    is_r_minimal,
    is_rank_minimal,
    is_sigma_maximal,
)
from rankmin.rank_metric import (
    RankCode,
    chi,
    chi_code,
    grw,
    subcode_spaces,
    subcode_weight,
    support_code,
    weight,
)

GF4 = make_field(2, 2, ext_poly=(1, 1, 1))
GF8 = make_field(2, 3, ext_poly=(1, 1, 0, 1))
W = 2

C32 = RankCode(GF4, 3, [(1, 0, W), (0, 1, 1)])
FLAT = RankCode(GF4, 3, [(1, 0, 0), (0, 1, 0)])


def all_codes(tower, n, k):
    for sub in enumerate_subspaces(tower, "E", n, k):
        yield RankCode(tower, n, sub.rows)


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


def test_is_rank_minimal_examples():
    assert is_rank_minimal(C32, Subspace.full(GF4, "E", 2)).verdict
    b = Subspace.span(GF4, "E", 2, [(1, 0)])
    assert is_rank_minimal(C32, b).verdict
    b_bad = Subspace.span(GF4, "E", 2, [(1, W)])
    v = is_rank_minimal(FLAT, b_bad)
    assert not v.verdict and v.witness is not None
    # the witness subcode has dimension 1 and strictly smaller support
    refut = RankCode.from_json(GF4, v.witness["refuting_subcode"])
    target = chi_code(FLAT.subcode(b_bad))
    assert refut.k == 1
    assert target.contains(chi_code(refut)) and chi_code(refut) != target


def test_rank_minimal_methods_agree():
    rng = random.Random(101)
    for tower in (GF4, GF8):
        for _ in range(12):
            code = random_code(tower, rng.randrange(2, 4), 2, rng)
            for b in subcode_spaces(code, 1):
                verdicts = {
                    is_rank_minimal(code, b, method).verdict
                    for method in ("criterion", "support", "definition")
                }
                assert len(verdicts) == 1


def test_zero_subcode_vacuously_minimal():
    assert is_rank_minimal(C32, Subspace.zero(GF4, "E", 2)).verdict


def test_is_r_minimal_examples():
    assert is_r_minimal(C32, 0).verdict
    assert is_r_minimal(C32, 1, method="all").verdict
    v = is_r_minimal(FLAT, 1, method="grw")
    assert not v.verdict
    # witness pair (W, D) refutes the definition directly
    w_code = RankCode.from_json(GF4, v.witness["w"])
    d_code = RankCode.from_json(GF4, v.witness["d"])
    assert w_code.k == 2 and d_code.k == 1
    assert chi_code(w_code) == chi_code(d_code)
    assert is_r_minimal(C32, 2).verdict  # r = k is vacuous


def test_dual_method_preconditions():
    assert dual_criterion_applicable(C32, 1)  # n=3 >= (m-1)r + k = 3
    short = RankCode(GF4, 2, [(1, 0), (0, 1)])
    assert not dual_criterion_applicable(short, 1)
    with pytest.raises(MethodInapplicable):
        is_r_minimal(short, 1, method="dual")


def test_four_way_agreement_all_gf4_codes_n_le_4():
    for n in range(2, 5):
        for k in range(1, n + 1):
            for code in all_codes(GF4, n, k):
                for r in range(1, k):
                    methods = ["grw", "cutting", "definition"]
                    if dual_criterion_applicable(code, r):
                        methods.append("dual")
                    verdicts = {is_r_minimal(code, r, mth).verdict
                                for mth in methods}
                    assert len(verdicts) == 1, (code.gen, r)


def test_four_way_agreement_sampled_gf8():
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randrange(2, 5)
        code = random_code(GF8, n, rng.randrange(1, min(4, n) + 1), rng)
        for r in range(1, code.k):
            is_r_minimal(code, r, method="all")


def test_minimality_restricts_to_intermediate_subcodes():
    rng = random.Random(107)
    for _ in range(12):
        code = random_code(GF4, rng.randrange(3, 5), 3, rng)
        for r in range(1, code.k):
            mine = is_r_minimal(code, r).verdict
            for t in range(r + 1, code.k + 1):
                sub_verdicts = all(
                    is_r_minimal(code.subcode(b), r).verdict
                    for b in subcode_spaces(code, t)
                )
                assert mine == sub_verdicts


def test_minimality_downward_closed():
    rng = random.Random(109)
    for tower in (GF4, GF8):
        for _ in range(15):
            code = random_code(tower, rng.randrange(2, 5), 3, rng)
            for r in range(1, code.k):
                if is_r_minimal(code, r).verdict:
                    for s in range(r + 1):
                        assert is_r_minimal(code, s).verdict


def test_constant_weight_implies_minimal():
    rng = random.Random(113)
    for tower in (GF4, GF8):
        for _ in range(15):
            code = random_code(tower, rng.randrange(2, 5),
                               rng.randrange(2, 4), rng)
            for r in range(1, code.k):
                weights = {subcode_weight(code, b)
                           for b in subcode_spaces(code, r)}
                if len(weights) == 1:
                    assert is_r_minimal(code, r).verdict


def test_is_sigma_maximal_examples():
    assert is_sigma_maximal(C32, Subspace.zero(GF4, "E", 2))
    assert is_sigma_maximal(C32, Subspace.span(GF4, "E", 2, [(1, 0)]))
    assert not is_sigma_maximal(FLAT, Subspace.span(GF4, "E", 2, [(1, W)]))


def test_minimal_iff_all_subcodes_maximal():
    rng = random.Random(127)
    for _ in range(10):
        code = random_code(GF4, rng.randrange(2, 5), 2, rng)
        for r in range(1, code.k):
            rmin = is_r_minimal(code, r).verdict
            all_max = all(is_sigma_maximal(code, b)
                          for b in subcode_spaces(code, r))
            assert rmin == all_max


def test_constant_weight_class_examples():
    wide = RankCode(GF4, 4, [(1, 0, W, 0), (0, 1, 0, W)])
    rep = constant_weight_class(wide, 1)
    # every 1-dim subcode of a full-support code has weight m (Cor 2.1)
    assert rep.is_constant and rep.weights_seen == [2]
    rep2 = constant_weight_class(C32, 1)
    assert not rep2.is_constant
    rep3 = constant_weight_class(FLAT, 1)
    assert not rep3.is_constant and len(rep3.weights_seen) == 2


def test_constant_weight_class_keeps_the_subcode_weight_oracle():
    # weights_seen runs over the (k-r)-dim E-subspaces M; the old route took
    # subcode_weight over the r-dim B, and B -> Bdd is a bijection onto them
    def oracle(code, r):
        return sorted({subcode_weight(code, b)
                       for b in subcode_spaces(code, r)})

    for code in all_codes(GF4, 4, 2):
        assert constant_weight_class(code, 1).weights_seen == oracle(code, 1)
    rng = random.Random(139)
    for tower in (GF8, make_field(3, 2)):
        for _ in range(6):
            code = random_code(tower, rng.randrange(3, 6), 3, rng)
            for r in (1, 2):
                assert constant_weight_class(code, r).weights_seen == \
                    oracle(code, r)


def test_eight_minimality_conditions_agree():
    """All eight characterizations of sigma-minimal subcodes agree."""
    rng = random.Random(131)
    for tower in (GF4, GF8):
        for _ in range(8):
            code = random_code(tower, rng.randrange(2, 4), 2, rng)
            for b in subcode_spaces(code, 1):
                results = _eight_conditions(code, b)
                assert len(set(results)) == 1, (code.gen, b.rows, results)


def _eight_conditions(code, b):
    tower = code.tower
    d_code = code.subcode(b)
    target = chi_code(d_code)
    csub = code.as_subspace()
    r = b.dim

    def sup_of(sub):
        return chi(tower, [code.codeword(g) for g in sub.rows], code.n)

    def sigma_minimal_in(w_code, dsub_rows):
        tgt = chi(tower, dsub_rows, code.n)
        for other in enumerate_subspaces(tower, "E", w_code.k, r):
            s = chi(tower, [w_code.codeword(g) for g in other.rows], code.n)
            if tgt.contains(s) and s != tgt:
                return False
        return True

    # (1) definition
    c1 = all(not (target.contains(sup_of(o)) and sup_of(o) != target)
             for o in subcode_spaces(code, r))
    # (2) sigma-minimal in every one-higher subcode containing D
    from rankmin.rank_metric import extensions_containing
    c2 = all(
        sigma_minimal_in(code.subcode(w),
                         [code.codeword(g) for g in b.rows])
        for w in extensions_containing(code, b)
    )
    # (3) supports of one-higher subcodes differ
    c3 = all(sup_of(w) != target for w in extensions_containing(code, b))
    # (4) C cap mu(chi(D)) = D
    mu = support_code(tower, target).as_subspace()
    inter = csub.intersect(mu)
    c4 = inter == d_code.as_subspace()
    # (5) dim C - dim D = dim(mu(chi(D)) + C) - dim chi(D)
    c5 = (code.k - r) == (mu.sum(csub).dim - target.dim)
    # (6) every subset of C with support inside chi(D) lies in D
    c6 = d_code.as_subspace().contains(inter)
    # (7) equal-dim subcodes with smaller-or-equal support coincide
    c7 = all(not (target.contains(sup_of(o)) and o != b)
             for o in subcode_spaces(code, r))
    # (8) no proper subspace of chi(D) supports a full-dim piece of C
    c8 = True
    for z in itertools.chain.from_iterable(
            subspaces_of(target, d) for d in range(target.dim + 1)):
        muz = support_code(tower, z).as_subspace()
        if csub.intersect(muz).dim >= r and z != target:
            c8 = False
            break
    return (c1, c2, c3, c4, c5, c6, c7, c8)


def test_verdict_json():
    v = is_r_minimal(FLAT, 1)
    obj = v.to_json()
    assert obj["verdict"] is False and "witness" in obj


def test_large_weight_forces_minimality():
    """wt(C) >= (k-1)m + 1 makes the code r-minimal for every r < k."""
    rng = random.Random(137)
    seen = 0
    for tower in (GF4, GF8):
        m = tower.m
        while seen < 6:
            code = random_code(GF4 if tower is GF4 else GF8,
                               rng.randrange(3, 5), 2, rng)
            if weight(code) < (code.k - 1) * m + 1:
                continue
            seen += 1
            for r in range(1, code.k):
                assert is_r_minimal(code, r, method="all").verdict
    # a constructed wide example over GF(4): U = E^[2]
    wide = RankCode(GF4, 4, [(1, 0, W, 0), (0, 1, 0, W)])
    assert weight(wide) == 4 >= (2 - 1) * 2 + 1
    assert is_r_minimal(wide, 1, method="all").verdict
