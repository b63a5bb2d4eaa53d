"""``linalg.meet_dims`` against the four E-subspace loops it replaced.

Before the sweep was shared, ``is_evasive``, ``grw(method="geometric")``,
``constant_weight_class`` and ``_refute_r_minimal`` each enumerated the
E-subspaces M of E^k, flattened each and intersected it with the column
span U.  Those loops are kept below, as they were, as the oracles.
"""

import random

import pytest

from rankmin import linalg
from rankmin.fields import make_field
from rankmin.geometry import cutting_evasive_params, is_evasive
from rankmin.linalg import (CertificateError, Subspace, enumerate_subspaces,
                            espan_of_flat, flat_grid, flatten_subspace,
                            meet_dims, subspaces_of)
from rankmin.minimality import (MinimalityVerdict, constant_weight_class,
                                dual_criterion_applicable, is_r_minimal)
from rankmin.rank_metric import (RankCode, chi, chi_code, column_support,
                                 grw_sequence, max_subcode_weight,
                                 subcode_spaces)

GF4 = make_field(2, 2, ext_poly=(1, 1, 1))
SAMPLED = {
    "gf8": make_field(2, 3, ext_poly=(1, 1, 0, 1)),
    "gf8-basis-1-3-7": make_field(2, 3, basis=[1, 3, 7]),
    "gf9": make_field(3, 2),
    "gf16-over-gf4": make_field(2, 2, e=2),
}


# -- the loops as they were -------------------------------------------------


def oracle_is_evasive(tower, k, j, h, t):
    if espan_of_flat(j).dim != k:
        return False, None
    if h == 0:
        return (t >= 0), (None if t >= 0 else Subspace.zero(tower, "E", k))
    if t >= h * tower.m:
        return True, None
    for msub in enumerate_subspaces(tower, "E", k, h):
        flat = flatten_subspace(msub)
        if j.intersection_dim(flat) > t:
            return False, msub
    return True, None


def oracle_grw(code, r):
    if r == 0:
        return 0
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


def oracle_weights_seen(code, r):
    u = column_support(code)
    return sorted({u.dim - flatten_subspace(msub).intersection_dim(u)
                   for msub in enumerate_subspaces(code.tower, "E", code.k,
                                                   code.k - r)})


def oracle_refute_r_minimal(code, r):
    tower, m = code.tower, code.tower.m
    u = column_support(code)
    for msub in enumerate_subspaces(tower, "E", code.k, code.k - r - 1):
        flat = flatten_subspace(msub)
        if u.dim - flat.intersection_dim(u) <= m * r:
            w_code = code.subcode(msub.dual())
            _, d_code = max_subcode_weight(w_code, r)
            return {"w": w_code.to_json(), "d": d_code.to_json(),
                    "chi_dim": chi_code(w_code).dim}
    raise CertificateError("no refutation found for a false verdict")


def oracle_r_minimal_definition(code, r):
    tower = code.tower
    for wsub in subcode_spaces(code, r + 1):
        target = chi_code(code.subcode(wsub))
        for dsub in subspaces_of(wsub, r):
            sup = chi(tower, [code.codeword(g) for g in dsub.rows], code.n)
            if sup == target:
                return False
    return True


def oracle_r_minimal_json(code, r, method):
    """``is_r_minimal(code, r, method).to_json()`` from the oracle loops,
    for 1 <= r <= k-1."""
    m, k, n = code.tower.m, code.k, code.n
    if method in ("grw", "all"):  # ``all`` reports the grw verdict
        ok = oracle_grw(code, r + 1) >= m * r + 1
        method = "grw"
    elif method == "cutting":
        u = column_support(code)
        h, t = cutting_evasive_params(m, k, r, u.dim)
        ok = oracle_is_evasive(code.tower, k, u, h, t)[0]
    elif method == "dual":
        ok = oracle_grw(code.dual(), n - (m - 1) * r - k + 1) >= n - m * r + 1
    else:
        ok = oracle_r_minimal_definition(code, r)
    witness = None if ok else oracle_refute_r_minimal(code, r)
    return MinimalityVerdict(ok, method, witness).to_json()


# -- the differential check ----------------------------------------------------


def assert_matches_oracles(code):
    tower, k, m = code.tower, code.k, code.tower.m
    u = column_support(code)
    # <U>_E = E^k, so no proper M contains U (every proper M lies in a
    # hyperplane): grw never reaches weight 0 at r >= 1
    assert not any(flatten_subspace(msub).contains(u)
                   for msub in enumerate_subspaces(tower, "E", k, k - 1))
    assert grw_sequence(code) == [oracle_grw(code, r) for r in range(k + 1)]
    for h in range(k + 1):
        for t in range(-1, h * m + 1):
            assert is_evasive(tower, k, u, h, t) == \
                oracle_is_evasive(tower, k, u, h, t), (code.gen, h, t)
    for r in range(1, k):
        assert constant_weight_class(code, r).weights_seen == \
            oracle_weights_seen(code, r)
        methods = ["grw", "cutting", "definition", "all"]
        if dual_criterion_applicable(code, r):
            methods.append("dual")
        for method in methods:
            assert is_r_minimal(code, r, method).to_json() == \
                oracle_r_minimal_json(code, r, method), (code.gen, r, method)


def test_meet_dims_agrees_with_the_oracle_loops_on_every_gf4_code_n_le_4():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for sub in enumerate_subspaces(GF4, "E", n, k):
                assert_matches_oracles(RankCode(GF4, n, sub.rows))


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_meet_dims_agrees_with_the_oracle_loops_on_sampled_codes(name):
    tower = SAMPLED[name]
    rng = random.Random(f"meet-dims:{name}")
    for _ in range(8):
        n = rng.randrange(2, 5)
        k = rng.randrange(2, min(3, n) + 1)
        rows = [[rng.randrange(tower.order) for _ in range(n)]
                for _ in range(k)]
        gen = Subspace.span(tower, "E", n, rows).rows
        assert_matches_oracles(RankCode(tower, n, gen))


# -- the kept grids ------------------------------------------------------------


def oracle_meets(s, h):
    tower = s.tower
    return [(msub, flatten_subspace(msub).intersection_dim(s))
            for msub in enumerate_subspaces(tower, "E", s.ambient // tower.m,
                                            h)]


def held_rows():
    return sum(flat.dim for grid in linalg._GRIDS.values()
               for _, flat in grid)


def sweep(tower, k, s, h, t, cold):
    """meet_dims(S, h) and is_evasive's answer, each from an empty memo
    when ``cold``."""
    if cold:
        linalg._GRIDS.clear()
    meets = list(meet_dims(s, h))
    if cold:
        linalg._GRIDS.clear()
    return meets, is_evasive(tower, k, s, h, t)


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_cold_warm_and_streamed_grids_give_the_same_sweep(name, monkeypatch):
    tower, m = SAMPLED[name], SAMPLED[name].m
    budget = linalg._GRID_ROW_BUDGET
    rng = random.Random(f"flat-grid:{name}")
    monkeypatch.setattr(linalg, "_GRIDS", {})
    refuted = 0
    for _ in range(6):
        k = rng.randrange(1, 4)
        s = Subspace.zero(tower, "F", k * m)
        while espan_of_flat(s).dim < k:  # <S>_E = E^k, or nothing is swept
            s = s.sum(Subspace.span(tower, "F", k * m, [
                [rng.randrange(tower.q) for _ in range(k * m)]]))
        for h in range(1, k + 1):
            t = rng.randrange(h * m)
            monkeypatch.setattr(linalg, "_GRID_ROW_BUDGET", budget)
            cold = sweep(tower, k, s, h, t, cold=True)
            warm = sweep(tower, k, s, h, t, cold=False)
            monkeypatch.setattr(linalg, "_GRID_ROW_BUDGET", 0)
            streamed = sweep(tower, k, s, h, t, cold=True)
            assert cold == warm == streamed, (name, k, h, t)
            assert cold == (oracle_meets(s, h),
                            oracle_is_evasive(tower, k, s, h, t))
            refuted += cold[1][1] is not None
    assert refuted > 0


def test_the_memo_never_holds_more_than_its_budget(monkeypatch):
    monkeypatch.setattr(linalg, "_GRIDS", {})
    budget, swept = linalg._GRID_ROW_BUDGET, 0
    for tower in [GF4, *SAMPLED.values()]:
        for k in range(1, 4):
            for h in range(k + 1):
                grid = list(flat_grid(tower, k, h))
                swept += sum(flat.dim for _, flat in grid)
                assert held_rows() <= budget
    assert swept > 2 * budget


def test_a_grid_over_the_budget_streams_and_is_never_kept(monkeypatch):
    monkeypatch.setattr(linalg, "_GRIDS", {})
    kept = flat_grid(GF4, 2, 1)
    assert isinstance(kept, tuple) and (GF4, 2, 1) in linalg._GRIDS
    # qbinom(4, 4, 2) = 357 planes of 2 * 2 flattened rows each
    big = flat_grid(GF4, 4, 2)
    assert not isinstance(big, tuple)
    assert sum(flat.dim for _, flat in big) == 357 * 4 > \
        linalg._GRID_ROW_BUDGET
    assert (GF4, 4, 2) not in linalg._GRIDS
    assert flat_grid(GF4, 2, 1) is kept


def test_a_grid_belongs_to_its_tower_basis_and_all(monkeypatch):
    # the polynomial-basis and a custom-basis GF(8) are one field with two
    # coordinate maps, so their flattened grids differ row by row
    monkeypatch.setattr(linalg, "_GRIDS", {})
    custom = SAMPLED["gf8-basis-1-3-7"]
    plain = make_field(2, 3)
    assert plain._definition[:5] == custom._definition[:5]
    grids = {}
    for tower in (plain, custom, plain):
        grid = list(flat_grid(tower, 2, 1))
        assert grid == [(msub, flatten_subspace(msub)) for msub in
                        enumerate_subspaces(tower, "E", 2, 1)]
        grids[tower] = [flat.rows for _, flat in grid]
    assert grids[plain] != grids[custom]
