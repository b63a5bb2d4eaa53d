import itertools
import random

import pytest

from rankmin.fields import make_field
from rankmin.linalg import (
    AmbientMismatch,
    Subspace,
    embed_f_vectors,
    enumerate_subspaces,
    espan_of_flat,
    f_rational_part,
    flatten_subspace,
    flatten_vector,
    free_cells,
    mat_vec,
    pack_gf2,
    rank_gf2,
    rref,
    subspaces_of,
    unflatten_vector,
    walk_fills,
    _row_kernel,
)
from rankmin.rank_metric import RankCode, subcode_weight
from rankmin.search import _FILL_CHUNK

GF4 = make_field(2, 2, ext_poly=(1, 1, 1))
GF2 = make_field(2, 1)
W = 2  # omega in GF(4)


def brute_count_subspaces(q, n, d):
    """Independent oracle: count d-dim subspaces of GF(q)^n by counting
    ordered independent tuples and dividing by the per-subspace count."""
    num = den = 1
    for i in range(d):
        num *= q**n - q**i
        den *= q**d - q**i
    return num // den if d else 1


def test_rref_trivial_cases():
    ident = ((1, 0), (0, 1))
    rows, rank, piv = rref(ident, GF2.F)
    assert rows == ident and rank == 2 and piv == (0, 1)
    rows, rank, piv = rref(((0, 1), (1, 0)), GF2.F)
    assert rows == ident and rank == 2


def test_rref_gf4_dependent_rows():
    # row 2 = w * row 1 over GF(4)
    rows, rank, piv = rref(((1, W), (W, GF4.E.mul(W, W))), GF4.E)
    assert rank == 1
    assert rows == ((1, W),)


def test_span_canonical_under_shuffle_and_rescale():
    rng = random.Random(3)
    for _ in range(40):
        vecs = [tuple(rng.randrange(4) for _ in range(4)) for _ in range(3)]
        s1 = Subspace.span(GF4, "E", 4, vecs)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        scalars = [rng.randrange(1, 4) for _ in shuffled]
        scaled = [
            tuple(GF4.E.mul(c, x) for x in v)
            for c, v in zip(scalars, shuffled)
        ]
        s2 = Subspace.span(GF4, "E", 4, scaled)
        assert s1 == s2 and hash(s1) == hash(s2)


def test_sum_and_intersect_dimension_formula():
    rng = random.Random(7)
    for _ in range(60):
        a = Subspace.span(GF2, "F", 5,
                          [tuple(rng.randrange(2) for _ in range(5))
                           for _ in range(rng.randrange(4))])
        b = Subspace.span(GF2, "F", 5,
                          [tuple(rng.randrange(2) for _ in range(5))
                           for _ in range(rng.randrange(4))])
        s = a.sum(b)
        i = a.intersect(b)
        assert s.dim + i.dim == a.dim + b.dim
        assert i.dim == a.intersection_dim(b)
        assert a.contains(i) and b.contains(i)
        assert s.contains(a) and s.contains(b)
        assert a.intersect(a) == a


def test_intersect_example_from_mixed_views():
    # span_F{(1,0),(0,1),(w,0)} cap the F-view of E(0,1) inside GF(4)^2
    veca = [(1, 0), (0, 1), (W, 0)]
    flat_a = Subspace.span(GF4, "F", 4, [flatten_vector(GF4, v) for v in veca])
    line = Subspace.span(GF4, "E", 2, [(0, 1)])
    flat_line = flatten_subspace(line)
    inter = flat_a.intersect(flat_line)
    assert inter.dim == 1
    # brute-force oracle over all 16 flattened vectors of E^2
    count = 0
    for v0 in range(4):
        for v1 in range(4):
            fv = flatten_vector(GF4, (v0, v1))
            if flat_a.contains_vector(fv) and flat_line.contains_vector(fv):
                count += 1
    assert count == 2  # q^dim = 2^1


def test_dual_examples():
    zero = Subspace.span(GF4, "E", 2, [])
    assert zero.dual() == Subspace.full(GF4, "E", 2)
    line = Subspace.span(GF4, "E", 2, [(1, W)])
    d = line.dual()
    assert d.dim == 1
    beta = d.rows[0]
    assert GF4.E.add(GF4.E.mul(1, beta[0]), GF4.E.mul(W, beta[1])) == 0
    # beta is proportional to (w, 1)
    assert Subspace.span(GF4, "E", 2, [(W, 1)]) == d


def test_biduality_and_inclusion_reversal():
    rng = random.Random(13)
    for _ in range(40):
        a = Subspace.span(GF4, "E", 3,
                          [tuple(rng.randrange(4) for _ in range(3))
                           for _ in range(rng.randrange(3))])
        assert a.dual().dual() == a
        assert a.dual().dim == 3 - a.dim
        b = a.sum(Subspace.span(GF4, "E", 3,
                                [tuple(rng.randrange(4) for _ in range(3))]))
        assert b.dual().dim <= a.dual().dim
        assert a.dual().contains(b.dual())


@pytest.mark.parametrize("q,n,d,tower,level", [
    (2, 3, 1, GF2, "F"),
    (2, 4, 2, GF2, "F"),
    (2, 5, 3, GF2, "F"),
    (4, 3, 1, GF4, "E"),
    (4, 3, 2, GF4, "E"),
])
def test_enumeration_complete_and_distinct(q, n, d, tower, level):
    seen = set(enumerate_subspaces(tower, level, n, d))
    assert len(seen) == brute_count_subspaces(q, n, d)
    assert all(s.dim == d for s in seen)


def test_enumeration_counts_match_oracle_deeper():
    # q=2 up to N=9 would be slow here; spot-check a medium case plus q=3
    gf3 = make_field(3, 1)
    total = sum(1 for _ in enumerate_subspaces(gf3, "F", 4, 2))
    assert total == brute_count_subspaces(3, 4, 2) == 130
    total2 = sum(1 for _ in enumerate_subspaces(GF2, "F", 7, 2))
    assert total2 == brute_count_subspaces(2, 7, 2) == 2667


def test_enumeration_edge_dims():
    assert [s.dim for s in enumerate_subspaces(GF2, "F", 3, 0)] == [0]
    full = list(enumerate_subspaces(GF2, "F", 3, 3))
    assert full == [Subspace.full(GF2, "F", 3)]
    assert list(enumerate_subspaces(GF2, "F", 3, 4)) == []


def rref_from_fill(pivots, ncols, cells, fill, order):
    """Oracle for the walk: decode one fill index from scratch, free cells
    row-major, cell 0 the least significant base-|K| digit."""
    rows = [[0] * ncols for _ in pivots]
    for r, p in enumerate(pivots):
        rows[r][p] = 1
    x = fill
    for (r, c) in cells:
        x, d = divmod(x, order)
        rows[r][c] = d
    return rows


def _assert_walk_matches_oracle(pivots, ncols, order, lo=0, hi=None):
    cells = free_cells(pivots, ncols)
    end = order ** len(cells) if hi is None else hi
    expect = [tuple(map(tuple, rref_from_fill(pivots, ncols, cells, fill,
                                              order)))
              for fill in range(lo, end)]
    assert list(walk_fills(pivots, ncols, order, lo, hi)) == expect


@pytest.mark.parametrize("tower,level,n", [
    (GF2, "F", 7),
    (make_field(3, 1), "F", 6),
    (GF4, "E", 4),
    (make_field(3, 2, e=2), "F", 6),        # F = GF(9)
], ids=["gf2-F7", "gf3-F6", "gf4-E4", "gf9-F6"])
def test_walk_equals_fill_oracle(tower, level, n):
    order = (tower.F if level == "F" else tower.E).order
    width = 200
    for d in range(1, n + 1):
        for pivots in itertools.combinations(range(n), d):
            nfill = order ** len(free_cells(pivots, n))
            if nfill <= 3 * width:
                _assert_walk_matches_oracle(pivots, n, order)
                continue
            mid = nfill // 2 + 7
            for lo, hi in [(0, width), (mid, mid + width),
                           (nfill - width, nfill)]:
                _assert_walk_matches_oracle(pivots, n, order, lo, hi)


def test_walk_edge_ranges():
    # a pivot set with no free cells has exactly one fill
    for pivots in [(4, 5, 6), (0, 1, 2, 3, 4, 5, 6)]:
        assert free_cells(pivots, 7) == []
        assert len(list(walk_fills(pivots, 7, 2))) == 1
        _assert_walk_matches_oracle(pivots, 7, 2)
    # single fills, lo = hi - 1, including the last one
    assert len(free_cells((0, 3), 6)) == 6
    for lo in (0, 1, 2, 8, 26, 80, 3 ** 6 - 1):
        _assert_walk_matches_oracle((0, 3), 6, 3, lo, lo + 1)
    # ranges that start at, end at and straddle unit boundaries of the
    # scan, on pivot sets with more fills than one unit holds
    for order, pivots, ncols in [(2, (0, 1), 24), (3, (1, 4), 12)]:
        for j in (1, 2, 7):
            edge = j * _FILL_CHUNK
            for lo, hi in [(edge, edge + 40), (edge - 40, edge),
                           (edge - 3, edge + 3)]:
                _assert_walk_matches_oracle(pivots, ncols, order, lo, hi)


def test_subspaces_of_restriction():
    amb = Subspace.span(GF2, "F", 5, [(1, 0, 0, 1, 0), (0, 1, 0, 0, 1),
                                      (0, 0, 1, 1, 1)])
    subs = list(subspaces_of(amb, 2))
    assert len(subs) == brute_count_subspaces(2, 3, 2)
    assert all(amb.contains(s) and s.dim == 2 for s in subs)
    assert len(set(subs)) == len(subs)


def test_flatten_unflatten_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        v = tuple(rng.randrange(8) for _ in range(3))
        t = make_field(2, 3, ext_poly=(1, 1, 0, 1))
        assert unflatten_vector(t, flatten_vector(t, v)) == v


def test_flatten_subspace_dims():
    line = Subspace.span(GF4, "E", 2, [(1, W)])
    flat = flatten_subspace(line)
    assert flat.dim == 2  # dim_E * m
    assert espan_of_flat(flat) == line
    # E-span of a scattered F-subspace is everything
    s = Subspace.span(GF4, "F", 4, [flatten_vector(GF4, (1, 0)),
                                    flatten_vector(GF4, (0, 1))])
    assert espan_of_flat(s).dim == 2


# (tower, largest k): every k with |E^k| <= 20,000, except that GF(4) stops
# at k = 5 (E^6 already has 471,264 subspaces)
FLATTEN_CASES = [
    (make_field(2, 2), 5),
    (make_field(2, 3, basis=[1, 3, 7]), 4),
    (make_field(3, 2, basis=[2, 4]), 4),
    (make_field(2, 2, e=2), 3),
    (make_field(3, 3), 3),
    (make_field(3, 2, e=2), 2),
    (make_field(5, 2), 3),
]


@pytest.mark.parametrize("tower, k_max", FLATTEN_CASES,
                         ids=[f"GF({t.order})/GF({t.q})"
                              for t, _ in FLATTEN_CASES])
def test_flatten_subspace_equals_span_of_scaled_rows(tower, k_max):
    # flatten_subspace writes the RREF down directly; the oracle
    # row-reduces the flattened tau_j * row_i of every E-subspace
    mul = tower.E.mul
    for k in range(1, k_max + 1):
        for d in range(k + 1):
            for esub in enumerate_subspaces(tower, "E", k, d):
                vecs = [flatten_vector(tower, [mul(tau, x) for x in row])
                        for row in esub.rows for tau in tower.basis]
                want = Subspace.span(tower, "F", k * tower.m, vecs)
                got = flatten_subspace(esub)
                assert (got, got.pivots) == (want, want.pivots)


def test_f_rational_part():
    # A = E-span of (1, w): flattened contains (1,1)? rational part is the
    # set of F-vectors in A.
    line = Subspace.span(GF4, "E", 2, [(1, W)])
    rat = f_rational_part(GF4, line)
    # c(1, w) in F^2 requires c = 0: rational part is zero
    assert rat.dim == 0
    line2 = Subspace.span(GF4, "E", 2, [(1, 1)])
    rat2 = f_rational_part(GF4, line2)
    assert rat2.dim == 1 and rat2.contains_vector((1, 1))


def test_rank_gf2_matches_generic():
    rng = random.Random(23)
    for _ in range(60):
        vecs = [tuple(rng.randrange(2) for _ in range(7))
                for _ in range(rng.randrange(1, 6))]
        generic = rref(vecs, GF2.F)[1]
        packed = rank_gf2([pack_gf2(v) for v in vecs])
        assert generic == packed


def test_ambient_mismatch():
    a = Subspace.span(GF2, "F", 3, [(1, 0, 0)])
    b = Subspace.span(GF2, "F", 4, [(1, 0, 0, 0)])
    with pytest.raises(AmbientMismatch):
        a.sum(b)


def test_a_vector_of_the_wrong_length_is_not_reduced():
    # reduce_vector and contains_vector reject the vector instead of
    # reading it truncated or ignoring its extra entries
    gf4 = make_field(2, 2, ext_poly=(1, 1, 1))
    s = Subspace.span(gf4, "E", 3, [(1, 0, 2)])
    assert s.reduce_vector((1, 0, 0)) == (0, 0, 2)
    assert s.contains_vector((2, 0, 3)) and not s.contains_vector((1, 0, 0))
    for vec, probe in [((1, 0), s.reduce_vector), ((1, 0), s.contains_vector),
                       ((1, 0, 2, 1), s.contains_vector)]:
        with pytest.raises(AmbientMismatch):
            probe(vec)


# ---------------------------------------------------------------------------
# The row kernel against a definition-level reference: the per-element
# elimination with one level.mul and one level.sub call per entry, and
# dim(A cap B) = dim A + dim B - rank(A u B).
# ---------------------------------------------------------------------------


def ref_rref(rows, level):
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        f = level.inv(work[r][c])
        work[r] = [level.mul(f, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                g = work[i][c]
                work[i] = [level.sub(v, level.mul(g, w))
                           for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), r, tuple(pivots)


def ref_reduce(level, sub, vec):
    v = list(vec)
    for row, p in zip(sub.rows, sub.pivots):
        c = v[p]
        v = [level.sub(x, level.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def ref_intersection_dim(a, b):
    return a.dim + b.dim - ref_rref(list(a.rows) + list(b.rows), a.level)[1]


def ref_intersect_rows(a, b):
    n = a.ambient
    stacked = [tuple(r) + tuple(r) for r in a.rows]
    stacked += [tuple(r) + (0,) * n for r in b.rows]
    rows = ref_rref(stacked, a.level)[0]
    return ref_rref([r[n:] for r in rows if not any(r[:n])], a.level)[0]


def random_rows(rng, level, count, ncols):
    """Random rows over ``level``, with some rows combinations of earlier
    ones, so that ranks fall short of ``count``."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.randrange(level.order)
            rows.append(tuple(level.add(x, level.mul(c, y))
                              for x, y in zip(a, b)))
        else:
            rows.append(tuple(rng.randrange(level.order)
                              for _ in range(ncols)))
    return rows


# (tower, level name): every level kind the kernel distinguishes -- GF(2),
# p = 2 and odd p tables (GF(3) and GF(5) among them), a table-driven
# F-level polynomial field, and levels above the table limit (GF(257),
# GF(3^6) and GF(2^9))
KERNEL_LEVELS = {
    "GF2": (GF2, "F"),
    "GF3": (make_field(3, 1), "F"),
    "GF4": (GF4, "E"),
    "GF5": (make_field(5, 1), "F"),
    "GF8": (make_field(2, 3), "E"),
    "GF9": (make_field(3, 2), "E"),
    "GF9-base": (make_field(3, 2, e=2), "F"),
    "GF16": (make_field(2, 4), "E"),
    "GF25": (make_field(5, 2), "E"),
    "GF257": (make_field(257, 1), "F"),
    "GF27": (make_field(3, 3), "E"),
    "GF729": (make_field(3, 6), "E"),
    "GF512": (make_field(2, 9), "E"),
}


@pytest.mark.parametrize("name", sorted(KERNEL_LEVELS))
def test_row_kernel_matches_reference(name):
    tower, level_name = KERNEL_LEVELS[name]
    level = tower.F if level_name == "F" else tower.E
    rng = random.Random(f"kernel:{name}")
    scale, axpy = _row_kernel(level)
    for _ in range(40):
        a = tuple(rng.randrange(level.order) for _ in range(5))
        b = tuple(rng.randrange(level.order) for _ in range(5))
        g = rng.choice([0, 1, rng.randrange(level.order)])
        assert scale(g, a) == [level.mul(g, x) for x in a]
        assert axpy(g, a, b) == [level.sub(x, level.mul(g, y))
                                 for x, y in zip(a, b)]
    for _ in range(40):
        ncols = rng.randrange(1, 7)
        rows = random_rows(rng, level, rng.randrange(1, 7), ncols)
        assert rref(rows, level) == ref_rref(rows, level)
        coeffs = tuple(rng.randrange(level.order) for _ in rows)
        want = [0] * ncols
        for c, row in zip(coeffs, rows):
            want = [level.add(x, level.mul(c, y)) for x, y in zip(want, row)]
        assert mat_vec(level, rows, coeffs) == tuple(want)


@pytest.mark.parametrize("name", sorted(KERNEL_LEVELS))
def test_subspace_ops_match_reference(name):
    tower, level_name = KERNEL_LEVELS[name]
    level = tower.F if level_name == "F" else tower.E
    rng = random.Random(f"subspace:{name}")
    for _ in range(40):
        n = rng.randrange(1, 7)
        a, b = (Subspace.span(tower, level_name, n,
                              random_rows(rng, level, rng.randrange(n + 2),
                                          n))
                for _ in range(2))
        assert a.intersection_dim(b) == ref_intersection_dim(a, b)
        assert b.intersection_dim(a) == ref_intersection_dim(a, b)
        assert a.intersect(b).rows == ref_intersect_rows(a, b)
        vec = random_rows(rng, level, 1, n)[0]
        assert a.reduce_vector(vec) == ref_reduce(level, a, vec)


def test_flattened_meets_match_reference_over_custom_basis():
    # the flattened view reads the basis; the meets of flattened E-lines
    # and E-planes with random F-subspaces of F^(km) agree with the
    # reference under a non-polynomial basis (1 + x, x) of GF(9)/GF(3)
    tower = make_field(3, 2, basis=(4, 3))
    rng = random.Random(31)
    for _ in range(40):
        h = rng.randrange(1, 3)
        esub = Subspace.span(tower, "E", 3,
                             random_rows(rng, tower.E, h, 3))
        flat = flatten_subspace(esub)
        s = Subspace.span(tower, "F", 6,
                          random_rows(rng, tower.F, rng.randrange(7), 6))
        assert flat.intersection_dim(s) == ref_intersection_dim(flat, s)
        assert flat.intersect(s).rows == ref_intersect_rows(flat, s)


def test_subspaces_of_different_towers_are_unequal():
    # the same rows over GF(8)/GF(2) and GF(9)/GF(3), or over two bases of
    # one field, are subspaces of different spaces
    gf8, gf9 = make_field(2, 3), make_field(3, 2)
    s8 = Subspace.span(gf8, "E", 2, [(1, 0)])
    s9 = Subspace.span(gf9, "E", 2, [(1, 0)])
    assert s8.rows == s9.rows and s8 != s9
    assert len({s8, s9}) == 2
    alt = make_field(3, 2, basis=(4, 3))
    assert Subspace.full(alt, "F", 2) != Subspace.full(gf9, "F", 2)
    # a tower rebuilt from the same definition is the same space
    assert s9 == Subspace.span(make_field(3, 2), "E", 2, [(1, 0)])


def test_enumeration_complete_n8_all_dims():
    total = sum(1 for d in range(9)
                for _ in enumerate_subspaces(GF2, "F", 8, d))
    expect = sum(brute_count_subspaces(2, 8, d) for d in range(9))
    assert total == expect == 417199


def test_enumeration_complete_q3_n4_all_dims():
    gf3 = make_field(3, 1)
    for d in range(5):
        got = sum(1 for _ in enumerate_subspaces(gf3, "F", 4, d))
        assert got == brute_count_subspaces(3, 4, d)


@pytest.mark.slow
def test_enumeration_complete_n9_all_dims():
    for d in range(10):
        got = sum(1 for _ in enumerate_subspaces(GF2, "F", 9, d))
        assert got == brute_count_subspaces(2, 9, d)


EMPTY_TOWERS = {"gf4": GF4, "gf9": make_field(3, 2),
                "gf16-over-gf4": make_field(2, 2, e=2)}


@pytest.mark.parametrize("level", ["F", "E"])
@pytest.mark.parametrize("name", sorted(EMPTY_TOWERS))
def test_empty_operands_take_the_general_path(name, level):
    # the zero subspace, its meets, its dual and its enumeration come out of
    # the same code as every other subspace, with the values written out
    tower = EMPTY_TOWERS[name]
    order = tower.q if level == "F" else tower.order
    rng = random.Random(f"empty:{name}:{level}")
    for n in range(5):
        zero = Subspace.span(tower, level, n, [])
        assert (zero.tower, zero.level_name, zero.ambient, zero.rows,
                zero.pivots) == (tower, level, n, (), ())
        assert Subspace.span(tower, level, n, [(0,) * n] * 2) == zero
        full = Subspace.full(tower, level, n)
        assert full.rows == tuple(tuple(int(i == j) for j in range(n))
                                  for i in range(n))
        some = Subspace.span(tower, level, n, [
            [rng.randrange(order) for _ in range(n)] for _ in range(2)])
        for other in (zero, full, some):
            assert other.intersect(zero) == zero == zero.intersect(other)
            assert other.intersect(zero).rows == ()
        assert zero.dual() == full and zero.dual().pivots == tuple(range(n))
        assert list(enumerate_subspaces(tower, level, n, 0)) == [zero]
        for d in (n + 1, n + 2):
            assert list(enumerate_subspaces(tower, level, n, d)) == []
        if level == "E":
            code = RankCode(tower, n + 1, [
                list(row) + [rng.randrange(order)] for row in full.rows])
            assert subcode_weight(code, zero, cross_check=True) == 0
