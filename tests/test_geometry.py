import random

import pytest

from rankmin import geometry
from rankmin.fields import int_to_digits, make_field
from rankmin.geometry import (
    PreconditionViolated,
    _e_line,
    _first_avoiding,
    avoid_complement,
    is_cutting,
    is_evasive,
    linearity_index,
)
from rankmin.linalg import (
    CertificateError,
    Subspace,
    enumerate_subspaces,
    flatten_subspace,
    flatten_vector,
)

GF4 = make_field(2, 2, ext_poly=(1, 1, 1))
GF8 = make_field(2, 3, ext_poly=(1, 1, 0, 1))
GF9 = make_field(3, 2)
GF16_4 = make_field(2, 2, e=2)
W = 2


def fspan(tower, k, evecs):
    return Subspace.span(tower, "F", k * tower.m,
                         [flatten_vector(tower, v) for v in evecs])


def random_fsub(tower, k, dim, rng):
    n = k * tower.m
    while True:
        vecs = [tuple(rng.randrange(tower.q) for _ in range(n))
                for _ in range(dim)]
        s = Subspace.span(tower, "F", n, vecs)
        if s.dim == dim:
            return s


def test_is_evasive_examples():
    full = Subspace.full(GF4, "F", 4)
    assert is_evasive(GF4, 2, full, 1, 2)[0]  # t = hm is vacuous
    scattered = fspan(GF4, 2, [(1, 0), (0, 1)])
    assert is_evasive(GF4, 2, scattered, 1, 1)[0]
    bigger = fspan(GF4, 2, [(1, 0), (0, 1), (W, 0)])
    ok, refuting = is_evasive(GF4, 2, bigger, 1, 1)
    assert not ok
    assert refuting == Subspace.span(GF4, "E", 2, [(1, 0)])


def test_evasive_requires_full_espan():
    thin = fspan(GF4, 2, [(1, 0), (W, 0)])  # E-span is only E x {0}
    assert not is_evasive(GF4, 2, thin, 1, 2)[0]


def test_evasive_parameter_monotonicity():
    """(h,t)-evasive with h <= k forces h <= t, and stays evasive after
    reducing both parameters."""
    rng = random.Random(71)
    for tower, k in ((GF4, 2), (GF4, 3), (GF8, 2)):
        for _ in range(12):
            j = random_fsub(tower, k, rng.randrange(k, k * tower.m + 1), rng)
            for h in range(k + 1):
                # smallest t making J (h,t)-evasive
                if not is_evasive(tower, k, j, 0, j.dim)[0]:
                    continue  # espan not full: nothing to check
                t = h
                while not is_evasive(tower, k, j, h, t)[0]:
                    t += 1
                assert t >= h
                for s in range(h + 1):
                    assert is_evasive(tower, k, j, h - s, t - s)[0]


def test_evasive_quotient_property():
    """(U+A)/A is (b-a, w-v)-evasive in X/A, via explicit projection."""
    rng = random.Random(73)
    for tower, k in ((GF4, 3), (GF8, 2)):
        for _ in range(10):
            u = random_fsub(tower, k, rng.randrange(k, k * tower.m), rng)
            if not is_evasive(tower, k, u, 0, u.dim)[0]:
                continue
            b = rng.randrange(1, k + 1)
            # smallest w with U (b,w)-evasive
            w = b
            while not is_evasive(tower, k, u, b, w)[0]:
                w += 1
            for a_dim in range(0, b):
                asub = next(enumerate_subspaces(tower, "E", k, a_dim))
                v = u.intersection_dim(flatten_subspace(asub))
                proj = _project_mod(tower, k, u, asub)
                if a_dim == 0:
                    assert proj == u
                    continue
                ok, _ = is_evasive(tower, k - a_dim, proj, b - a_dim, w - v)
                assert ok


def _project_mod(tower, k, fsub, asub):
    """Image of an F-subspace of E^[k] in E^[k]/A, coordinates on the
    non-pivot positions after reduction by A's RREF rows."""
    from rankmin.linalg import unflatten_vector

    comp = [j for j in range(k) if j not in asub.pivots]
    vecs = []
    for row in fsub.rows:
        ev = unflatten_vector(tower, row)
        red = asub.reduce_vector(ev)
        vecs.append(flatten_vector(tower, tuple(red[j] for j in comp)))
    return Subspace.span(tower, "F", len(comp) * tower.m, vecs)


def test_is_cutting_examples():
    full = Subspace.full(GF4, "F", 4)
    for r in range(2):
        assert is_cutting(GF4, 2, full, r).verdict
    s3 = fspan(GF4, 2, [(1, 0), (0, 1), (W, 0)])
    assert is_cutting(GF4, 2, s3, 1, route="all").verdict
    s2 = fspan(GF4, 2, [(1, 0), (0, 1)])
    v = is_cutting(GF4, 2, s2, 1, route="all")
    assert not v.verdict


def test_cutting_routes_agree_exhaustive_gf4_k2():
    for d in range(5):
        for s in enumerate_subspaces(GF4, "F", 4, d):
            for r in range(2):
                verdicts = [is_cutting(GF4, 2, s, r, route=rt).verdict
                            for rt in ("definition", "prop21", "evasive")]
                assert len(set(verdicts)) == 1


def _prop21_reflattening(tower, k, s, r):
    """The prop21 route as it was, flattening every E-line once per W."""
    for wsub in enumerate_subspaces(tower, "E", k, k - r - 1):
        sw = s.sum(flatten_subspace(wsub))
        for isub in enumerate_subspaces(tower, "E", k, 1):
            if sw.intersection_dim(flatten_subspace(isub)) == 0:
                return False, isub
    return True, None


def test_prop21_keeps_verdict_and_refuting_line():
    cases = [(GF4, 2, s) for d in range(5)
             for s in enumerate_subspaces(GF4, "F", 4, d)]
    rng = random.Random(149)
    cases += [(GF8, 3, random_fsub(GF8, 3, rng.randrange(10), rng))
              for _ in range(12)]
    cases += [(GF9, 2, s) for d in range(5)
              for s in enumerate_subspaces(GF9, "F", 4, d)]
    cases += [(GF9, 3, random_fsub(GF9, 3, rng.randrange(7), rng))
              for _ in range(8)]
    cases += [(GF16_4, 2, random_fsub(GF16_4, 2, rng.randrange(5), rng))
              for _ in range(12)]
    for tower, k, s in cases:
        for r in range(k):
            got = is_cutting(tower, k, s, r, route="prop21")
            assert (got.verdict, got.refuting) == \
                _prop21_reflattening(tower, k, s, r)


@pytest.mark.parametrize("tower,k", [(GF4, 2), (GF4, 3), (GF9, 2)])
def test_wide_subspace_meets_every_e_line(tower, k):
    """Grassmann: dim_F(A) > (k-1)m and dim_F(L) = m force A cap L != 0,
    the lemma behind the prop21 route's skip."""
    n = k * tower.m
    lines = [flatten_subspace(ln)
             for ln in enumerate_subspaces(tower, "E", k, 1)]
    for d in range((k - 1) * tower.m + 1, n + 1):
        for a in enumerate_subspaces(tower, "F", n, d):
            assert all(a.intersection_dim(ln) > 0 for ln in lines)


def test_prop21_reads_lines_only_at_a_narrow_sum(monkeypatch):
    """A W with dim_F(S+W) > (k-1)m makes no intersection_dim call.  A
    narrower S+W has fewer nonzero vectors than E^[k] has E-lines, so the
    first one refutes: a cutting S reads no line, any other reads the lines
    up to its refuting one."""
    rng = random.Random(151)
    cases = [(GF4, 3, random_fsub(GF4, 3, 5, rng), 1),
             (GF4, 3, fspan(GF4, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                     (W, 0, 0)]), 1),
             (GF4, 3, random_fsub(GF4, 3, 4, rng), 0),
             (GF9, 2, random_fsub(GF9, 2, 3, rng), 1),
             (GF9, 2, random_fsub(GF9, 2, 2, rng), 0)]
    calls = []
    real = Subspace.intersection_dim

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    verdicts = set()
    for tower, k, s, r in cases:
        lines = list(enumerate_subspaces(tower, "E", k, 1))
        calls.clear()
        monkeypatch.setattr(Subspace, "intersection_dim", counting)
        got = is_cutting(tower, k, s, r, route="prop21")
        monkeypatch.undo()
        verdicts.add(got.verdict)
        assert len(calls) == (0 if got.verdict
                              else lines.index(got.refuting) + 1)
    assert verdicts == {False, True}


def test_cutting_refutation_recheckable():
    s2 = fspan(GF4, 2, [(1, 0), (0, 1)])
    v = is_cutting(GF4, 2, s2, 1, route="definition")
    assert not v.verdict and v.refuting is not None
    # the refuting V really violates <S cap V>_E = V
    from rankmin.linalg import espan_of_flat
    inter = s2.intersect(flatten_subspace(v.refuting))
    assert espan_of_flat(inter).dim < v.refuting.dim


def test_linearity_index_examples():
    assert linearity_index(GF4, 2, Subspace.full(GF4, "F", 4)) == 2
    a = fspan(GF4, 2, [(1, 0), (0, 1), (W, 0)])
    assert linearity_index(GF4, 2, a) == 1
    scattered = fspan(GF4, 2, [(1, 0), (0, 1)])
    assert linearity_index(GF4, 2, scattered) == 0


def test_linearity_index_lower_bound():
    rng = random.Random(79)
    for tower, k in ((GF4, 2), (GF4, 3), (GF8, 2)):
        m = tower.m
        for _ in range(10):
            s = rng.randrange(0, k + 1)
            dim = min(k * m, k * (m - 1) + s)
            b = random_fsub(tower, k, dim, rng)
            assert linearity_index(tower, k, b) >= s


def _linearity_by_grassmannian(tower, k, a):
    """Oracle: the largest d with some d-dim E-subspace inside A."""
    for d in range(min(k, a.dim // tower.m), 0, -1):
        if any(a.contains(flatten_subspace(v))
               for v in enumerate_subspaces(tower, "E", k, d)):
            return d
    return 0


@pytest.mark.parametrize("tower,k", [
    (GF4, 2), (GF4, 3), (GF8, 2),
    (make_field(3, 2), 2),                       # odd p
    (make_field(2, 2, e=2), 2),                  # GF(16)/GF(4)
    (make_field(2, 3, basis=[1, 3, 7]), 2),      # custom basis
], ids=lambda x: x.spec_string() if hasattr(x, "spec_string") else str(x))
def test_linearity_index_matches_grassmannian_oracle(tower, k):
    """The E-core (intersection of the tau^-1 A) has E-dimension equal to
    the largest E-subspace found by searching the E-Grassmannians."""
    rng = random.Random(101)
    m = tower.m
    for _ in range(12):
        # an E-subspace of random dimension plus random F-vectors
        evecs = [tuple(rng.randrange(tower.order) for _ in range(k))
                 for _ in range(rng.randrange(0, k))]
        a = flatten_subspace(Subspace.span(tower, "E", k, evecs))
        a = a.sum(random_fsub(tower, k, rng.randrange(0, k * m), rng))
        assert linearity_index(tower, k, a) == \
            _linearity_by_grassmannian(tower, k, a)


def test_cutting_dimension_characterizations():
    rng = random.Random(83)
    for tower, k in ((GF4, 2), (GF8, 2), (GF4, 3)):
        m = tower.m
        for _ in range(15):
            a = random_fsub(tower, k, rng.randrange(0, k * m + 1), rng)
            lidx = linearity_index(tower, k, a)
            for r in range(k):
                cut = is_cutting(tower, k, a, r).verdict
                if a.dim >= (k - 1) * m + 1:
                    assert cut  # big dimension always cuts
                if a.dim == (k - 1) * m:
                    assert cut == (lidx <= k - r - 2)
                if cut:
                    s = min(k - r - 1, lidx)
                    assert a.dim >= (m - 1) * (r + s) + k


def test_avoid_complement_examples():
    zero = Subspace.span(GF4, "F", 4, [])
    v = avoid_complement(GF4, 2, zero, 0)
    assert v.dim == 2  # V = E^k
    h = Subspace.span(GF4, "F", 4, [flatten_vector(GF4, (1, 0))])
    v = avoid_complement(GF4, 2, h, 1)
    assert v.dim == 1
    assert h.intersection_dim(flatten_subspace(v)) == 0
    hline = flatten_subspace(Subspace.span(GF4, "E", 2, [(1, 0)]))
    v = avoid_complement(GF4, 2, hline, 1)
    assert v.dim == 1 and hline.intersection_dim(flatten_subspace(v)) == 0


def test_avoid_complement_dual_form():
    """dim_F(B) >= mt: avoiding the first mt RREF rows of B (the form that
    max_subcode_weight uses) gives V with dim_E V = k - t and B + V = E^[k]."""
    rng = random.Random(89)
    for tower, k in ((GF4, 2), (GF8, 2), (GF4, 3)):
        m = tower.m
        full = Subspace.full(tower, "F", k * m)
        for _ in range(10):
            t = rng.randrange(0, k + 1)
            b = random_fsub(tower, k, rng.randrange(m * t, k * m + 1), rng)
            head = Subspace.span(tower, "F", k * m, b.rows[:m * t])
            w = avoid_complement(tower, k, head, t)
            assert w.dim == k - t
            assert b.sum(flatten_subspace(w)) == full


def test_avoid_complement_randomized_postcondition():
    rng = random.Random(97)
    for tower, k in ((GF4, 2), (GF4, 3), (GF8, 2)):
        m = tower.m
        for _ in range(10):
            t = rng.randrange(0, k + 1)
            dim = rng.randrange(0, m * t + 1)
            h = random_fsub(tower, k, dim, rng)
            v = avoid_complement(tower, k, h, t)
            assert v.dim == k - t
            assert h.intersection_dim(flatten_subspace(v)) == 0


def test_avoid_complement_precondition_errors():
    h = Subspace.full(GF4, "F", 4)
    with pytest.raises(PreconditionViolated):
        avoid_complement(GF4, 2, h, 1)  # dim 4 > m*t = 2


@pytest.mark.parametrize("tower, k", [
    (GF4, 3), (GF8, 2), (GF9, 2), (GF16_4, 2)],
    ids=["GF4", "GF8", "GF9", "GF16-GF4"])
def test_avoid_complement_cache_returns_the_greedy_answer(tower, k):
    # the cache is bounded, and a hit, also on an equal H built anew,
    # returns what the uncached greedy builds
    assert avoid_complement.cache_info().maxsize is not None
    rng = random.Random(tower.order * 10 + k)
    m = tower.m
    for _ in range(12):
        t = rng.randrange(0, k + 1)
        h = random_fsub(tower, k, rng.randrange(0, m * t + 1), rng)
        want = avoid_complement.__wrapped__(tower, k, h, t)
        again = Subspace.span(tower, "F", k * m, h.rows)
        for key in (h, h, again):
            got = avoid_complement(tower, k, key, t)
            assert (got, got.rows, got.pivots) \
                == (want, want.rows, want.pivots)
        hits = avoid_complement.cache_info().hits
        avoid_complement(tower, k, again, t)
        assert avoid_complement.cache_info().hits == hits + 1


def test_avoid_complement_checks_every_miss(monkeypatch):
    # a greedy step that picks a vector on H must fail the postcondition
    # on every call, so a wrong V is never returned or kept
    hline = flatten_subspace(Subspace.span(GF4, "E", 2, [(1, 0)]))
    monkeypatch.setattr(geometry, "_first_avoiding",
                        lambda tower, k, meets: (1, 0))
    avoid_complement.cache_clear()
    for _ in range(2):
        with pytest.raises(CertificateError, match="meets H"):
            avoid_complement(GF4, 2, hline, 1)
    assert avoid_complement.cache_info().currsize == 0


def first_avoiding_oracle(tower, k, meets):
    """The first nonzero z of E^[k] in encoded order, every vector tested,
    for which ``meets`` is false; None if there is none."""
    for enc in range(1, tower.order**k):
        z = int_to_digits(enc, tower.order, k)
        if not meets(z):
            return z
    return None


@pytest.mark.parametrize("tower", [
    GF4,
    make_field(2, 3, ext_poly=(1, 1, 0, 1), basis=(1, 3, 7)),
    make_field(3, 2),
    make_field(2, 2, e=2),
], ids=["GF4", "GF8-basis", "GF9", "GF16-GF4"])
def test_first_avoiding_tests_one_vector_per_line(tower):
    # both greedy predicates depend only on the E-line of z, so testing the
    # first vector of each line returns what the full scan returns
    rng = random.Random(tower.order)
    big_q, m, mul = tower.order, tower.m, tower.E.mul
    for k in (1, 2, 3):
        lines = [z for z in (int_to_digits(enc, big_q, k)
                             for enc in range(1, big_q**k))
                 if [x for x in z if x][-1] == 1]
        for _ in range(6):
            # one random vector on each of the first few lines and on
            # some later ones
            head = rng.randrange(len(lines) + 1)
            cur = {(0,) * k} | {
                tuple(mul(rng.randrange(1, big_q), x) for x in z)
                for i, z in enumerate(lines)
                if i < head or rng.random() < 0.3}
            h = random_fsub(tower, k, rng.randrange(
                max(0, m * k - m - 2), m * k + 1), rng)
            for meets in (
                    lambda z: any(tuple(mul(b, x) for x in z) in cur
                                  for b in range(1, big_q)),
                    lambda z: h.intersection_dim(_e_line(tower, z)) > 0):
                want = first_avoiding_oracle(tower, k, meets)
                if want is None:
                    with pytest.raises(PreconditionViolated):
                        _first_avoiding(tower, k, meets)
                else:
                    assert _first_avoiding(tower, k, meets) == want


@pytest.mark.parametrize("tower,ks", [
    (GF4, (1, 2, 3)), (GF8, (1, 2, 3)), (GF9, (1, 2, 3)), (GF16_4, (1, 2)),
    (make_field(2, 3, basis=[1, 3, 7]), (1, 2)),
])
def test_e_line_is_the_flattened_span_of_z(tower, ks):
    """The directly built RREF row gives the line Subspace.span gives."""
    for k in ks:
        for enc in range(1, tower.order**k):
            z = int_to_digits(enc, tower.order, k)
            want = flatten_subspace(Subspace.span(tower, "E", k, [z]))
            got = _e_line(tower, z)
            assert (got, got.rows, got.pivots) \
                == (want, want.rows, want.pivots)
