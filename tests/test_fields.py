import pickle
import random
import types

import pytest

from rankmin import fields
from rankmin.fields import (
    BadBasis,
    FieldTower,
    NonIrreducible,
    default_irreducible,
    digits_to_int,
    int_to_digits,
    make_field,
    parse_field_spec,
)
from rankmin.linalg import Subspace
from rankmin.rank_metric import RankCode

# p = 2 and odd p, e = 1 and e = 2, default and custom bases
LAW_TOWERS = [
    make_field(2, 2),
    make_field(2, 3, basis=[1, 3, 7]),
    make_field(3, 2, basis=[2, 4]),
    make_field(2, 2, e=2),
    make_field(3, 3),
    make_field(3, 2, e=2),
    make_field(5, 2),
]


def test_smallest_towers():
    gf4 = make_field(2, 2, ext_poly=(1, 1, 1))
    assert gf4.q == 2 and gf4.order == 4
    gf8 = make_field(2, 3, ext_poly=(1, 1, 0, 1))
    assert gf8.order == 8


def test_non_irreducible_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2); exhaustive root check finds x=1
    with pytest.raises(NonIrreducible):
        make_field(2, 2, ext_poly=(1, 0, 1))


def test_default_polys_are_lex_smallest():
    gf4 = make_field(2, 2)
    assert gf4.ext_poly == (1, 1, 1)
    # low-degree-first comparison puts x^3+x^2+1 before x^3+x+1
    gf8 = make_field(2, 3)
    assert gf8.ext_poly == (1, 0, 1, 1)
    gf9 = make_field(3, 2)
    assert gf9.ext_poly == (1, 0, 1)


def test_expand_of_basis_elements_is_identity():
    gf4 = make_field(2, 2)
    omega = 2  # the class of x
    assert gf4.expand((1, omega)) == [[1, 0], [0, 1]]
    assert gf4.expand((0, 0)) == [[0, 0], [0, 0]]
    # alpha = (w+1, 1) over basis (1, w): columns (1,1)^T and (1,0)^T
    assert gf4.expand((3, 1)) == [[1, 1], [1, 0]]


def test_expand_reconstruct_roundtrip():
    rng = random.Random(11)
    for tower in (make_field(2, 3), make_field(3, 2), make_field(2, 2, e=2)):
        for _ in range(50):
            alpha = tuple(rng.randrange(tower.order) for _ in range(4))
            assert tower.reconstruct(tower.expand(alpha)) == alpha


def test_expand_is_f_linear():
    tower = make_field(2, 3)
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randrange(tower.q), rng.randrange(tower.q)
        al = tuple(rng.randrange(tower.order) for _ in range(3))
        be = tuple(rng.randrange(tower.order) for _ in range(3))
        combo = tuple(
            tower.E.add(tower.E.mul(a, x), tower.E.mul(b, y))
            for x, y in zip(al, be)
        )
        ma, mb = tower.expand(al), tower.expand(be)
        expect = [
            [tower.F.add(tower.F.mul(a, ma[i][j]), tower.F.mul(b, mb[i][j]))
             for j in range(3)]
            for i in range(tower.m)
        ]
        assert tower.expand(combo) == expect


@pytest.mark.parametrize("tower", [
    make_field(2, 2),
    make_field(2, 3),
    make_field(3, 2),
    make_field(2, 2, e=2),   # GF(16)/GF(4)
    make_field(5, 2),
])
def test_field_axioms_on_random_triples(tower):
    rng = random.Random(99)
    add, mul = tower.E.add, tower.E.mul
    for _ in range(200):
        a, b, c = (rng.randrange(tower.order) for _ in range(3))
        assert mul(a, mul(b, c)) == mul(mul(a, b), c)
        assert add(a, add(b, c)) == add(add(a, b), c)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        if a != 0:
            assert mul(a, tower.E.inv(a)) == 1
        assert add(a, tower.E.neg(a)) == 0


def _schoolbook_mul(fld, a, b):
    """a*b in a polynomial engine, one subfield add and mul per coefficient
    pair, then x^d replaced by minus the low part of the modulus, highest
    power first."""
    s, d = fld.subfield, fld.degree
    da, db = int_to_digits(a, fld.base, d), int_to_digits(b, fld.base, d)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = s.add(prod[i + j], s.mul(x, y))
    overflow = [s.neg(c) for c in fld._modulus[:d]]
    for i in range(2 * d - 2, d - 1, -1):
        c, prod[i] = prod[i], 0
        for j, o in enumerate(overflow):
            prod[i - d + j] = s.add(prod[i - d + j], s.mul(c, o))
    return digits_to_int(prod[:d], fld.base)


@pytest.mark.parametrize("tower", LAW_TOWERS,
                         ids=lambda t: f"GF({t.order})/GF({t.q})")
def test_mul_poly_matches_the_schoolbook_oracle(tower):
    # the row-kernel convolution and _poly_mod remainder of every
    # polynomial engine of the tower (E, and F when e > 1)
    rng = random.Random(tower.order)
    engines = [tower.E] + ([tower.F] if tower.e > 1 else [])
    for fld in engines:
        for _ in range(200):
            a, b = rng.randrange(fld.order), rng.randrange(fld.order)
            assert fld._mul_poly(a, b) == _schoolbook_mul(fld, a, b)


def test_schoolbook_path_above_table_limit():
    # GF(2^17) exceeds the log-table limit; exercise polynomial multiply
    tower = make_field(2, 17)
    a, b = 0b1011011, 0b1100101
    ab = tower.E.mul(a, b)
    assert tower.E.mul(ab, tower.E.inv(b)) == a
    rng = random.Random(17)
    for _ in range(100):
        a, b = rng.randrange(tower.order), rng.randrange(tower.order)
        assert tower.E.mul(a, b) == _schoolbook_mul(tower.E, a, b)


def test_custom_basis_coords():
    # basis (w, w+1) of GF(4): 1 = w + (w+1), coords (1,1)
    gf4 = make_field(2, 2, basis=(2, 3))
    assert gf4.to_coords(1) == (1, 1)
    assert gf4.from_coords((1, 1)) == 1
    for x in range(4):
        assert gf4.from_coords(gf4.to_coords(x)) == x
        assert gf4.decode(gf4.encode(x)) == x


@pytest.mark.parametrize("basis", [None, (1, 3, 7)], ids=["poly", "custom"])
def test_from_coords_reads_only_coordinate_tuples(basis):
    # m digits in [0, q) and nothing else: a fourth digit, a missing digit
    # or a digit outside GF(2) names no element of GF(8)
    tower = make_field(2, 3, basis=basis)
    for coords in [(1, 0, 0, 1), (1, 0), (2, 0, 0), (0, -1, 0), ()]:
        with pytest.raises(ValueError):
            tower.from_coords(coords)
    for x in range(8):
        assert tower.from_coords(tower.to_coords(x)) == x


def test_dependent_basis_rejected():
    with pytest.raises(BadBasis):
        make_field(2, 2, basis=(1, 1))
    with pytest.raises(BadBasis):
        make_field(2, 2, basis=(3, 0))


@pytest.mark.parametrize("p, e, m", [(2, 2, 2), (3, 2, 2), (2, 1, 4)])
def test_random_bases_are_inverted_or_rejected(p, e, m):
    # the basis matrix is inverted by row reduction: an independent basis
    # gets the coordinates found by solving, a dependent one BadBasis
    rng = random.Random(100 * p + 10 * e + m)
    default = make_field(p, m, e=e)
    outcomes = set()
    for _ in range(16):
        basis = [rng.randrange(default.order) for _ in range(m)]
        expected = _coords_by_solving(types.SimpleNamespace(
            E=default.E, m=m, q=default.q, basis=basis))
        outcomes.add(len(expected) == default.order)
        if len(expected) < default.order:
            with pytest.raises(BadBasis):
                make_field(p, m, e=e, basis=basis)
            continue
        tower = make_field(p, m, e=e, basis=basis)
        assert [tower.to_coords(x) for x in range(tower.order)] \
            == [expected[x] for x in range(tower.order)]
        assert all(tower.from_coords(expected[x]) == x
                   for x in range(tower.order))
    assert outcomes == {True, False}


def test_spec_string_roundtrip():
    tower = parse_field_spec("p=2,e=1,m=3,ext=1,1,0,1")
    assert tower.order == 8
    again = parse_field_spec(tower.spec_string())
    assert again == tower
    deep = make_field(2, 2, e=2)
    assert parse_field_spec(deep.spec_string()) == deep


@pytest.mark.parametrize("spec", [
    "p=3,e=2,m=2,ext=100,1,1",              # coefficient >= |F|
    "p=2,e=2,m=2,base=1,1,1,ext=7,1,1",
    "p=2,e=1,m=3,ext=3,1,0,1",              # coefficient >= p
    "p=2,e=1,m=3,ext=-1,1,0,1",             # negative coefficient
    "p=2,m=2,base=1,1",                     # base= with e = 1
])
def test_malformed_tower_definitions_are_rejected(spec):
    # a spec names one tower: every coefficient is a field element, and
    # base= appears exactly when spec_string would write it back
    with pytest.raises(ValueError):
        parse_field_spec(spec)


def test_spec_string_keeps_a_custom_basis():
    # a default basis writes no basis=, so every default spec is unchanged
    assert "basis" not in make_field(2, 3, basis=[1, 2, 4]).spec_string()
    tower = make_field(2, 3, ext_poly=(1, 1, 0, 1), basis=[1, 3, 7])
    assert tower.spec_string() == "p=2,e=1,m=3,ext=1,1,0,1,basis=1,3,7"
    assert parse_field_spec(tower.spec_string()) == tower
    with pytest.raises(BadBasis):
        parse_field_spec("p=2,e=1,m=3,ext=1,1,0,1,basis=1,2,3")
    with pytest.raises(BadBasis):
        parse_field_spec("p=2,e=1,m=3,ext=1,1,0,1,basis=1,2,8")


def test_json_roundtrips_over_a_custom_basis():
    # the spec written into a code's JSON names the tower it was made over,
    # so encoded rows decode to the same elements
    tower = make_field(2, 3, ext_poly=(1, 1, 0, 1), basis=[1, 3, 7])
    code = RankCode(tower, 3, [(1, 3, 5)])
    obj = code.to_json()
    again = RankCode.from_json(parse_field_spec(obj["field"]), obj)
    assert again == code and again.gen == code.gen
    sub = Subspace.span(tower, "E", 3, [(1, 3, 5), (0, 6, 2)])
    assert Subspace.from_json(parse_field_spec(tower.spec_string()),
                              sub.to_json()) == sub


def test_tower_pickles_with_its_basis():
    tower = make_field(2, 3, basis=[1, 3, 7])
    again = pickle.loads(pickle.dumps(tower))
    assert again == tower and again.E.add(5, 6) == tower.E.add(5, 6) == 3
    assert again.to_coords(5) == tower.to_coords(5)


def test_default_irreducible_has_no_roots():
    gf9 = make_field(3, 2)
    poly = default_irreducible(gf9.F, 2)
    # no root in GF(9): evaluate by Horner with field ops
    for x in range(9):
        acc = 0
        for c in reversed(poly):
            acc = gf9.F.add(gf9.F.mul(acc, x), c)
        assert acc != 0


@pytest.mark.parametrize("tower", LAW_TOWERS,
                         ids=lambda t: f"GF({t.order})/GF({t.q})")
def test_additive_law_is_coefficientwise_mod_p(tower):
    # an element's base-p digits are its coefficients over GF(p): the
    # e coefficients of each of its m coefficients over F
    p = tower.p
    for level, n in ((tower.F, tower.e), (tower.E, tower.e * tower.m)):
        coeffs = [int_to_digits(x, p, n) for x in range(level.order)]
        index = {c: x for x, c in enumerate(coeffs)}
        for a, ca in enumerate(coeffs):
            assert level.neg(a) == index[tuple(-x % p for x in ca)]
            for b, cb in enumerate(coeffs):
                assert level.add(a, b) == index[
                    tuple((x + y) % p for x, y in zip(ca, cb))]
                assert level.sub(a, b) == index[
                    tuple((x - y) % p for x, y in zip(ca, cb))]


def _coords_by_solving(tower):
    """x -> (c_1..c_m) with x = sum c_i tau_i, found by running through
    every coefficient tuple in E's own arithmetic."""
    E, m, q = tower.E, tower.m, tower.q
    table = {}
    for n in range(q**m):
        coeffs = int_to_digits(n, q, m)
        x = 0
        for c, tau in zip(coeffs, tower.basis):
            x = E.add(x, E.mul(c, tau))
        table[x] = coeffs
    return table


@pytest.mark.parametrize("tower", LAW_TOWERS,
                         ids=lambda t: f"GF({t.order})/GF({t.q})")
def test_memoized_coords_equal_the_direct_map(tower):
    expected = _coords_by_solving(tower)
    assert len(expected) == tower.order
    cold = pickle.loads(pickle.dumps(tower))
    blob = pickle.dumps(cold)
    for x in range(tower.order):
        got = cold.to_coords(x)
        assert type(got) is tuple and got == expected[x]
        assert cold.to_coords(x) is got  # the second call is the memo's
    # a warm memo is not part of the pickle, and a copy rebuilds it
    assert pickle.dumps(cold) == blob
    again = pickle.loads(blob)
    assert [again.to_coords(x) for x in range(tower.order)] == \
        [expected[x] for x in range(tower.order)]
    with pytest.raises(ValueError):
        again.to_coords(tower.order)


def _parse_field_spec_oracle(spec, make_field):
    """The per-key parser that the spec-key loop replaced, kept verbatim as
    the differential oracle; ``make_field`` is passed in."""
    p = e = m = None
    base = ext = basis = current = None
    for token in spec.split(","):
        token = token.strip()
        if "=" in token:
            key, val = token.split("=", 1)
            key = key.strip()
            if key == "p":
                p, current = int(val), None
            elif key == "e":
                e, current = int(val), None
            elif key == "m":
                m, current = int(val), None
            elif key == "base":
                base = [int(val)]
                current = base
            elif key == "ext":
                ext = [int(val)]
                current = ext
            elif key == "basis":
                basis = [int(val)]
                current = basis
            else:
                raise ValueError(f"unknown field spec key {key!r}")
        else:
            if current is None:
                raise ValueError(f"stray token {token!r} in field spec")
            current.append(int(token))
    if p is None or m is None:
        raise ValueError("field spec needs at least p= and m=")
    return make_field(p, m, e=1 if e is None else e, base_poly=base,
                      ext_poly=ext, basis=basis)


def _random_spec(rng):
    """A spec of up to six keys in any order, repeats allowed, each with up
    to three bare integers after it, padded with whitespace; half of the
    specs also draw unknown keys, non-integers and blank or leading stray
    tokens."""
    keys = ["p", "m"] * 2 + ["e", "base", "ext", "basis"]
    values = ["0", "1", "2", "3", "-1", "17", "+2"]
    noisy = rng.random() < 0.5
    if noisy:
        keys += ["q", "P", "", "bas"]
        values += ["x", "1.5", "", "2 3", "=1", "0x1"]

    def padded(text):
        return rng.choice(["", "", " ", "\t "]) + text + \
            rng.choice(["", "", " ", " \t"])

    tokens = [padded(rng.choice(values))] if noisy and rng.random() < 0.1 \
        else []
    for _ in range(rng.randrange(1, 7)):
        key = rng.choice(keys)
        tokens.append(padded(key) + "=" + padded(rng.choice(values)))
        # bare integers after p, e or m are stray tokens
        if key in ("base", "ext", "basis") or rng.random() < 0.1:
            tokens += [padded(rng.choice(values))
                       for _ in range(rng.randrange(4))]
        if noisy and rng.random() < 0.1:
            tokens.append(padded(""))
    return ",".join(tokens)


def _outcome(parse, spec):
    try:
        return "value", parse(spec)
    except Exception as exc:
        return type(exc), str(exc)


def test_spec_key_parser_matches_the_per_key_oracle(monkeypatch):
    # both parsers hand make_field the same arguments, or fail with the
    # same error type and message, on reordered and repeated keys, padded
    # and blank tokens, stray tokens, unknown keys and bad integers; the
    # stub only records its arguments, so no tower is built per case
    def record(*args, **kwargs):
        return args, kwargs

    monkeypatch.setattr(fields, "make_field", record)
    rng = random.Random(21)
    kinds = set()
    for _ in range(20000):
        spec = _random_spec(rng)
        want = _outcome(lambda s: _parse_field_spec_oracle(s, record), spec)
        assert _outcome(fields.parse_field_spec, spec) == want, spec
        kinds.add(want[0] if want[0] == "value" else want[1].split(" ")[0])
    # the corpus reaches every outcome: a value, a bad integer, a stray
    # token, an unknown key and a missing p= or m=
    assert {"value", "invalid", "stray", "unknown", "field"} <= kinds


@pytest.mark.parametrize("tower", [
    make_field(2, 3, ext_poly=(1, 1, 0, 1), basis=[1, 3, 7]),
    make_field(2, 2, e=2),
    make_field(3, 2, e=2, basis=[1, 10]),
], ids=["custom-basis", "e=2", "e=2-custom-basis"])
def test_a_tower_is_its_definition(tower):
    # equality, hashing, pickling and the spec string all read the one
    # definition tuple, so every way back gives the same tower
    for again in (pickle.loads(pickle.dumps(tower)),
                  parse_field_spec(tower.spec_string()),
                  FieldTower(*tower._definition)):
        assert again == tower and hash(again) == hash(tower)
        assert again._definition == tower._definition
        assert again.spec_string() == tower.spec_string()
    # towers that differ in one entry of the definition differ
    p, e, m, base, ext, basis = tower._definition
    if basis is not None:
        plain = FieldTower(p, e, m, base, ext)
        assert plain != tower and plain._definition[:5] == \
            tower._definition[:5]
    assert make_field(p, m + 1, e=e) != tower


def test_an_explicit_polynomial_basis_is_the_default_tower():
    tower = make_field(2, 3, basis=[1, 2, 4])
    plain = make_field(2, 3)
    assert tower == plain and hash(tower) == hash(plain)
    assert pickle.loads(pickle.dumps(tower))._definition == \
        plain._definition
    assert tower.spec_string() == plain.spec_string() == \
        "p=2,e=1,m=3,ext=1,0,1,1"

