"""Named property suites: executable versions of the theorem-level
invariants, run over seeded random instances on small towers.

Each suite yields per-property pass/fail results; a failure carries a
serialized counterexample and, where a single CLI decision command can
re-check it, a complete argv to do so.  The seeded suites share one
harness: each is a one-trial ``check(tally, tower, k, rng)`` that
``_seeded`` registers.  Its runner walks the towers or (tower, k) pairs,
splits the trials among them and seeds one generator per trial by (seed,
suite tag, trial), so reports are deterministic for a fixed seed; a
``_Tally`` keeps the instance count the suite's properties share and the
first counterexample of each property.  The agreement suites run the deciders'
own ``all`` routes and report the ``CertificateError`` they raise.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from . import combinatorics as comb
from .fields import FieldTower, make_field
from .geometry import is_cutting, is_evasive, linearity_index
from .linalg import (
    CertificateError,
    Subspace,
    enumerate_subspaces,
    f_rational_part,
    flatten_subspace,
    flatten_vector,
    subspaces_of,
    unflatten_vector,
)
from .minimality import (
    constant_weight_class,
    is_r_minimal,
    is_rank_minimal,
    is_sigma_maximal,
)
from .rank_metric import (
    RankCode,
    chi_code,
    column_support,
    extensions_containing,
    full_support_codeword,
    grw_sequence,
    max_subcode_weight,
    rank_support,
    subcode_spaces,
    subcode_support,
    subcode_weight,
    support_code,
    weight,
)


class UnknownSuite(ValueError):
    """The requested suite name is not registered."""


@dataclass
class PropertyResult:
    name: str
    passed: bool
    instances: int
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        obj = {"property": self.name, "passed": self.passed,
               "instances": self.instances}
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        return obj


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    results: List[PropertyResult] = field(default_factory=list)
    wall_time_ms: Optional[int] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self, include_timing: bool = False) -> dict:
        obj = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "results": [r.to_json() for r in self.results],
        }
        if include_timing and self.wall_time_ms is not None:
            obj["wall_time_ms"] = self.wall_time_ms
        return obj


def default_towers() -> List[FieldTower]:
    return [
        make_field(2, 2, ext_poly=(1, 1, 1)),
        make_field(2, 3, ext_poly=(1, 1, 0, 1)),
        make_field(3, 2),
    ]


# ---------------------------------------------------------------------------
# Suite harness.
# ---------------------------------------------------------------------------

# suite name -> runner(towers, trials, seed) -> list of PropertyResult
_SUITES: Dict[str, Callable] = {}


class _Tally:
    """The shared instance count and the first counterexample per property."""

    def __init__(self, *names: str):
        self.names = names
        self.count = 0
        self.fails: Dict[str, dict] = {}

    def fail(self, name: str, tower: FieldTower, **payload) -> None:
        if name not in self.fails:
            self.fails[name] = {"field": tower.spec_string(), **payload}

    def results(self) -> List[PropertyResult]:
        return [PropertyResult(nm, nm not in self.fails, self.count,
                               self.fails.get(nm)) for nm in self.names]


def _each_tower(towers: Sequence[FieldTower]) -> list:
    return [(t, None) for t in towers]


def _first_two(towers: Sequence[FieldTower]) -> list:
    return [(t, None) for t in towers[:2]]


def _small_pairs(towers: Sequence[FieldTower]) -> list:
    """(tower, k) for k in (2, 3) with a flattened E^[k] of F-dimension <= 9."""
    return [(t, k) for t in towers for k in (2, 3) if k * t.m <= 9]


def _seeded(name: str, tag: str, *properties: str, scope=_each_tower,
            split=lambda trials, entries: trials // entries):
    """Register ``check(tally, tower, k, rng)``, one trial of suite ``name``.

    ``scope`` maps the tower list to (tower, k) entries (k is None unless
    the suite runs on (tower, k) pairs).  Each entry gets
    max(1, split(trials, len(entries))) trials, and trial i draws from
    ``random.Random(f"{seed}:{key}:{i}")`` with key ``tag``, or ``tag:k``
    for a pair, so reports are deterministic for a fixed seed.
    """
    def register(check: Callable) -> Callable:
        def run(towers, trials, seed):
            tally = _Tally(*properties)
            entries = scope(towers)  # may be empty: no tower has a small pair
            per_entry = max(1, split(trials, len(entries) or 1))
            for tower, k in entries:
                key = tag if k is None else f"{tag}:{k}"
                for trial in range(per_entry):
                    check(tally, tower, k,
                          random.Random(f"{seed}:{key}:{trial}"))
            return tally.results()
        _SUITES[name] = run
        return check
    return register


def _unseeded(name: str):
    """Register ``suite()``, which ignores the towers, trials and seed."""
    def register(suite: Callable) -> Callable:
        _SUITES[name] = lambda towers, trials, seed: suite()
        return suite
    return register


# ---------------------------------------------------------------------------
# Instance generators.
# ---------------------------------------------------------------------------


def random_code(tower: FieldTower, rng: random.Random,
                n_max: int = 4, k_max: int = 3, n_min: int = 2,
                k_min: int = 1) -> RankCode:
    n_min = min(n_min, n_max)
    n = rng.randrange(n_min, n_max + 1)
    k_lo = min(k_min, n)
    k = rng.randrange(k_lo, min(k_max, n) + 1)
    while True:
        rows = [tuple(rng.randrange(tower.order) for _ in range(n))
                for _ in range(k)]
        try:
            code = RankCode(tower, n, rows)
        except ValueError:
            continue
        if code.k == k:
            return code


def random_fsubspace(tower: FieldTower, k: int, rng: random.Random,
                     dim: Optional[int] = None) -> Subspace:
    ambient = k * tower.m
    if dim is None:
        dim = rng.randrange(0, ambient + 1)
    while True:
        vecs = [tuple(rng.randrange(tower.q) for _ in range(ambient))
                for _ in range(dim)]
        sub = Subspace.span(tower, "F", ambient, vecs)
        if sub.dim == dim:
            return sub


def random_esubspace(tower: FieldTower, ambient: int, dim: int,
                     rng: random.Random) -> Subspace:
    while True:
        vecs = [tuple(rng.randrange(tower.order) for _ in range(ambient))
                for _ in range(dim)]
        sub = Subspace.span(tower, "E", ambient, vecs)
        if sub.dim == dim:
            return sub


# ---------------------------------------------------------------------------
# Suite implementations: one seeded trial each, or an unseeded suite.
# ---------------------------------------------------------------------------


@_seeded("field-axioms", "field-axioms", "mul-assoc", "distrib", "inverse",
         split=lambda trials, entries: trials)
def _field_axioms(tally, tower, k, rng):
    add, mul = tower.E.add, tower.E.mul
    a, b, c = (rng.randrange(tower.order) for _ in range(3))
    tally.count += 1
    checks = {
        "mul-assoc": mul(a, mul(b, c)) == mul(mul(a, b), c),
        "distrib": mul(a, add(b, c)) == add(mul(a, b), mul(a, c)),
        "inverse": a == 0 or mul(a, tower.E.inv(a)) == 1,
    }
    for name, ok in checks.items():
        if not ok:
            tally.fail(name, tower, a=a, b=b, c=c)


@_seeded("expand-linear", "expand-linear", "linear", "reconstruct",
         split=lambda trials, entries: trials)
def _expand_linear(tally, tower, k, rng):
    E, F = tower.E, tower.F
    n = rng.randrange(1, 5)
    a, b = rng.randrange(tower.q), rng.randrange(tower.q)
    al = tuple(rng.randrange(tower.order) for _ in range(n))
    be = tuple(rng.randrange(tower.order) for _ in range(n))
    tally.count += 1
    combo = tuple(E.add(E.mul(a, x), E.mul(b, y)) for x, y in zip(al, be))
    ma, mb = tower.expand(al), tower.expand(be)
    expect = [[F.add(F.mul(a, ma[i][j]), F.mul(b, mb[i][j]))
               for j in range(n)] for i in range(tower.m)]
    if tower.expand(combo) != expect:
        tally.fail("linear", tower, alpha=list(al), beta=list(be))
    if tower.reconstruct(tower.expand(al)) != al:
        tally.fail("reconstruct", tower, alpha=list(al))


@functools.lru_cache(maxsize=8)
def _alternate_basis(tower: FieldTower) -> Optional[FieldTower]:
    """GF(4) over the basis (x, x+1), or None for any other tower."""
    if tower.q == 2 and tower.m == 2:
        return make_field(2, 2, ext_poly=tower.ext_poly, basis=(2, 3))
    return None


@_seeded("rank-support-basics", "rank-support", "scalar-invariance",
         "basis-invariance", split=lambda trials, entries: trials)
def _rank_support(tally, tower, k, rng):
    alt = _alternate_basis(tower)
    n = rng.randrange(1, 5)
    alpha = tuple(rng.randrange(tower.order) for _ in range(n))
    c = rng.randrange(1, tower.order)
    tally.count += 1
    scaled = tuple(tower.E.mul(c, x) for x in alpha)
    if rank_support(tower, scaled) != rank_support(tower, alpha):
        tally.fail("scalar-invariance", tower, alpha=list(alpha), c=c)
    # the two supports live in towers that differ only in their basis, so
    # they are compared as RREF bases of F^n
    if alt is not None and \
            rank_support(alt, alpha).rows != rank_support(tower, alpha).rows:
        tally.fail("basis-invariance", tower, alpha=list(alpha))


@_seeded("lemma21", "lemma21", "dual-intersection", "weight-from-dual",
         "column-span-weight", "subcode-weight-formula")
def _lemma21(tally, tower, k, rng):
    code = random_code(tower, rng)
    tally.count += 1
    lhs = f_rational_part(tower, code.as_subspace().dual())
    rhs = chi_code(code).dual()
    if lhs != rhs:
        tally.fail("dual-intersection", tower, code=code.to_json())
    if weight(code) != code.n - lhs.dim:
        tally.fail("weight-from-dual", tower, code=code.to_json())
    u = column_support(code)
    if u.dim != weight(code):
        tally.fail("column-span-weight", tower, code=code.to_json())
    for b in subcode_spaces(code, 1):
        try:
            subcode_weight(code, b, cross_check=True)
        except CertificateError:
            tally.fail("subcode-weight-formula", tower,
                       code=code.to_json(), b=b.to_json())
        break


@_seeded("cor21", "cor21", "upper", "equality-iff-full", "subcode-dims")
def _cor21(tally, tower, k, rng):
    m = tower.m
    code = random_code(tower, rng)
    tally.count += 1
    wtc = weight(code)
    if wtc > m * code.k:
        tally.fail("upper", tower, code=code.to_json())
    full = column_support(code).dim == m * code.k
    if (wtc == m * code.k) != full:
        tally.fail("equality-iff-full", tower, code=code.to_json())
    if wtc == m * code.k:
        for r in range(code.k + 1):
            for b in subcode_spaces(code, r):
                if subcode_weight(code, b) != m * r:
                    tally.fail("subcode-dims", tower, code=code.to_json(),
                               r=r)
                break


@_seeded("grw-monotone", "grw-monotone", "strict")
def _grw_monotone(tally, tower, k, rng):
    code = random_code(tower, rng)
    tally.count += 1
    seq = grw_sequence(code)
    if not all(a < b for a, b in zip(seq, seq[1:])):
        tally.fail("strict", tower, code=code.to_json(), seq=seq)


@_seeded("lemma22", "lemma22", "full-support")
def _lemma22(tally, tower, k, rng):
    code = random_code(tower, rng, n_max=tower.m, n_min=1)
    tally.count += 1
    alpha = full_support_codeword(code)
    if rank_support(tower, alpha) != chi_code(code):
        tally.fail("full-support", tower, code=code.to_json())


@_seeded("cor31-singleton", "cor31", "bound", "equality-case")
def _cor31(tally, tower, k, rng):
    code = random_code(tower, rng, n_max=4, k_max=2)
    for b in subcode_spaces(code, 1):
        if not is_rank_minimal(code, b).verdict:
            continue
        tally.count += 1
        d_code = code.subcode(b)
        lhs = code.k - 1
        rhs = weight(code) - chi_code(d_code).dim
        mu_d = support_code(tower, chi_code(d_code)).as_subspace()
        mu_c = support_code(tower, chi_code(code)).as_subspace()
        eq = mu_d.sum(code.as_subspace()) == mu_c
        if lhs > rhs:
            tally.fail("bound", tower, code=code.to_json(), b=b.to_json())
        if (lhs == rhs) != eq:
            tally.fail("equality-case", tower, code=code.to_json(),
                       b=b.to_json())


def _eight_conditions(code: RankCode, b: Subspace) -> tuple:
    tower = code.tower
    d_code = code.subcode(b)
    target = chi_code(d_code)
    csub = code.as_subspace()
    r = b.dim

    c1 = is_rank_minimal(code, b, "definition").verdict
    c3 = all(subcode_support(code, w) != target
             for w in extensions_containing(code, b))

    def sigma_min_in(w_sub):
        w_code = code.subcode(w_sub)
        for other in enumerate_subspaces(tower, "E", w_code.k, r):
            s = subcode_support(w_code, other)
            if target.contains(s) and s != target:
                return False
        return True

    c2 = all(sigma_min_in(w) for w in extensions_containing(code, b))
    mu = support_code(tower, target).as_subspace()
    inter = csub.intersect(mu)
    c4 = inter == d_code.as_subspace()
    c5 = (code.k - r) == (mu.sum(csub).dim - target.dim)
    c6 = d_code.as_subspace().contains(inter)
    c7 = all(not (target.contains(subcode_support(code, o)) and o != b)
             for o in subcode_spaces(code, r))
    c8 = True
    for dd in range(target.dim + 1):
        for z in subspaces_of(target, dd):
            muz = support_code(tower, z).as_subspace()
            if csub.intersect(muz).dim >= r and z != target:
                c8 = False
                break
        if not c8:
            break
    return (c1, c2, c3, c4, c5, c6, c7, c8)


@_seeded("thm32-eight-conditions", "thm32", "eight-way",
         split=lambda trials, entries: trials // (entries * 3))
def _thm32_conditions(tally, tower, k, rng):
    code = random_code(tower, rng, n_max=3, k_max=2)
    for b in subcode_spaces(code, 1):
        tally.count += 1
        conds = _eight_conditions(code, b)
        if len(set(conds)) != 1:
            tally.fail("eight-way", tower, code=code.to_json(),
                       b=b.to_json(), conditions=list(conds))


@_seeded("cor32", "cor32", "restriction", scope=_first_two,
         split=lambda trials, entries: trials // 40)
def _cor32(tally, tower, k, rng):
    code = random_code(tower, rng, n_max=4, k_max=3, k_min=2)
    for r in range(1, code.k):
        tally.count += 1
        mine = is_r_minimal(code, r).verdict
        for t in range(r + 1, code.k + 1):
            subs = all(is_r_minimal(code.subcode(bb), r).verdict
                       for bb in subcode_spaces(code, t))
            if mine != subs:
                tally.fail("restriction", tower, code=code.to_json(),
                           r=r, t=t)


@_seeded("cor33", "cor33", "downward")
def _cor33(tally, tower, k, rng):
    code = random_code(tower, rng)
    tally.count += 1
    for r in range(1, code.k):
        if is_r_minimal(code, r).verdict:
            for s in range(r + 1):
                if not is_r_minimal(code, s).verdict:
                    tally.fail("downward", tower, code=code.to_json(),
                               r=r, s=s)


@_seeded("prop31", "prop31", "constant-implies-minimal")
def _prop31(tally, tower, k, rng):
    code = random_code(tower, rng)
    tally.count += 1
    for r in range(1, code.k):
        weights = {subcode_weight(code, bb) for bb in subcode_spaces(code, r)}
        if len(weights) == 1 and not is_r_minimal(code, r).verdict:
            tally.fail("constant-implies-minimal", tower,
                       code=code.to_json(), r=r)


@_seeded("thm41-max-weight", "thm41", "value", "witness")
def _thm41(tally, tower, k, rng):
    m = tower.m
    code = random_code(tower, rng, n_max=4, k_max=4)
    tally.count += 1
    for s in range(code.k + 1):
        val, wit = max_subcode_weight(code, s)
        if val != min(m * s, weight(code)):
            tally.fail("value", tower, code=code.to_json(), s=s, got=val)
        if chi_code(wit).dim != val or wit.k != s:
            tally.fail("witness", tower, code=code.to_json(), s=s)


@_seeded("lemma23", "lemma23", "h-le-t", "parameter-drop", "quotient",
         scope=_small_pairs,
         split=lambda trials, entries: trials // (entries * 4))
def _lemma23(tally, tower, k, rng):
    j = random_fsubspace(tower, k, rng, dim=rng.randrange(k, k * tower.m))
    if not is_evasive(tower, k, j, 0, j.dim)[0]:
        return
    tally.count += 1
    for h in range(1, k + 1):
        t = h
        while not is_evasive(tower, k, j, h, t)[0]:
            t += 1
        if t < h:
            tally.fail("h-le-t", tower, j=j.to_json(), h=h)
        for s in range(h + 1):
            if not is_evasive(tower, k, j, h - s, t - s)[0]:
                tally.fail("parameter-drop", tower, j=j.to_json(), h=h, t=t,
                           s=s)
    # quotient property on a random E-subspace
    b = rng.randrange(1, k + 1)
    w = b
    while not is_evasive(tower, k, j, b, w)[0]:
        w += 1
    a_dim = rng.randrange(0, b)
    asub = random_esubspace(tower, k, a_dim, rng)
    v = j.intersection_dim(flatten_subspace(asub))
    proj = _project_mod(tower, k, j, asub)
    if a_dim and not is_evasive(tower, k - a_dim, proj, b - a_dim, w - v)[0]:
        tally.fail("quotient", tower, j=j.to_json(), a=asub.to_json(), b=b,
                   w=w)


def _project_mod(tower, k, fsub, asub):
    comp = [j for j in range(k) if j not in asub.pivots]
    vecs = []
    for row in fsub.rows:
        ev = unflatten_vector(tower, row)
        red = asub.reduce_vector(ev)
        vecs.append(flatten_vector(tower, tuple(red[j] for j in comp)))
    return Subspace.span(tower, "F", len(comp) * tower.m, vecs)


def _pair_split(trials: int, entries: int) -> int:
    return trials // (entries * 2)


@_seeded("prop42", "prop42", "lower-bound", scope=_small_pairs,
         split=_pair_split)
def _prop42(tally, tower, k, rng):
    s = rng.randrange(0, k + 1)
    dim = min(k * tower.m, k * (tower.m - 1) + s)
    b = random_fsubspace(tower, k, rng, dim=dim)
    tally.count += 1
    if linearity_index(tower, k, b) < s:
        tally.fail("lower-bound", tower, b=b.to_json(), s=s)


@_seeded("cor42", "cor42", "big-dim-cuts", "codim-m-case",
         "cutting-dim-bound", scope=_small_pairs, split=_pair_split)
def _cor42(tally, tower, k, rng):
    m = tower.m
    a = random_fsubspace(tower, k, rng)
    tally.count += 1
    lidx = linearity_index(tower, k, a)
    for r in range(k):
        cut = is_cutting(tower, k, a, r).verdict
        if a.dim >= (k - 1) * m + 1 and not cut:
            tally.fail("big-dim-cuts", tower, a=a.to_json(), r=r)
        if a.dim == (k - 1) * m and cut != (lidx <= k - r - 2):
            tally.fail("codim-m-case", tower, a=a.to_json(), r=r)
        if cut and a.dim < (m - 1) * (r + min(k - r - 1, lidx)) + k:
            tally.fail("cutting-dim-bound", tower, a=a.to_json(), r=r)


@_seeded("thm46-constant-weight", "thm46", "three-way")
def _thm46(tally, tower, k, rng):
    code = random_code(tower, rng, n_max=4, k_max=3, k_min=2)
    for r in range(1, code.k):
        tally.count += 1
        try:
            constant_weight_class(code, r)
        except CertificateError:
            tally.fail("three-way", tower, code=code.to_json(), r=r)


@_seeded("cutting-threeway", "cutting3", "three-way", scope=_small_pairs,
         split=_pair_split)
def _cutting_threeway(tally, tower, k, rng):
    s = random_fsubspace(tower, k, rng)
    for r in range(k):
        tally.count += 1
        try:
            is_cutting(tower, k, s, r, route="all")
        except CertificateError as exc:
            tally.fail("three-way", tower, s=s.to_json(), r=r, error=str(exc),
                       recheck=["cutting", "--field", tower.spec_string(),
                                "--subspace",
                                json.dumps(s.to_json(), sort_keys=True),
                                "--r", str(r), "--route", "all"])


@_seeded("criteria-agreement", "criteria", "four-way")
def _criteria_agreement(tally, tower, k, rng):
    code = random_code(tower, rng, n_max=4, k_max=4)
    for r in range(1, code.k):
        tally.count += 1
        try:
            is_r_minimal(code, r, "all")
        except CertificateError as exc:
            tally.fail("four-way", tower, code=code.to_json(), r=r,
                       error=str(exc),
                       recheck=["minimal", "--field", tower.spec_string(),
                                "--code",
                                json.dumps(code.to_json(), sort_keys=True),
                                "--r", str(r), "--method", "all"])


@_seeded("maximality", "maximality", "equivalence", scope=_first_two,
         split=lambda trials, entries: trials // 30)
def _maximality(tally, tower, k, rng):
    code = random_code(tower, rng, n_max=4, k_max=2, k_min=2)
    for r in range(1, code.k):
        tally.count += 1
        rmin = is_r_minimal(code, r).verdict
        allmax = all(is_sigma_maximal(code, bb)
                     for bb in subcode_spaces(code, r))
        if rmin != allmax:
            tally.fail("equivalence", tower, code=code.to_json(), r=r)


@_unseeded("weierstrass")
def _weierstrass():
    triples = [(m, n, h)
               for m in range(1, 6) for n in range(1, 6)
               for h in range(1, min(m, n) + 1)]
    out = comb.weierstrass_checks(
        [Fraction(2), Fraction(3), Fraction(4), Fraction(8)], 12, triples)
    results = []
    for name, key in (("product-lower", "product_lower"),
                      ("rank-count-upper", "rank_count_upper")):
        bad = [case for case, ok in out[key].items() if not ok]
        results.append(PropertyResult(name, not bad, len(out[key]),
                                      {"cases": bad[:3]} if bad else None))
    return results


@_unseeded("counting")
def _counting():
    tally = _Tally("enumeration", "pascal")
    for q, n_cap in ((2, 7), (3, 4)):
        tower = make_field(q, 1)
        for n in range(n_cap + 1):
            for d in range(n + 1):
                tally.count += 1
                got = sum(1 for _ in enumerate_subspaces(tower, "F", n, d))
                if got != comb.qbinom(q, n, d):
                    tally.fails.setdefault(
                        "enumeration", {"q": q, "n": n, "d": d, "got": got})
    for q in (2, 3, 5):
        for n in range(1, 8):
            for r in range(1, n + 1):
                tally.count += 1
                lhs = comb.qbinom(q, n, r) * (q**r - 1)
                rhs = comb.qbinom(q, n - 1, r - 1) * (q**n - 1)
                if lhs != rhs:
                    tally.fails.setdefault("pascal", {"q": q, "n": n, "r": r})
    return tally.results()


_unseeded("empty")(lambda: [])


def suite_names() -> List[str]:
    return sorted(_SUITES)


def run_suite(name: str, trials: int = 200, seed: int = 0,
              towers: Optional[Sequence[FieldTower]] = None) -> SuiteReport:
    """Execute one named suite; deterministic for fixed (trials, seed)."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: "
                           + ", ".join(suite_names()))
    if trials < 0:
        raise ValueError(f"trials={trials} must be nonnegative")
    towers = list(towers) if towers else default_towers()
    t0 = time.monotonic()
    results = _SUITES[name](towers, trials, seed) if trials else []
    report = SuiteReport(name, seed, trials, results)
    report.wall_time_ms = int((time.monotonic() - t0) * 1000)
    return report
