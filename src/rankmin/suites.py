"""Named property suites: executable versions of the theorem-level
invariants, run over seeded random instances on small towers.

Each suite yields per-property pass/fail results; a failure carries a
serialized counterexample and, where a single CLI decision command can
re-check it, the argv to do so.  Instance generation is seeded per
(suite, trial), so reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from . import combinatorics as comb
from .fields import FieldTower, make_field
from .geometry import is_cutting, is_evasive, linearity_index
from .linalg import (
    Subspace,
    enumerate_subspaces,
    f_rational_part,
    flatten_subspace,
    subspaces_of,
)
from .minimality import (
    constant_weight_class,
    dual_criterion_applicable,
    is_r_minimal,
    is_sigma_maximal,
)
from .rank_metric import (
    RankCode,
    chi,
    chi_code,
    column_support,
    full_support_codeword,
    grw_sequence,
    max_subcode_weight,
    rank_support,
    subcode_spaces,
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
# Instance generators.
# ---------------------------------------------------------------------------


def _rng_for(seed: int, suite: str, trial: int) -> random.Random:
    return random.Random(f"{seed}:{suite}:{trial}")


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


def _cx(tower: FieldTower, **payload) -> dict:
    out = {"field": tower.spec_string()}
    out.update(payload)
    return out


# ---------------------------------------------------------------------------
# Suite implementations.  Each returns a list of PropertyResult.
# ---------------------------------------------------------------------------


def _suite_field_axioms(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        add, mul = tower.E.add, tower.E.mul
        for trial in range(trials):
            rng = _rng_for(seed, "field-axioms", trial)
            a, b, c = (rng.randrange(tower.order) for _ in range(3))
            count += 1
            checks = {
                "mul-assoc": mul(a, mul(b, c)) == mul(mul(a, b), c),
                "distrib": mul(a, add(b, c)) == add(mul(a, b), mul(a, c)),
                "inverse": a == 0 or mul(a, tower.E.inv(a)) == 1,
            }
            for name, ok in checks.items():
                if not ok and name not in fails:
                    fails[name] = _cx(tower, a=a, b=b, c=c)
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in ("mul-assoc", "distrib", "inverse")]


def _suite_expand_linear(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        E, F = tower.E, tower.F
        for trial in range(trials):
            rng = _rng_for(seed, "expand-linear", trial)
            n = rng.randrange(1, 5)
            a, b = rng.randrange(tower.q), rng.randrange(tower.q)
            al = tuple(rng.randrange(tower.order) for _ in range(n))
            be = tuple(rng.randrange(tower.order) for _ in range(n))
            count += 1
            combo = tuple(E.add(E.mul(a, x), E.mul(b, y))
                          for x, y in zip(al, be))
            ma, mb = tower.expand(al), tower.expand(be)
            expect = [
                [F.add(F.mul(a, ma[i][j]), F.mul(b, mb[i][j]))
                 for j in range(n)] for i in range(tower.m)]
            if tower.expand(combo) != expect and "linear" not in fails:
                fails["linear"] = _cx(tower, alpha=list(al), beta=list(be))
            if tower.reconstruct(tower.expand(al)) != al \
                    and "reconstruct" not in fails:
                fails["reconstruct"] = _cx(tower, alpha=list(al))
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in ("linear", "reconstruct")]


def _suite_rank_support(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        alt = None
        if tower.q == 2 and tower.m == 2:
            alt = make_field(2, 2, ext_poly=tower.ext_poly, basis=(2, 3))
        for trial in range(trials):
            rng = _rng_for(seed, "rank-support", trial)
            n = rng.randrange(1, 5)
            alpha = tuple(rng.randrange(tower.order) for _ in range(n))
            c = rng.randrange(1, tower.order)
            count += 1
            scaled = tuple(tower.E.mul(c, x) for x in alpha)
            if rank_support(tower, scaled) != rank_support(tower, alpha):
                fails.setdefault("scalar-invariance",
                                 _cx(tower, alpha=list(alpha), c=c))
            if alt is not None and \
                    rank_support(alt, alpha) != rank_support(tower, alpha):
                fails.setdefault("basis-invariance",
                                 _cx(tower, alpha=list(alpha)))
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in ("scalar-invariance", "basis-invariance")]


def _suite_lemma21(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "lemma21", trial)
            code = random_code(tower, rng)
            count += 1
            lhs = f_rational_part(tower, code.as_subspace().dual())
            rhs = chi_code(code).dual()
            if lhs != rhs:
                fails.setdefault("dual-intersection",
                                 _cx(tower, code=code.to_json()))
            if weight(code) != code.n - lhs.dim:
                fails.setdefault("weight-from-dual",
                                 _cx(tower, code=code.to_json()))
            u = column_support(code)
            if u.dim != weight(code):
                fails.setdefault("column-span-weight",
                                 _cx(tower, code=code.to_json()))
            for b in subcode_spaces(code, 1):
                try:
                    subcode_weight(code, b, cross_check=True)
                except AssertionError:
                    fails.setdefault("subcode-weight-formula",
                                     _cx(tower, code=code.to_json(),
                                         b=b.to_json()))
                break
    names = ("dual-intersection", "weight-from-dual", "column-span-weight",
             "subcode-weight-formula")
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in names]


def _suite_cor21(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        m = tower.m
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "cor21", trial)
            code = random_code(tower, rng)
            count += 1
            wtc = weight(code)
            if wtc > m * code.k:
                fails.setdefault("upper", _cx(tower, code=code.to_json()))
            full = column_support(code).dim == m * code.k
            if (wtc == m * code.k) != full:
                fails.setdefault("equality-iff-full",
                                 _cx(tower, code=code.to_json()))
            if wtc == m * code.k:
                for r in range(code.k + 1):
                    for b in subcode_spaces(code, r):
                        if subcode_weight(code, b) != m * r:
                            fails.setdefault(
                                "subcode-dims",
                                _cx(tower, code=code.to_json(), r=r))
                        break
    names = ("upper", "equality-iff-full", "subcode-dims")
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in names]


def _suite_grw_monotone(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "grw-monotone", trial)
            code = random_code(tower, rng)
            count += 1
            seq = grw_sequence(code)
            if not all(a < b for a, b in zip(seq, seq[1:])):
                fails.setdefault("strict",
                                 _cx(tower, code=code.to_json(), seq=seq))
    return [PropertyResult("strict", "strict" not in fails, count,
                           fails.get("strict"))]


def _suite_lemma22(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "lemma22", trial)
            code = random_code(tower, rng, n_max=tower.m, n_min=1)
            count += 1
            alpha = full_support_codeword(code)
            if rank_support(tower, alpha) != chi_code(code):
                fails.setdefault("full-support",
                                 _cx(tower, code=code.to_json()))
    return [PropertyResult("full-support", "full-support" not in fails,
                           count, fails.get("full-support"))]


def _suite_cor31(towers, trials, seed):
    from .minimality import is_rank_minimal

    fails = {}
    count = 0
    for tower in towers:
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "cor31", trial)
            code = random_code(tower, rng, n_max=4, k_max=2)
            for b in subcode_spaces(code, 1):
                if not is_rank_minimal(code, b).verdict:
                    continue
                count += 1
                d_code = code.subcode(b)
                lhs = code.k - 1
                rhs = weight(code) - chi_code(d_code).dim
                mu_d = support_code(tower, chi_code(d_code)).as_subspace()
                mu_c = support_code(tower, chi_code(code)).as_subspace()
                eq = mu_d.sum(code.as_subspace()) == mu_c
                if lhs > rhs:
                    fails.setdefault("bound", _cx(tower, code=code.to_json(),
                                                  b=b.to_json()))
                if (lhs == rhs) != eq:
                    fails.setdefault("equality-case",
                                     _cx(tower, code=code.to_json(),
                                         b=b.to_json()))
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in ("bound", "equality-case")]


def _eight_conditions(code: RankCode, b: Subspace) -> tuple:
    tower = code.tower
    d_code = code.subcode(b)
    target = chi_code(d_code)
    csub = code.as_subspace()
    r = b.dim

    def sup_of(sub):
        return chi(tower, [code.codeword(g) for g in sub.rows], code.n)

    from .rank_metric import extensions_containing

    c1 = all(not (target.contains(sup_of(o)) and sup_of(o) != target)
             for o in subcode_spaces(code, r))
    c3 = all(sup_of(w) != target for w in extensions_containing(code, b))

    def sigma_min_in(w_sub):
        w_code = code.subcode(w_sub)
        for other in enumerate_subspaces(tower, "E", w_code.k, r):
            s = chi(tower, [w_code.codeword(g) for g in other.rows], code.n)
            if target.contains(s) and s != target:
                return False
        return True

    c2 = all(sigma_min_in(w) for w in extensions_containing(code, b))
    mu = support_code(tower, target).as_subspace()
    inter = csub.intersect(mu)
    c4 = inter == d_code.as_subspace()
    c5 = (code.k - r) == (mu.sum(csub).dim - target.dim)
    c6 = d_code.as_subspace().contains(inter)
    c7 = all(not (target.contains(sup_of(o)) and o != b)
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


def _suite_thm32_conditions(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        for trial in range(max(1, trials // (len(towers) * 3))):
            rng = _rng_for(seed, "thm32", trial)
            code = random_code(tower, rng, n_max=3, k_max=2)
            for b in subcode_spaces(code, 1):
                count += 1
                conds = _eight_conditions(code, b)
                if len(set(conds)) != 1:
                    fails.setdefault(
                        "eight-way",
                        _cx(tower, code=code.to_json(), b=b.to_json(),
                            conditions=list(conds)))
    return [PropertyResult("eight-way", "eight-way" not in fails, count,
                           fails.get("eight-way"))]


def _suite_cor32(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers[:2]:
        for trial in range(max(1, trials // 40)):
            rng = _rng_for(seed, "cor32", trial)
            code = random_code(tower, rng, n_max=4, k_max=3, k_min=2)
            for r in range(1, code.k):
                count += 1
                mine = is_r_minimal(code, r).verdict
                for t in range(r + 1, code.k + 1):
                    subs = all(is_r_minimal(code.subcode(bb), r).verdict
                               for bb in subcode_spaces(code, t))
                    if mine != subs:
                        fails.setdefault(
                            "restriction",
                            _cx(tower, code=code.to_json(), r=r, t=t))
    return [PropertyResult("restriction", "restriction" not in fails, count,
                           fails.get("restriction"))]


def _suite_cor33(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "cor33", trial)
            code = random_code(tower, rng)
            count += 1
            for r in range(1, code.k):
                if is_r_minimal(code, r).verdict:
                    for s in range(r + 1):
                        if not is_r_minimal(code, s).verdict:
                            fails.setdefault(
                                "downward",
                                _cx(tower, code=code.to_json(), r=r, s=s))
    return [PropertyResult("downward", "downward" not in fails, count,
                           fails.get("downward"))]


def _suite_prop31(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "prop31", trial)
            code = random_code(tower, rng)
            count += 1
            for r in range(1, code.k):
                weights = {subcode_weight(code, bb)
                           for bb in subcode_spaces(code, r)}
                if len(weights) == 1 and not is_r_minimal(code, r).verdict:
                    fails.setdefault(
                        "constant-implies-minimal",
                        _cx(tower, code=code.to_json(), r=r))
    return [PropertyResult("constant-implies-minimal",
                           "constant-implies-minimal" not in fails, count,
                           fails.get("constant-implies-minimal"))]


def _suite_thm41(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        m = tower.m
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "thm41", trial)
            code = random_code(tower, rng, n_max=4, k_max=4)
            count += 1
            for s in range(code.k + 1):
                val, wit = max_subcode_weight(code, s)
                if val != min(m * s, weight(code)):
                    fails.setdefault("value", _cx(tower, code=code.to_json(),
                                                  s=s, got=val))
                if chi_code(wit).dim != val or wit.k != s:
                    fails.setdefault("witness",
                                     _cx(tower, code=code.to_json(), s=s))
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in ("value", "witness")]


def _suite_lemma23(towers, trials, seed):
    fails = {}
    count = 0
    pairs = [(t, k) for t in towers for k in (2, 3)
             if k * t.m <= 9]
    for tower, k in pairs:
        for trial in range(max(1, trials // (len(pairs) * 4))):
            rng = _rng_for(seed, f"lemma23:{k}", trial)
            j = random_fsubspace(tower, k, rng,
                                 dim=rng.randrange(k, k * tower.m))
            if not is_evasive(tower, k, j, 0, j.dim)[0]:
                continue
            count += 1
            for h in range(1, k + 1):
                t = h
                while not is_evasive(tower, k, j, h, t)[0]:
                    t += 1
                if t < h:
                    fails.setdefault("h-le-t", _cx(tower, j=j.to_json(), h=h))
                for s in range(h + 1):
                    if not is_evasive(tower, k, j, h - s, t - s)[0]:
                        fails.setdefault("parameter-drop",
                                         _cx(tower, j=j.to_json(),
                                             h=h, t=t, s=s))
            # quotient property on a random E-subspace
            b = rng.randrange(1, k + 1)
            w = b
            while not is_evasive(tower, k, j, b, w)[0]:
                w += 1
            a_dim = rng.randrange(0, b)
            asub = random_esubspace(tower, k, a_dim, rng)
            v = j.intersection_dim(flatten_subspace(asub))
            proj = _project_mod(tower, k, j, asub)
            if a_dim and not is_evasive(tower, k - a_dim, proj,
                                        b - a_dim, w - v)[0]:
                fails.setdefault("quotient",
                                 _cx(tower, j=j.to_json(), a=asub.to_json(),
                                     b=b, w=w))
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in ("h-le-t", "parameter-drop", "quotient")]


def _project_mod(tower, k, fsub, asub):
    from .linalg import flatten_vector, unflatten_vector

    comp = [j for j in range(k) if j not in asub.pivots]
    vecs = []
    for row in fsub.rows:
        ev = unflatten_vector(tower, row)
        red = asub.reduce_vector(ev)
        vecs.append(flatten_vector(tower, tuple(red[j] for j in comp)))
    return Subspace.span(tower, "F", len(comp) * tower.m, vecs)


def _suite_prop42(towers, trials, seed):
    fails = {}
    count = 0
    pairs = [(t, k) for t in towers for k in (2, 3) if k * t.m <= 9]
    for tower, k in pairs:
        m = tower.m
        for trial in range(max(1, trials // (len(pairs) * 2))):
            rng = _rng_for(seed, f"prop42:{k}", trial)
            s = rng.randrange(0, k + 1)
            dim = min(k * m, k * (m - 1) + s)
            b = random_fsubspace(tower, k, rng, dim=dim)
            count += 1
            if linearity_index(tower, k, b) < s:
                fails.setdefault("lower-bound",
                                 _cx(tower, b=b.to_json(), s=s))
    return [PropertyResult("lower-bound", "lower-bound" not in fails, count,
                           fails.get("lower-bound"))]


def _suite_cor42(towers, trials, seed):
    fails = {}
    count = 0
    pairs = [(t, k) for t in towers for k in (2, 3) if k * t.m <= 9]
    for tower, k in pairs:
        m = tower.m
        for trial in range(max(1, trials // (len(pairs) * 2))):
            rng = _rng_for(seed, f"cor42:{k}", trial)
            a = random_fsubspace(tower, k, rng)
            count += 1
            lidx = linearity_index(tower, k, a)
            for r in range(k):
                cut = is_cutting(tower, k, a, r).verdict
                if a.dim >= (k - 1) * m + 1 and not cut:
                    fails.setdefault("big-dim-cuts",
                                     _cx(tower, a=a.to_json(), r=r))
                if a.dim == (k - 1) * m and cut != (lidx <= k - r - 2):
                    fails.setdefault("codim-m-case",
                                     _cx(tower, a=a.to_json(), r=r))
                if cut:
                    s = min(k - r - 1, lidx)
                    if a.dim < (m - 1) * (r + s) + k:
                        fails.setdefault("cutting-dim-bound",
                                         _cx(tower, a=a.to_json(), r=r))
    names = ("big-dim-cuts", "codim-m-case", "cutting-dim-bound")
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in names]


def _suite_thm46(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "thm46", trial)
            code = random_code(tower, rng, n_max=4, k_max=3, k_min=2)
            for r in range(1, code.k):
                count += 1
                try:
                    constant_weight_class(code, r)
                except AssertionError:
                    fails.setdefault("three-way",
                                     _cx(tower, code=code.to_json(), r=r))
    return [PropertyResult("three-way", "three-way" not in fails, count,
                           fails.get("three-way"))]


def _suite_cutting_threeway(towers, trials, seed):
    fails = {}
    count = 0
    pairs = [(t, k) for t in towers for k in (2, 3) if k * t.m <= 9]
    for tower, k in pairs:
        for trial in range(max(1, trials // (len(pairs) * 2))):
            rng = _rng_for(seed, f"cutting3:{k}", trial)
            s = random_fsubspace(tower, k, rng)
            for r in range(k):
                count += 1
                verdicts = {
                    is_cutting(tower, k, s, r, route=rt).verdict
                    for rt in ("definition", "prop21", "evasive")}
                if len(verdicts) != 1:
                    fails.setdefault(
                        "three-way",
                        {**_cx(tower, s=s.to_json(), r=r),
                         "recheck": ["cutting", "--field",
                                     tower.spec_string(), "--r", str(r),
                                     "--route", "all"]})
    return [PropertyResult("three-way", "three-way" not in fails, count,
                           fails.get("three-way"))]


def _suite_criteria_agreement(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers:
        for trial in range(max(1, trials // len(towers))):
            rng = _rng_for(seed, "criteria", trial)
            code = random_code(tower, rng, n_max=4, k_max=4)
            for r in range(1, code.k):
                count += 1
                methods = ["grw", "cutting", "definition"]
                if dual_criterion_applicable(code, r):
                    methods.append("dual")
                verdicts = {mth: is_r_minimal(code, r, mth).verdict
                            for mth in methods}
                if len(set(verdicts.values())) != 1:
                    fails.setdefault(
                        "four-way",
                        {**_cx(tower, code=code.to_json(), r=r),
                         "verdicts": verdicts,
                         "recheck": ["minimal", "--field",
                                     tower.spec_string(), "--r", str(r),
                                     "--method", "all"]})
    return [PropertyResult("four-way", "four-way" not in fails, count,
                           fails.get("four-way"))]


def _suite_maximality(towers, trials, seed):
    fails = {}
    count = 0
    for tower in towers[:2]:
        for trial in range(max(1, trials // 30)):
            rng = _rng_for(seed, "maximality", trial)
            code = random_code(tower, rng, n_max=4, k_max=2)
            for r in range(1, code.k):
                count += 1
                rmin = is_r_minimal(code, r).verdict
                allmax = all(is_sigma_maximal(code, bb)
                             for bb in subcode_spaces(code, r))
                if rmin != allmax:
                    fails.setdefault("equivalence",
                                     _cx(tower, code=code.to_json(), r=r))
    return [PropertyResult("equivalence", "equivalence" not in fails, count,
                           fails.get("equivalence"))]


def _suite_weierstrass(towers, trials, seed):
    triples = [(m, n, h)
               for m in range(1, 6) for n in range(1, 6)
               for h in range(1, min(m, n) + 1)]
    out = comb.weierstrass_checks(
        [Fraction(2), Fraction(3), Fraction(4), Fraction(8)], 12, triples)
    count = len(out["product_lower"]) + len(out["rank_count_upper"])
    bad_product = [k for k, v in out["product_lower"].items() if not v]
    bad_rank = [k for k, v in out["rank_count_upper"].items() if not v]
    return [
        PropertyResult("product-lower", not bad_product,
                       len(out["product_lower"]),
                       {"cases": bad_product[:3]} if bad_product else None),
        PropertyResult("rank-count-upper", not bad_rank,
                       len(out["rank_count_upper"]),
                       {"cases": bad_rank[:3]} if bad_rank else None),
    ]


def _suite_counting(towers, trials, seed):
    fails = {}
    count = 0
    gf2 = make_field(2, 1)
    gf3 = make_field(3, 1)
    for q, tower, n_cap in ((2, gf2, 7), (3, gf3, 4)):
        for n in range(n_cap + 1):
            for d in range(n + 1):
                count += 1
                got = sum(1 for _ in enumerate_subspaces(tower, "F", n, d))
                if got != comb.qbinom(q, n, d):
                    fails.setdefault("enumeration",
                                     {"q": q, "n": n, "d": d, "got": got})
    for q in (2, 3, 5):
        for n in range(1, 8):
            for r in range(1, n + 1):
                count += 1
                lhs = comb.qbinom(q, n, r) * (q**r - 1)
                rhs = comb.qbinom(q, n - 1, r - 1) * (q**n - 1)
                if lhs != rhs:
                    fails.setdefault("pascal", {"q": q, "n": n, "r": r})
    return [PropertyResult(nm, nm not in fails, count, fails.get(nm))
            for nm in ("enumeration", "pascal")]


def _suite_empty(towers, trials, seed):
    return []


_SUITES: Dict[str, Callable] = {
    "field-axioms": _suite_field_axioms,
    "expand-linear": _suite_expand_linear,
    "rank-support-basics": _suite_rank_support,
    "lemma21": _suite_lemma21,
    "cor21": _suite_cor21,
    "grw-monotone": _suite_grw_monotone,
    "lemma22": _suite_lemma22,
    "cor31-singleton": _suite_cor31,
    "thm32-eight-conditions": _suite_thm32_conditions,
    "cor32": _suite_cor32,
    "cor33": _suite_cor33,
    "prop31": _suite_prop31,
    "thm41-max-weight": _suite_thm41,
    "lemma23": _suite_lemma23,
    "prop42": _suite_prop42,
    "cor42": _suite_cor42,
    "thm46-constant-weight": _suite_thm46,
    "cutting-threeway": _suite_cutting_threeway,
    "criteria-agreement": _suite_criteria_agreement,
    "maximality": _suite_maximality,
    "weierstrass": _suite_weierstrass,
    "counting": _suite_counting,
    "empty": _suite_empty,
}


def suite_names() -> List[str]:
    return sorted(_SUITES)


def run_suite(name: str, trials: int = 200, seed: int = 0,
              towers: Optional[Sequence[FieldTower]] = None) -> SuiteReport:
    """Execute one named suite; deterministic for fixed (trials, seed)."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: "
                           + ", ".join(suite_names()))
    towers = list(towers) if towers else default_towers()
    t0 = time.monotonic()
    if trials <= 0:
        results: List[PropertyResult] = []
    else:
        results = _SUITES[name](towers, trials, seed)
    report = SuiteReport(name, seed, trials, results)
    report.wall_time_ms = int((time.monotonic() - t0) * 1000)
    return report
