"""Microbenchmarks for the layers that tracing cannot wrap cheaply.

Field operations are timed through the callables linalg uses
(``tower.E.add`` and friends, the engines' bound methods) and through
``tower.to_coords``; linalg kernels on shapes the workloads use.  Operand
streams come from ``random.Random`` seeded by S and the tower, and the
towers' moduli are picked by S.  Each figure is the median over
``REPEATS`` passes of the time per operation, loop overhead included.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, Sequence

from inputs import field_spec

REPEATS = 5
FIELD_OPS = 20000
# name -> (p, m)
MICRO_TOWERS = {"gf8": (2, 3), "gf9": (3, 2), "gf16": (2, 4)}


def _per_op(run: Callable[[], int]) -> float:
    """Median seconds per operation of ``run``, which returns its op count."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        n = run()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def _binary(fn: Callable, pairs: Sequence) -> Callable[[], int]:
    def run() -> int:
        for a, b in pairs:
            fn(a, b)
        return len(pairs)
    return run


def _unary(fn: Callable, xs: Sequence) -> Callable[[], int]:
    def run() -> int:
        for a in xs:
            fn(a)
        return len(xs)
    return run


def field_metrics(seed: int) -> Dict[str, float]:
    from rankmin.fields import parse_field_spec

    out = {}
    for name, (p, m) in MICRO_TOWERS.items():
        tower = parse_field_spec(field_spec(p, m, seed))
        rng = random.Random(f"{seed}:fields:{name}")
        big, small = tower.order, tower.q
        e_pairs = [(rng.randrange(big), rng.randrange(big))
                   for _ in range(FIELD_OPS)]
        f_pairs = [(rng.randrange(small), rng.randrange(small))
                   for _ in range(FIELD_OPS)]
        nonzero = [rng.randrange(1, big) for _ in range(FIELD_OPS)]
        elems = [rng.randrange(big) for _ in range(FIELD_OPS)]
        timed = {
            "E_add_ns": _binary(tower.E.add, e_pairs),
            "E_mul_ns": _binary(tower.E.mul, e_pairs),
            "E_inv_ns": _unary(tower.E.inv, nonzero),
            "F_mul_ns": _binary(tower.F.mul, f_pairs),
            "F_sub_ns": _binary(tower.F.sub, f_pairs),
            "to_coords_ns": _unary(tower.to_coords, elems),
        }
        for stat, run in timed.items():
            out[f"fields.{name}.{stat}"] = _per_op(run) * 1e9
    return out


def linalg_metrics(seed: int) -> Dict[str, float]:
    from rankmin.fields import parse_field_spec
    from rankmin.linalg import Subspace, enumerate_subspaces, flatten_subspace
    from rankmin.linalg import rref

    rng = random.Random(f"{seed}:linalg")
    gf9 = parse_field_spec(field_spec(3, 2, seed))
    gf8 = parse_field_spec(field_spec(2, 3, seed))
    # rref: 6x6 over GF(3), the S + M stack of scan-q3's intersection_dim
    mats = [[[rng.randrange(3) for _ in range(6)] for _ in range(6)]
            for _ in range(200)]
    level = gf9.F

    def run_rref() -> int:
        for mat in mats:
            rref(mat, level)
        return len(mats)

    # enumerate_subspaces: every 2-dim E-subspace of E^4 over GF(8), the
    # census-q8 enumeration (4,745 subspaces)
    def run_enum() -> int:
        n = 0
        for _ in enumerate_subspaces(gf8, "E", 4, 2):
            n += 1
        return n

    # flatten_subspace: E-lines of E^3 over GF(9), scan-q3's evasive test
    lines: List = []
    while len(lines) < 200:
        vec = [rng.randrange(gf9.order) for _ in range(3)]
        if any(vec):
            lines.append(Subspace.span(gf9, "E", 3, [vec]))

    def run_flatten() -> int:
        for line in lines:
            flatten_subspace(line)
        return len(lines)

    return {
        "linalg.rref_us": _per_op(run_rref) * 1e6,
        "linalg.enumerate_subspaces_us": _per_op(run_enum) * 1e6,
        "linalg.flatten_subspace_us": _per_op(run_flatten) * 1e6,
    }
