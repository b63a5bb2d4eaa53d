"""Per-layer metrics: names, units, the better direction, and how each is
derived from a traced run's spans.

Names follow ``<module>.<function>[.<variant>].<stat>``.  A metric whose
layer the workload never reaches reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from micro import MICRO_TOWERS

FIELD_STATS = ("E_add_ns", "E_mul_ns", "E_inv_ns", "F_mul_ns", "F_sub_ns",
               "to_coords_ns")
LINALG_TRACED = ("rref", "Subspace.span", "Subspace.intersect",
                 "Subspace.intersection_dim", "flatten_subspace",
                 "espan_of_flat", "enumerate_subspaces")
CUTTING_ROUTES = ("definition", "prop21", "evasive")
RANK_METRIC = ("grw", "weight", "subcode_weight", "chi", "column_support")
MINIMALITY_METHODS = ("grw", "cutting", "dual", "definition")
# generic_q2 (q = 2 with k - r - 1 != 1) runs on no workload, so it has
# no metric.
SCAN_KERNELS = ("q2_line", "generic_q3")
SUITES_TIMED = ("cutting-threeway", "criteria-agreement")


def _timed(prefix: str) -> List[Tuple[str, str, str]]:
    return [(f"{prefix}.calls", "count", "lower"),
            (f"{prefix}.self_s", "s", "lower")]


def _decider(prefix: str) -> List[Tuple[str, str, str]]:
    # true_share is an outcome of the inputs; it should not move.
    return _timed(prefix) + [(f"{prefix}.true_share", "share", "higher")]


def _definitions() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = []
    for tower in MICRO_TOWERS:
        out += [(f"fields.{tower}.{stat}", "ns", "lower")
                for stat in FIELD_STATS]
    out += [("linalg.rref_us", "us", "lower"),
            ("linalg.enumerate_subspaces_us", "us", "lower"),
            ("linalg.flatten_subspace_us", "us", "lower")]
    for fn in LINALG_TRACED:
        out += _timed(f"linalg.{fn}")
    out.append(("linalg.flatten_subspace.per_candidate", "count", "lower"))
    for route in CUTTING_ROUTES:
        out += _decider(f"geometry.is_cutting.{route}")
    out += _decider("geometry.is_evasive")
    out.append(("geometry.is_evasive.m_tested_per_call", "count", "lower"))
    for fn in RANK_METRIC:
        out += _timed(f"rank_metric.{fn}")
    for method in MINIMALITY_METHODS:
        out += _decider(f"minimality.is_r_minimal.{method}")
    out += _timed("minimality.constant_weight_class")
    out += [("combinatorics.omega_bounds.self_s", "s", "lower"),
            ("combinatorics.qbinom.calls", "count", "lower")]
    out += _timed("search.scan_dimension")
    out.append(("search.scan_dimension.visited", "count", "lower"))
    out += [(f"search.{kernel}.candidates_per_s", "1/s", "higher")
            for kernel in SCAN_KERNELS]
    out += [("search.pool.efficiency", "ratio", "higher"),
            ("search.omega_exhaustive.self_s", "s", "lower"),
            ("search.census_codes.self_s", "s", "lower"),
            ("suites.run_suite.self_s", "s", "lower")]
    out += [(f"suites.{name}.s", "s", "lower") for name in SUITES_TIMED]
    out += [("suites.instances_per_s", "1/s", "higher"),
            ("cli.run_command.self_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


PER_LAYER = _definitions()
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(s, pool: Optional[object] = None) -> Dict[str, float]:
    """Every span-derived per-layer metric from a ``SpanSummary`` of the
    one-thread traced job; ``pool`` summarizes the two-thread job."""
    out: Dict[str, float] = {}

    def timed(prefix: str) -> None:
        out[f"{prefix}.calls"] = float(s.sum_calls(prefix))
        out[f"{prefix}.self_s"] = s.sum_self(prefix)

    def decider(prefix: str) -> None:
        timed(prefix)
        out[f"{prefix}.true_share"] = s.share(prefix)

    for fn in LINALG_TRACED:
        timed(f"linalg.{fn}")
    visited = s.sum_values("search.scan_dimension")
    out["linalg.flatten_subspace.per_candidate"] = _ratio(
        s.calls["linalg.flatten_subspace"], visited)
    for route in CUTTING_ROUTES:
        decider(f"geometry.is_cutting.{route}")
    decider("geometry.is_evasive")
    out["geometry.is_evasive.m_tested_per_call"] = _ratio(
        s.children_of("geometry.is_evasive", "linalg.flatten_subspace"),
        s.calls["geometry.is_evasive"])
    for fn in RANK_METRIC:
        timed(f"rank_metric.{fn}")
    for method in MINIMALITY_METHODS:
        decider(f"minimality.is_r_minimal.{method}")
    timed("minimality.constant_weight_class")
    out["combinatorics.omega_bounds.self_s"] = s.sum_self(
        "combinatorics.omega_bounds")
    out["combinatorics.qbinom.calls"] = float(
        s.sum_calls("combinatorics.qbinom"))
    timed("search.scan_dimension")
    out["search.scan_dimension.visited"] = visited
    for kernel in SCAN_KERNELS:
        name = f"search.scan_dimension.{kernel}"
        out[f"search.{kernel}.candidates_per_s"] = _ratio(
            s.sum_values(name), s.sum_total(name))
    out["search.pool.efficiency"] = 0.0
    if pool is not None:
        out["search.pool.efficiency"] = _ratio(
            s.sum_total("search.scan_dimension"),
            2 * pool.sum_total("search.scan_dimension"))
    out["search.omega_exhaustive.self_s"] = s.sum_self(
        "search.omega_exhaustive")
    out["search.census_codes.self_s"] = s.sum_self("search.census_codes")
    out["suites.run_suite.self_s"] = s.sum_self("suites.run_suite")
    for name in SUITES_TIMED:
        out[f"suites.{name}.s"] = s.sum_total(f"suites.run_suite.{name}")
    out["suites.instances_per_s"] = _ratio(
        s.sum_values("suites.run_suite"), s.sum_total("suites.run_suite"))
    out["cli.run_command.self_s"] = s.sum_self("cli.run_command")
    return out
