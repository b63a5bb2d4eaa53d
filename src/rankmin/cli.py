"""Command-line interface.

Codes and subspaces are passed as JSON (inline, from a file, or ``-`` for
stdin); results print as text or, with ``--json``, as machine-readable
JSON (sorted keys, so identical argv and seed give byte-identical output).
Exit codes: 0 success, 1 false verdict under ``--strict``, 2 usage error,
3 budget exceeded, 4 failed check (a ``CertificateError``: cross-checked
routes disagree, or a certified answer failed re-verification), 141 the
reader closed stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, Tuple

from .combinatorics import (
    count_r_minimal,
    omega_bounds,
    qbinom,
    qdelta,
)
from .fields import FieldTower, parse_field_spec
from .geometry import is_cutting, is_evasive, linearity_index
from .linalg import CertificateError, Subspace
from .minimality import (
    is_r_minimal,
    is_rank_minimal,
    is_sigma_maximal,
)
from .rank_metric import RankCode, chi_code, grw, grw_sequence
from .search import (
    BudgetExceeded,
    census_codes,
    max_evasive_dim,
    omega_exhaustive,
    scan_dimension,
)
from .suites import run_suite, suite_names

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CHECK = 4
EXIT_PIPE = 141  # 128 + SIGPIPE


class UsageError(ValueError):
    pass


def _read_json_arg(value: str) -> dict:
    if value == "-":
        text = sys.stdin.read()
    elif value.lstrip().startswith("{"):
        text = value
    else:
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise ValueError("JSON input is nested too deeply") from None


def _load_tower(spec: Optional[str], obj: Optional[dict] = None) -> FieldTower:
    if spec:
        return parse_field_spec(spec)
    if isinstance(obj, dict) and isinstance(obj.get("field"), str):
        return parse_field_spec(obj["field"])
    raise UsageError("no field spec given (use --field or embed in JSON)")


def _load_subspace(tower: FieldTower, value: str) -> Subspace:
    return Subspace.from_json(tower, _read_json_arg(value))


def _load_code(args) -> RankCode:
    """The ``--code`` input, over ``--field`` or the tower embedded in it."""
    obj = _read_json_arg(args.code)
    return RankCode.from_json(_load_tower(args.field, obj), obj)


def _load_flat(args) -> Tuple[FieldTower, int, Subspace]:
    """(tower, k, S) for the ``--subspace`` input S inside F^(km)."""
    obj = _read_json_arg(args.subspace)
    tower = _load_tower(args.field, obj)
    sub = Subspace.from_json(tower, obj)
    return tower, sub.ambient // tower.m, sub


def _emit(args, obj: dict, text: str) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _threads(args) -> int:
    """``--threads``, else a nonempty ``RANKMIN_THREADS``, else the CPU
    count.  A given count must be an integer of at least 1."""
    env = os.environ.get("RANKMIN_THREADS")
    if args.threads is None and not env:
        return os.cpu_count() or 1
    name, value = (("RANKMIN_THREADS", env) if args.threads is None
                   else ("--threads", str(args.threads)))
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise UsageError(f"{name} must be an integer of at least 1, "
                         f"got {value}")
    return count


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_field(args) -> int:
    tower = _load_tower(args.field)
    obj = {
        "field": tower.spec_string(),
        "p": tower.p, "e": tower.e, "m": tower.m,
        "q": tower.q, "order": tower.order,
        "ext_poly": list(tower.ext_poly),
        "basis": list(tower.basis),
    }
    if tower.base_poly:
        obj["base_poly"] = list(tower.base_poly)
    _emit(args, obj, f"GF({tower.q}^{tower.m})/GF({tower.q}), "
                     f"order {tower.order}, spec {tower.spec_string()}")
    return EXIT_OK


def _cmd_wt(args) -> int:
    code = _load_code(args)
    support = chi_code(code)
    obj = {"wt": support.dim, "chi": support.to_json(),
           "code": code.to_json()}
    _emit(args, obj, str(support.dim))
    return EXIT_OK


def _cmd_grw(args) -> int:
    code = _load_code(args)
    if args.r is not None:
        val = grw(code, args.r)
        obj = {"r": args.r, "d_r": val, "code": code.to_json()}
        _emit(args, obj, str(val))
    else:
        seq = grw_sequence(code)
        obj = {"d_sequence": seq, "code": code.to_json()}
        _emit(args, obj, " ".join(map(str, seq)))
    return EXIT_OK


def _verdict_exit(args, verdict: bool) -> int:
    if args.strict and not verdict:
        return EXIT_FALSE
    return EXIT_OK


def _cmd_minimal(args) -> int:
    code = _load_code(args)
    verdict = is_r_minimal(code, args.r, method=args.method)
    obj = verdict.to_json()
    obj["d_sequence"] = grw_sequence(code)
    _emit(args, obj, f"{verdict.verdict} (method={verdict.method})")
    return _verdict_exit(args, verdict.verdict)


def _cmd_maximal(args) -> int:
    code = _load_code(args)
    b = _load_subspace(code.tower, args.subcode)
    verdict = is_sigma_maximal(code, b)
    _emit(args, {"verdict": verdict}, str(verdict))
    return _verdict_exit(args, verdict)


def _cmd_rank_minimal(args) -> int:
    code = _load_code(args)
    b = _load_subspace(code.tower, args.subcode)
    verdict = is_rank_minimal(code, b, method=args.method)
    _emit(args, verdict.to_json(),
          f"{verdict.verdict} (method={verdict.method})")
    return _verdict_exit(args, verdict.verdict)


def _cmd_cutting(args) -> int:
    tower, k, sub = _load_flat(args)
    verdict = is_cutting(tower, k, sub, args.r, route=args.route)
    _emit(args, verdict.to_json(),
          f"{verdict.verdict} (route={verdict.route})")
    return _verdict_exit(args, verdict.verdict)


def _cmd_evasive(args) -> int:
    tower, k, sub = _load_flat(args)
    ok, refuting = is_evasive(tower, k, sub, args.h, args.t)
    obj = {"verdict": ok}
    if refuting is not None:
        obj["refuting"] = refuting.to_json()
    _emit(args, obj, str(ok))
    return _verdict_exit(args, ok)


def _cmd_evasive_max(args) -> int:
    tower = _load_tower(args.field)
    try:
        dim, witness = max_evasive_dim(tower, args.k, args.h, args.t,
                                       budget=args.budget)
    except BudgetExceeded:
        _emit(args, {"error": "budget-exceeded"}, "budget exceeded")
        return EXIT_BUDGET
    obj = {"max_dimension": dim}
    if witness is not None:
        obj["witness"] = witness.to_json()
    _emit(args, obj, str(dim))
    return EXIT_OK


def _cmd_linearity(args) -> int:
    tower, k, sub = _load_flat(args)
    val = linearity_index(tower, k, sub)
    _emit(args, {"linearity_index": val}, str(val))
    return EXIT_OK


def _cmd_count(args) -> int:
    kind = args.kind
    if kind == "auto":
        kind = "r-minimal" if args.m is not None else "qbinom"
    if kind == "r-minimal":
        if args.m is None:
            raise UsageError("count -k r-minimal needs --m")
        obj = {"kind": kind, "q": args.q, "m": args.m, "n": args.n,
               "r": args.r,
               "value": count_r_minimal(args.q, args.m, args.n, args.r)}
    else:  # qbinom or qdelta, the kinds left among argparse's choices
        if args.m is not None:
            raise UsageError(f"--m: not valid with --kind {kind}")
        value = (qbinom if kind == "qbinom" else qdelta)(args.q, args.n, args.r)
        obj = {"kind": kind, "q": args.q, "n": args.n, "r": args.r,
               "value": value}
    _emit(args, obj, str(obj["value"]))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    b = omega_bounds(args.m, args.k, args.r)
    _emit(args, b.to_json(),
          f"[{b.lower}, {b.upper}]" + (" exact" if b.exact else ""))
    return EXIT_OK


def _cmd_omega(args) -> int:
    scan_mode = args.scan_dim is not None
    other_mode = ({"--budget": args.budget, "--time-budget": args.time_budget,
                   "--dim-cap": args.dim_cap, "--cert-out": args.cert_out}
                  if scan_mode else
                  {"--shards": args.shards, "--shard-index": args.shard_index})
    stray = [opt for opt, val in other_mode.items() if val is not None]
    if stray:
        raise UsageError(", ".join(stray) + ": not valid "
                         + ("with" if scan_mode else "without") + " --scan-dim")
    tower = _load_tower(args.field)
    if scan_mode:
        # one sharded dimension sweep, for external orchestration
        shards = 1 if args.shards is None else args.shards
        index = 0 if args.shard_index is None else args.shard_index
        scan = scan_dimension(tower, args.k, args.r, args.scan_dim,
                              stop_at_first=False, threads=_threads(args),
                              shards=shards, shard_index=index)
        obj = {"dimension": scan.dimension, "visited": scan.visited,
               "shards": shards, "shard_index": index,
               "witness": scan.witness.to_json() if scan.witness else None}
        _emit(args, obj, f"dim {scan.dimension}: visited {scan.visited}, "
                         f"witness {'yes' if scan.witness else 'no'}")
        return EXIT_OK
    try:
        res = omega_exhaustive(tower, args.k, args.r, dim_cap=args.dim_cap,
                               threads=_threads(args), budget=args.budget,
                               time_budget_s=args.time_budget)
    except BudgetExceeded as err:
        obj = {"error": "budget-exceeded", "bracket": [err.lower, err.upper],
               "certificates": err.certificates}
        _emit(args, obj, f"budget exceeded; bracket [{err.lower}, {err.upper}]")
        return EXIT_BUDGET
    obj = res.to_json()
    if args.cert_out:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
    _emit(args, obj, str(res.value))
    return EXIT_OK


def _cmd_census(args) -> int:
    tower = _load_tower(args.field)
    try:
        rep = census_codes(tower, args.n, args.k, r=args.r,
                           weight_of_interest=args.wt,
                           constant_weight_r=args.constant_weight,
                           budget=args.budget)
    except BudgetExceeded:
        _emit(args, {"error": "budget-exceeded"}, "budget exceeded")
        return EXIT_BUDGET
    text = f"total {rep.counts['total']}"
    if "r_minimal" in rep.counts:
        text += f", r-minimal {rep.counts['r_minimal']}"
    _emit(args, rep.to_json(), text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    towers = [parse_field_spec(s) for s in args.field] if args.field else None
    report = run_suite(args.suite, trials=args.trials, seed=args.seed,
                       towers=towers)
    obj = report.to_json(include_timing=args.timings)
    lines = [f"suite {report.suite}: "
             + ("PASS" if report.passed else "FAIL")]
    for r in report.results:
        lines.append(f"  {r.name}: {'pass' if r.passed else 'FAIL'} "
                     f"({r.instances} instances)")
    _emit(args, obj, "\n".join(lines))
    if args.strict and not report.passed:
        return EXIT_FALSE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rankmin",
        description="Minimal rank-metric codes, cutting blocking sets and "
                    "evasive subspaces over GF(q^m)/GF(q).")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, strict=True):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="exit 1 when the verdict is false")

    p = sub.add_parser("field", help="validate and describe a field tower")
    p.add_argument("--field", required=True)
    common(p, strict=False)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("wt", help="rank support weight of a code")
    p.add_argument("--field")
    p.add_argument("--code", required=True)
    common(p, strict=False)
    p.set_defaults(func=_cmd_wt)

    p = sub.add_parser("grw", help="generalized rank weights")
    p.add_argument("--field")
    p.add_argument("--code", required=True)
    p.add_argument("--r", type=int, help="single index (default: sequence)")
    common(p, strict=False)
    p.set_defaults(func=_cmd_grw)

    p = sub.add_parser("minimal", help="is the code r-minimal?")
    p.add_argument("--field")
    p.add_argument("--code", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", default="grw",
                   choices=["grw", "cutting", "dual", "definition", "all"])
    common(p)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("rank-minimal",
                       help="is a subcode rank minimal in the code?")
    p.add_argument("--field")
    p.add_argument("--code", required=True)
    p.add_argument("--subcode", required=True,
                   help="subspace JSON for B inside E^k")
    p.add_argument("--method", default="criterion",
                   choices=["criterion", "support", "definition"])
    common(p)
    p.set_defaults(func=_cmd_rank_minimal)

    p = sub.add_parser("maximal", help="is a subcode sigma-maximal?")
    p.add_argument("--field")
    p.add_argument("--code", required=True)
    p.add_argument("--subcode", required=True)
    common(p)
    p.set_defaults(func=_cmd_maximal)

    p = sub.add_parser("cutting", help="is a subspace a cutting r-blocking set?")
    p.add_argument("--field")
    p.add_argument("--subspace", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--route", default="evasive",
                   choices=["definition", "prop21", "evasive", "all"])
    common(p)
    p.set_defaults(func=_cmd_cutting)

    p = sub.add_parser("evasive", help="is a subspace (h,t)-evasive?")
    p.add_argument("--field")
    p.add_argument("--subspace", required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_evasive)

    p = sub.add_parser("evasive-max",
                       help="largest dimension of an (h,t)-evasive subspace")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int)
    common(p, strict=False)
    p.set_defaults(func=_cmd_evasive_max)

    p = sub.add_parser("linearity", help="linearity index of an F-subspace")
    p.add_argument("--field")
    p.add_argument("--subspace", required=True)
    common(p, strict=False)
    p.set_defaults(func=_cmd_linearity)

    p = sub.add_parser("count", help="exact counts (q-binomials, censuses)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kind", default="auto",
                   choices=["auto", "qbinom", "qdelta", "r-minimal"])
    common(p, strict=False)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("bounds", help="length bounds for r-minimal codes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    common(p, strict=False)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("omega",
                       help="exhaustive minimal cutting-set dimension")
    p.add_argument("--field", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--dim-cap", type=int)
    p.add_argument("--budget", type=int,
                   help="node cap (subspaces visited)")
    p.add_argument("--time-budget", type=float,
                   help="wall-clock cap in seconds")
    p.add_argument("--threads", type=int)
    p.add_argument("--cert-out", help="write the certificate JSON here")
    p.add_argument("--scan-dim", type=int,
                   help="scan a single dimension instead of searching")
    p.add_argument("--shards", type=int,
                   help="with --scan-dim: total shard count (default 1)")
    p.add_argument("--shard-index", type=int,
                   help="with --scan-dim: this shard's index (default 0)")
    common(p, strict=False)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("census", help="enumerate all [n,k] codes")
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--wt", type=int)
    p.add_argument("--constant-weight", type=int)
    p.add_argument("--budget", type=int)
    common(p, strict=False)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(suite_names()))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", action="append",
                   help="tower spec (repeatable; default trio)")
    p.add_argument("--timings", action="store_true",
                   help="include wall time in JSON output")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return top


def run_command(argv: Sequence[str]) -> int:
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)  # exact counts may run past the 4300-digit str() limit
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # main maps a closed stdout to EXIT_PIPE
    except (ValueError, OSError) as exc:
        # every input error class of the package subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's final flush to
        # devnull and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
