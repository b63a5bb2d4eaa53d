"""Workload inputs and output oracles for the rankmin benchmark.

Every workload is one or more ``rankmin`` CLI command lines.  The seed S
picks the extension modulus of the omega-q2, scan-q3 and census-q8 towers
from the monic irreducibles of degree m over GF(p), listed in ascending
order of their low coefficients (c0 most significant); the certified
results do not depend on that choice, but run time can, so a parent and a
change are compared on the same S.  verify-mix does not depend on S.

The oracles check the outputs of a job and return a list of mismatches;
an empty list means the job's answer is right.  They are computed outside
the timed region.
"""

from __future__ import annotations

import itertools
import json
from typing import List, Optional, Sequence, Tuple

WORKLOADS = ("omega-q2", "scan-q3", "census-q8", "verify-mix")

# Placeholder in omega-q2's argv, replaced by a per-job file path.
CERT_PLACEHOLDER = "{cert}"

# verify-mix runs every suite on the default towers with this suite seed.
# On a shared 2-core VM the job's cost ranged from 4.6 s to 12.6 s over
# suite seeds 0..5, and from 8.9 s to 11.0 s over the six modulus choices
# for the GF(8) and GF(9) towers at suite seed 0; either spread is as wide
# as the bounds, so S picks neither.
VERIFY_SUITE_SEED = 0
VERIFY_TRIALS = 60


def irreducible_moduli(p: int, m: int) -> List[Tuple[int, ...]]:
    """Monic irreducibles of degree m over GF(p), ascending coefficients.

    Each candidate is validated by ``make_field``, which raises
    ``NonIrreducible`` on a reducible modulus.
    """
    from rankmin.fields import NonIrreducible, make_field

    out = []
    for low in range(p ** m):
        digits = [(low // p ** (m - 1 - i)) % p for i in range(m)]
        poly = tuple(digits) + (1,)
        try:
            make_field(p, m, ext_poly=poly)
        except NonIrreducible:
            continue
        out.append(poly)
    return out


def field_spec(p: int, m: int, seed: int) -> str:
    """Tower spec GF(p^m)/GF(p) whose modulus the seed picks."""
    moduli = irreducible_moduli(p, m)
    poly = moduli[seed % len(moduli)]
    return f"p={p},e=1,m={m},ext=" + ",".join(str(c) for c in poly)


def workload_threads(workload: str) -> int:
    return 2 if workload == "omega-q2" else 1


def commands(workload: str, seed: int,
             threads: Optional[int] = None) -> List[List[str]]:
    """The CLI command lines one job of the workload runs, in order.

    ``threads`` overrides omega-q2's worker count (the traced run uses 1).
    """
    if workload == "omega-q2":
        n = threads if threads is not None else workload_threads(workload)
        return [["omega", "--field", field_spec(2, 3, seed), "--k", "3",
                 "--r", "1", "--threads", str(n), "--json",
                 "--cert-out", CERT_PLACEHOLDER]]
    if workload == "scan-q3":
        return [["omega", "--field", field_spec(3, 2, seed), "--k", "3",
                 "--r", "1", "--scan-dim", "4", "--shards", "8",
                 "--shard-index", "1", "--threads", "1", "--json"]]
    if workload == "census-q8":
        return [["census", "--field", field_spec(2, 3, seed), "--n", "4",
                 "--k", "2", "--r", "1", "--constant-weight", "1",
                 "--json"]]
    if workload == "verify-mix":
        from rankmin.suites import suite_names

        return [["verify", "--suite", name, "--trials", str(VERIFY_TRIALS),
                 "--seed", str(VERIFY_SUITE_SEED), "--strict", "--json"]
                for name in sorted(suite_names())]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Oracles.  Expected values come from closed forms computed here, not from
# the program under test.
# ---------------------------------------------------------------------------


def gaussian_binomial(q: int, n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def shard_visits(q: int, ambient: int, d: int, shards: int,
                 shard_index: int) -> int:
    """Subspaces in one shard of the ``subspace-enum/1`` order: pivot sets
    in lexicographic order, split into ceil-sized contiguous ranges, each
    pivot set contributing q^(free cells) subspaces."""
    pivot_sets = list(itertools.combinations(range(ambient), d))
    per = -(-len(pivot_sets) // shards)
    total = 0
    for pivots in pivot_sets[shard_index * per:(shard_index + 1) * per]:
        free = sum(ambient - 1 - p - (d - 1 - i) for i, p in enumerate(pivots))
        total += q ** free
    return total


OMEGA_Q2_VALUE = 6
OMEGA_Q2_EXHAUSTED = gaussian_binomial(2, 9, 5)        # 3,309,747
SCAN_Q3_VISITED = shard_visits(3, 6, 4, 8, 1)          # 1,458
CENSUS_Q8_TOTAL = gaussian_binomial(8, 4, 2)           # 4,745
CENSUS_Q8_R_MINIMAL = 3720
CENSUS_Q8_WEIGHTS = {"2": 35, "3": 990, "4": 3720}


def _expect(errors: List[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def _parse_lines(stdout: str, errors: List[str]) -> List[dict]:
    objs = []
    for line in stdout.splitlines():
        if not line.strip():
            continue
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError:
            errors.append(f"output line is not JSON: {line[:80]!r}")
    return objs


def check_job(workload: str, seed: int, cmds: Sequence[Sequence[str]],
              stdout: str, exit_codes: Sequence[int],
              cert_text: Optional[str] = None) -> List[str]:
    """Every mismatch between a finished job and the oracle."""
    errors: List[str] = []
    if list(exit_codes) != [0] * len(cmds):
        errors.append(f"exit codes {list(exit_codes)}, expected all 0")
    objs = _parse_lines(stdout, errors)
    if len(objs) != len(cmds):
        errors.append(f"{len(objs)} JSON outputs for {len(cmds)} commands")
        return errors
    if workload == "omega-q2":
        _check_omega(errors, cmds[0], objs[0], cert_text)
    elif workload == "scan-q3":
        obj = objs[0]
        _expect(errors, "visited", obj.get("visited"), SCAN_Q3_VISITED)
        _expect(errors, "witness", obj.get("witness", "missing"), None)
        _expect(errors, "dimension", obj.get("dimension"), 4)
        _expect(errors, "shard", (obj.get("shards"), obj.get("shard_index")),
                (8, 1))
    elif workload == "census-q8":
        counts = objs[0].get("counts", {})
        formulas = objs[0].get("formulas", {})
        _expect(errors, "total", counts.get("total"), CENSUS_Q8_TOTAL)
        _expect(errors, "total_formula", formulas.get("total_formula"),
                counts.get("total"))
        _expect(errors, "r_minimal", counts.get("r_minimal"),
                CENSUS_Q8_R_MINIMAL)
        _expect(errors, "r_minimal_formula",
                formulas.get("r_minimal_formula"), counts.get("r_minimal"))
        _expect(errors, "weight_distribution",
                counts.get("weight_distribution"), CENSUS_Q8_WEIGHTS)
    elif workload == "verify-mix":
        for cmd, obj in zip(cmds, objs):
            name = cmd[cmd.index("--suite") + 1]
            _expect(errors, f"suite {name}",
                    (obj.get("suite"), obj.get("passed")), (name, True))
    else:
        errors.append(f"no oracle for workload {workload!r}")
    return errors


def _check_omega(errors: List[str], cmd: Sequence[str], obj: dict,
                 cert_text: Optional[str]) -> None:
    from rankmin.fields import parse_field_spec
    from rankmin.geometry import is_cutting
    from rankmin.linalg import Subspace

    _expect(errors, "value", obj.get("value"), OMEGA_Q2_VALUE)
    exhaustion = (obj.get("exhaustion_certificate") or {}).get(
        "exhaustion") or {}
    _expect(errors, "exhaustion dimension", exhaustion.get("dimension"),
            OMEGA_Q2_VALUE - 1)
    _expect(errors, "exhaustion total_visited",
            exhaustion.get("total_visited"), OMEGA_Q2_EXHAUSTED)
    if cert_text is None:
        errors.append("no certificate file written")
    else:
        try:
            cert = json.loads(cert_text)
        except json.JSONDecodeError:
            errors.append("certificate file is not JSON")
        else:
            if cert != obj:
                errors.append("certificate file differs from --json output")
    witness = (obj.get("witness_certificate") or {}).get("witness")
    if not witness:
        errors.append("no witness in the witness certificate")
        return
    tower = parse_field_spec(cmd[cmd.index("--field") + 1])
    k = int(cmd[cmd.index("--k") + 1])
    r = int(cmd[cmd.index("--r") + 1])
    try:
        sub = Subspace.from_json(tower, witness)
        ok = (sub.dim == OMEGA_Q2_VALUE
              and is_cutting(tower, k, sub, r, route="all").verdict)
    except (ValueError, KeyError, TypeError, AssertionError) as exc:
        errors.append(f"witness does not re-verify: {exc!r}")
        return
    if not ok:
        errors.append("witness is not a cutting set of the stated dimension")
