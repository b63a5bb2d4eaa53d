"""Verifiable computations with minimal rank-metric codes, cutting
blocking sets and evasive subspaces over GF(q^m)/GF(q)."""

from .combinatorics import (
    CountReport,
    OmegaBounds,
    count_r_minimal,
    evasive_bound_certifies,
    omega_bounds,
    qbinom,
    qdelta,
    weierstrass_checks,
)
from .fields import (
    BadBasis,
    FieldTower,
    NonIrreducible,
    make_field,
    parse_field_spec,
)
from .geometry import (
    CuttingVerdict,
    PreconditionViolated,
    avoid_complement,
    is_cutting,
    is_evasive,
    linearity_index,
)
from .linalg import (
    AmbientMismatch,
    CertificateError,
    Subspace,
    enumerate_subspaces,
    flatten_subspace,
    rref,
)
from .minimality import (
    MethodInapplicable,
    MinimalityVerdict,
    constant_weight_class,
    is_r_minimal,
    is_rank_minimal,
    is_sigma_maximal,
)
from .rank_metric import (
    RankCode,
    chi,
    chi_code,
    column_support,
    drop_weight_subcode,
    grw,
    grw_sequence,
    max_subcode_weight,
    rank_support,
    subcode_weight,
    support_code,
    weight,
)
from .search import (
    BudgetExceeded,
    census_codes,
    max_evasive_dim,
    omega_exhaustive,
)
from .suites import SuiteReport, UnknownSuite, run_suite, suite_names

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch", "BadBasis", "BudgetExceeded", "CertificateError",
    "CountReport", "CuttingVerdict", "FieldTower", "MethodInapplicable",
    "MinimalityVerdict", "NonIrreducible",
    "OmegaBounds", "PreconditionViolated", "RankCode", "Subspace",
    "SuiteReport", "UnknownSuite", "avoid_complement", "census_codes",
    "chi", "chi_code", "column_support", "constant_weight_class",
    "count_r_minimal", "drop_weight_subcode", "enumerate_subspaces",
    "evasive_bound_certifies", "flatten_subspace", "grw", "grw_sequence",
    "is_cutting", "is_evasive", "is_r_minimal", "is_rank_minimal",
    "is_sigma_maximal", "linearity_index", "make_field", "max_evasive_dim",
    "max_subcode_weight", "omega_bounds", "omega_exhaustive",
    "parse_field_spec", "qbinom", "qdelta", "rank_support", "rref",
    "run_suite", "subcode_weight", "suite_names", "support_code",
    "weierstrass_checks", "weight",
]
