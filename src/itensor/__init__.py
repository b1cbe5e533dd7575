"""Structured tensor classes and their interval families.

Point-level checks (B, double B, Z, diagonal domination, circulant row
criterion, P sufficiency and falsification) live in :mod:`itensor.classify`;
interval-family criteria in :mod:`itensor.interval_classify`; the dense
tensor and interval data models in :mod:`itensor.tensor` and
:mod:`itensor.interval`; vertex-exhaustive ground truth and the
cross-validation suite in :mod:`itensor.oracle`.

All of them return one verdict type, :class:`Verdict`, and
:func:`itensor.classify.verdict_report` is its one report writer.
"""

__version__ = "0.1.0"

from .tensor import (  # noqa: F401
    Tensor,
    make_tensor,
    zeros,
    diagonal_tensor,
    row_view,
    row_sum,
    gamma_plus,
    tensor_apply,
    sign_transform,
    is_symmetric,
    is_circulant,
    circulant_from_first_row,
    row_mix,
    tensor_to_json,
    tensor_from_json,
)
from .classify import (  # noqa: F401
    Status,
    Witness,
    Verdict,
    FalsifyResult,
    DoubleBDichotomy,
    DichotomyAnomaly,
    check_b,
    check_dd,
    check_z,
    check_double_b,
    classify_double_b_dichotomy,
    check_b_circulant,
    p_sufficient,
    falsify_p,
)
from .interval import (  # noqa: F401
    IntervalTensor,
    BudgetExceeded,
    make_interval,
    degenerate_interval,
    midpoint_radius,
    contains,
    is_interval_z,
    is_symmetric_interval,
    extreme_prime,
    extreme_single_raise,
    extreme_double_raise,
    extreme_row_max_except,
    extreme_hat,
    reduce_via_K,
    vertex_count,
    vertex_iter,
    interval_to_json,
    interval_from_json,
)
from .interval_classify import (  # noqa: F401
    ConditionRecord,
    IntervalDichotomy,
    NecessaryReport,
    check_interval_b,
    check_interval_b_zfast,
    interval_b_necessary,
    check_interval_double_b,
    classify_interval_double_b_dichotomy,
    interval_double_b_necessary,
    check_interval_double_b_dominance,
    check_interval_double_b_zfast,
    check_interval_double_b_hat_sufficient,
    check_interval_circulant,
    interval_p_sufficient,
)
from .oracle import (  # noqa: F401
    GeneratorSpec,
    SuiteReport,
    oracle_interval_b,
    oracle_interval_double_b,
    random_interval_tensor,
    random_member,
    boundary_interval,
    critical_row_tensor,
    equivalence_suite,
)
