"""Exact choosability tools for grouped list colorings.

The package decides list colorability, k-choosability, and choosability
for grouped list assignments, and settles strict k-colorability of
complete multipartite graphs by two independent routes, every verdict
backed by a machine-checkable certificate.
"""

from .graphs import (
    Graph,
    chromatic_number,
    complete_multipartite,
    contains_parts,
    is_proper,
)
from .lambdacolor import (
    BadAssignmentWitness,
    LambdaAssignment,
    LambdaVerdict,
    PartitionabilityWitness,
    check_bad_witness,
    check_partitionability_witness,
    lambda_choosable,
    lambda_partitionable,
    random_lambda_assignment,
    validate_lambda,
)
from .listcolor import (
    AlonTarsiWitness,
    ChoosabilityVerdict,
    ColoringOutcome,
    alon_tarsi,
    check_alon_tarsi_witness,
    choice_number,
    k_choosable,
    l_color,
    l_color_multipartite,
    two_choosable_fast,
)
from .partitions import (
    IntegerPartition,
    enumerate_partitions,
    format_partition,
    leq,
    near_unit_partition,
    parse_partition,
    unit_partition,
)
from .strict import (
    Case2Transcript,
    StrictDecision,
    case1_partition,
    case2_color,
    decide_strict_cmp,
    decide_strict_search,
    extend_witness,
    hoffman_johnson_enumerate,
    witness_k246,
    witness_k255,
    witness_k3k,
)

__all__ = [
    "AlonTarsiWitness",
    "BadAssignmentWitness",
    "Case2Transcript",
    "ChoosabilityVerdict",
    "ColoringOutcome",
    "Graph",
    "IntegerPartition",
    "LambdaAssignment",
    "LambdaVerdict",
    "PartitionabilityWitness",
    "StrictDecision",
    "alon_tarsi",
    "case1_partition",
    "case2_color",
    "check_alon_tarsi_witness",
    "check_bad_witness",
    "check_partitionability_witness",
    "chromatic_number",
    "choice_number",
    "complete_multipartite",
    "contains_parts",
    "decide_strict_cmp",
    "decide_strict_search",
    "enumerate_partitions",
    "extend_witness",
    "format_partition",
    "hoffman_johnson_enumerate",
    "is_proper",
    "k_choosable",
    "l_color",
    "l_color_multipartite",
    "lambda_choosable",
    "lambda_partitionable",
    "leq",
    "near_unit_partition",
    "parse_partition",
    "random_lambda_assignment",
    "two_choosable_fast",
    "unit_partition",
    "validate_lambda",
    "witness_k246",
    "witness_k255",
    "witness_k3k",
]
