"""Every search and enumeration limit of the package, in one place.

Each limit is checked in the one function named beside it, which reads
``limits.NAME`` when called, so a test can move a limit with
``monkeypatch.setattr(limits, NAME, value)``.  A stop raises BoundExceeded
through ``enforce``, whose message starts with the limit's name, so every
"undecided" reason built from it says which limit to raise.
"""

from __future__ import annotations

from decimal import Decimal

from .errors import BoundExceeded

MULTIPARTITE_BOUND = 64  # vertices: graphs.complete_multipartite
CHROMATIC_BOUND = 16  # vertices without parts: graphs.find_coloring
ENUMERATION_BOUND = 30  # weight k: partitions.enumerate_partitions
HASSE_BOUND = 12  # weight k: partitions.refinement_hasse
GROUPED_BOUND = 24  # colors n*k per uncapped row: streams.grouped_chunks
CHOICE_CAP = 2_000_000  # k^n vectors or t^P maps: bulk.colorable_mask,
#   and grid points: listcolor._graph_coefficient
AT_VECTORS = 500  # exponent vectors tried: listcolor.alon_tarsi
PARTITION_GENERIC_BOUND = 200_000  # t^n: lambdacolor.lambda_partitionable
PROSPECT_ROWS = 200_000  # capped rows read: lambdacolor._prospect_bad_row
READ_VERTEX_BOUND = 1024  # vertices of a graph file: serialize.graph_from_json


def enforce(name: str, size: int, what: str) -> None:
    """Raise BoundExceeded, naming the limit, when size is over it.

    A size of more than 15 digits is written with four significant
    digits, rounded exactly from the int (2^1024 as ``1.798e+308``).
    """
    limit = globals()[name]
    if size > limit:
        got = f"{Decimal(size):.3e}" if size >= 10 ** 15 else size
        raise BoundExceeded(f"{name}: {what} is bounded at {limit}, "
                            f"got {got}")
