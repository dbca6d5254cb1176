"""Verification workbench for multiplicative maps on finite rings.

Builds finite rings (integers mod n, their Gaussian extensions, k x k
matrix rings) as dense Cayley tables, decides when multiplicative maps
between them are ring or star homomorphisms, and exhaustively checks the
constructive identities behind those equivalences at desk scale.
"""

from .errors import (
    DEFAULT_SIZE_CAP,
    MapFormatError,
    MatsemiError,
    MissingImaginaryUnit,
    MissingInvolution,
    NotAMatrixRing,
    NotAUnit,
    PreconditionFailed,
    RingSpecError,
    SizeCapExceeded,
    SizeMismatch,
    effective_size_cap,
)
from .rings import (
    MatrixRingView,
    RingTable,
    make_gaussian,
    make_matrix_ring,
    make_zmod,
    parse_ring_spec,
    sum_of_units_decompose,
    unitaries,
    units,
    validate_matrix_view,
    validate_ring,
)

__all__ = [
    "DEFAULT_SIZE_CAP",
    "MapFormatError",
    "MatsemiError",
    "MatrixRingView",
    "MissingImaginaryUnit",
    "MissingInvolution",
    "NotAMatrixRing",
    "NotAUnit",
    "PreconditionFailed",
    "RingSpecError",
    "RingTable",
    "SizeCapExceeded",
    "SizeMismatch",
    "effective_size_cap",
    "make_gaussian",
    "make_matrix_ring",
    "make_zmod",
    "parse_ring_spec",
    "sum_of_units_decompose",
    "unitaries",
    "units",
    "validate_matrix_view",
    "validate_ring",
]
