"""Routed quantum circuits: sector-constrained maps, channels and circuits.

The package splits into the boolean route algebra (`relations`),
partitioned Hilbert spaces (`spaces`), routed linear maps (`routed_maps`),
routed CP maps (`routed_cpms`), circuit DAGs with slice analysis
(`circuits`), the index-matching layer (`iodag`) and a JSON document
format with a CLI (`io`, `cli`).
"""

from .errors import (
    DomainMismatch,
    ImproperComposition,
    IncompatibleRestrictions,
    InterfaceMismatch,
    InvalidSlice,
    InvariantViolation,
    LengthMismatch,
    LintFailure,
    NotFullDecoherence,
    NotPracticalIsometry,
    ParseError,
    RoutedError,
    RouteViolation,
    SchemaError,
    ShapeMismatch,
    TypeMismatch,
    UnknownLabel,
    UnknownNode,
    UsageError,
)
from .relations import (
    CPRelation,
    IndexSet,
    Relation,
    compose,
    diagonal,
    full_coherence,
    full_decoherence,
    image,
    is_completely_positive,
    is_proper_for_channels,
    is_proper_for_isometries,
    is_proper_for_unitaries,
    practical_input_set,
    practical_output_set,
    product,
    transpose,
)
from .spaces import PartitionedSpace, SectorRange, projector, tensor, tensor_many
from .routed_maps import (
    RoutedMap,
    checked_compose,
    dagger,
    follows,
    is_practical_isometry,
    is_practical_unitary,
    tensor_map,
)
from .routed_cpms import (
    RoutedCPM,
    adapted_kraus_decomposition,
    checked_compose_channel,
    choi_matrix,
    discard,
    follows_cp,
    is_practically_trace_preserving,
    kraus_follow_diagonal,
    lift_pure,
    tensor_cpm,
)
from .circuits import (
    Box,
    CircuitBuilder,
    RoutedCircuit,
    Slice,
    accessible_space,
    check_circuit,
    circuit_to_dot,
    evaluate,
    formal_space,
)
from .iodag import (
    Corelation,
    IndexFamily,
    Interpretation,
    IODAG,
    IONode,
    Partition,
    bar,
    compose_corelations,
    explain_improper,
    interpret,
    iodag_isomorphic,
    iodag_to_dot,
    lint,
    node_corelation,
    nonforgetting_compose,
    normalize,
    par_compose_iodag,
    preprocessing,
    seq_compose_iodag,
    total_corelation,
)
from .io import CircuitDocument, parse, serialize

__version__ = "0.1.0"
