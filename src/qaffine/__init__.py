"""Sequential affine transformations on quantum statevector amplitudes.

Core pieces: a dense statevector simulator, unitary dilation of contractions
(block encoding), Hadamard-supported add/subtract stages, the sequential
affine pipeline with its exact 2^k amplitude ledger, a homogeneous-coordinate
single-dilation baseline, gate synthesis for cost comparison, and two worked
applications (portfolio superposition, frequency-domain signal filtering).
"""

from .addsub import (
    AddSubResult,
    hadamard_addsub_fresh,
    hadamard_addsub_inplace,
)
from .apps import (
    PortfolioSpec,
    SignalSpec,
    portfolio_circuit,
    portfolio_closed_form,
    portfolio_estimate,
    portfolio_alternate_form,
    qft,
    random_two_tone,
    signal_filter,
    two_tone_samples,
)
from .baseline import AugmentedAffine, build_augmented, run_augmented
from .blockenc import BlockEncoding, block_encode
from .circuits import (
    HADAMARD,
    PAULI_X,
    SWAP,
    Gate,
    GateList,
    apply_gate,
    apply_gates,
    block,
    cnot,
    dagger,
    gatelist_matrix,
    inverted,
    phase_gate,
    run_gatelist,
    single,
    with_control,
)
from .errors import (
    CapacityError,
    ContractionError,
    EncodingError,
    InvalidInputError,
    MissingWitnessError,
    NormalizationError,
    PreconditionError,
    QAffineError,
    QubitIndexError,
    SchemaError,
    ShapeError,
    UnitarityError,
)
from .linalg import (
    as_matrix,
    as_vector,
    completion_unitary,
    is_unitary,
)
from .pipeline import (
    AffineSequence,
    AffineStep,
    PipelineResult,
    RescaledTranslation,
    apply_affine_step,
    classical_affine_compose,
    extract_result,
    rescale_translation,
    run_pipeline,
)
from .simulator import (
    MAX_QUBITS,
    QuantumState,
    ShotHistogram,
    apply_unitary,
    init_amplitudes,
    init_basis,
    prepend_ancilla,
    sample,
)
from .synthesis import (
    GateCountReport,
    compare_methods,
    count_gates,
    lower,
    reconstruction_error,
    synthesize,
)

__version__ = "0.1.0"
