"""Constructive commutator decompositions of trace-zero matrices and
matrix-valued fields, plus exact cohomological obstruction certificates."""

from .errors import InvalidInputError, NumericsError, PreconditionError
from .matcore import (
    BoundCheck,
    CommutatorDecomposition,
    EigenSystem,
    VerificationReport,
    commutator,
    hermitian_eig,
    operator_norm,
    verify_decomposition,
)
from .obstruct import (
    BundleExpr,
    ObstructionCertificate,
    SquareFreeClass,
    TowerSpec,
    distance_lower_bound_cert,
    euler_class,
    obstruction_certificate,
    pp_example,
    sqfree_mul,
    villadsen_tower,
)
from .ozfield import (
    SimplicialComplex,
    SimplicialField,
    SqrtWeightedFactor,
    VertexColoring,
    barycentric_subdivide,
    decompose_field,
    greedy_coloring,
    is_trace_zero_field,
    phi_k,
    psi_k,
)
from .selfcomm import (
    PartialSumOrder,
    collapse_orthogonal,
    greedy_nonneg_order,
    self_commutator_decompose,
    signed_order,
    tight_commutator_decompose,
)
from .towers import (
    CuntzWitness,
    ElementSpectrum,
    PushStepResult,
    Support,
    TowerModel,
    block_two_commutator_split,
    cuntz_witness,
    make_block_tower,
    push_step,
    tower_iterate,
)

__version__ = "0.1.0"
