"""aolab: numerical lab for unitarity criteria of algebraic matrices.

Decomposes square complex matrices into generalized eigenspaces, decides
the equivalent unitarity conditions (unitary / normaloid / contraction /
convergent orbit norms), classifies power-orbit growth, certifies the
polynomial norm-growth bound, and generates the example and
counterexample families used by the property suites.
"""

from .config import RunConfig
from .criteria import (
    Analysis,
    CriteriaReport,
    OrbitRecord,
    ScalarSeqVerdict,
    is_normaloid,
    is_power_bounded,
    is_unitary,
    orbit_analyze,
    scalar_re_sequence,
    theorem_check,
)
from .errors import (
    AolabError,
    DecompositionError,
    IllConditionedSpectrumError,
    InconsistencyError,
    InvalidInputError,
    NumericalFailureError,
    OutOfScopeError,
    SizeError,
)
from .linalg import (
    MAX_DIM,
    SpectrumInfo,
    matrix_from_obj,
    matrix_to_obj,
    operator_norm,
    rank,
    spectral_radius,
    spectrum,
)
from .stability import (
    GrowthBound,
    StabilityVerdict,
    growth_bound,
    normal_limit,
    normaloid_equivalence,
    orbit_root_limit,
    uniform_stability,
)
from .structure import (
    Decomposition,
    MinimalPoly,
    decompose,
    minimal_polynomial,
    restriction_spectra,
)

__version__ = "0.1.0"
