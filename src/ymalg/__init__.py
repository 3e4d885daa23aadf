"""ymalg: exact symbolic computations in Yang-Mills Lie algebras ym(n).

Free Lie algebra arithmetic in a Lyndon basis over Q(i), graded quotient
dimensions, generator-defined morphism verification (doubling, Witt and
Virasoro quotients, the sl(3) example, the sl(2) case analysis of ym(3)),
and Kac-Moody realization data.
"""

from .free_lie import (
    DEFAULT_DEGREE_CAP,
    DegreeCapExceeded,
    FreeLieElement,
    GradedDims,
    LyndonWord,
    bracket,
    free_lie_dim,
    is_lyndon,
    lyndon_basis,
    scalar_combine,
    standard_factorization,
)
from .kac_moody import (
    GcmCheck,
    MatrixData,
    RealizationOfMatrix,
    build_realization,
    is_generalized_cartan,
    pairing_matrix,
    verify_realization,
    ym_quotient_bound,
)
from .morphisms import (
    AuditReport,
    FreeTarget,
    GeneratorMorphism,
    MorphismAnalysis,
    Sl2CaseConditions,
    Sl2CaseParameters,
    analyze_sl2_morphism,
    assemble_sl2_morphism,
    case_oracle_mismatches,
    doubling_morphism,
    isotropic_orthogonal_witness,
    pair_to_ym4_morphism,
    projection_morphism,
    solvable_image_audit,
    solvable_non_nilpotent_example,
    sl2_case_residual,
    yu_morphism,
)
from .linalg import Subspace
from .scalars import GaussianRational, parse_scalar
from .targets import (
    ImageAnalysis,
    SeriesReport,
    StructureConstantAlgebra,
    TargetElement,
    WindowReport,
    WittElement,
    WittTarget,
    algebra_from_json,
    analyze_image,
    generated_window,
    heisenberg,
    series_analysis,
    sl_algebra,
    subalgebra_closure,
    witt_bracket,
    witt_c,
    witt_e,
)
from .ym_quotient import (
    YangMillsPresentation,
    dims_table,
    dims_table_csv,
    ideal_graded_component,
    ideal_membership_by_degree,
    is_zero_in_ym,
    strong_relation_elements,
    ym_dim,
    ym_graded_dims,
    ym_relations,
)

__version__ = "0.1.0"
