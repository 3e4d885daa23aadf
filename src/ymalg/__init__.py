"""ymalg: exact symbolic computations in Yang-Mills Lie algebras ym(n).

Free Lie algebra arithmetic in a Lyndon basis over Q(i), graded quotient
dimensions, generator-defined morphism verification (doubling, Witt and
Virasoro quotients, the sl(3) example, the sl(2) case analysis of ym(3)),
and Kac-Moody realization data.

The exported names are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules actually needed.
"""

from importlib import import_module

_EXPORTS = {
    "free_lie": """DEFAULT_DEGREE_CAP DegreeCapExceeded FreeLieElement FreeTarget
        GradedDims LyndonWord bracket free_lie_dim is_lyndon lyndon_basis
        standard_factorization""",
    "kac_moody": """GcmCheck MatrixData RealizationOfMatrix build_realization
        is_generalized_cartan pairing_matrix verify_realization
        ym_quotient_bound""",
    "morphisms": """AuditReport GeneratorMorphism MorphismAnalysis
        Sl2CaseConditions Sl2CaseParameters analyze_sl2_morphism
        assemble_sl2_morphism case_oracle_mismatches doubling_morphism
        isotropic_orthogonal_witness pair_to_ym4_morphism projection_morphism
        solvable_image_audit solvable_non_nilpotent_example sl2_case_residual
        yu_morphism""",
    "linalg": "Subspace",
    "scalars": "GaussianRational parse_scalar",
    "targets": """ImageAnalysis SeriesReport StructureConstantAlgebra
        WindowReport WittElement WittTarget algebra_from_json analyze_image
        generated_window heisenberg series_analysis sl_algebra
        subalgebra_closure witt_bracket witt_c witt_e""",
    "ym_quotient": """Presentation dims_table dims_table_csv
        ideal_graded_component ideal_membership_by_degree is_zero_in_ym
        strong_relation_elements ym_dim ym_graded_dims ym_relations""",
}

# exported name -> the module that defines it
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names.split()
}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
