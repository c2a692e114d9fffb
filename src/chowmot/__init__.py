"""Exact intersection calculus, characteristic classes, K-theory shadows,
and Chow motives on finite products of projective spaces.

The engine is built in layers: `ring` under `corr` and `chern`, `kshadow`
over both, `motives` over `kshadow`, and `verify` and `cli` on top.  The
names below are exported from the package but loaded on first access
(PEP 562), so importing `chowmot` loads no layer, and a caller pays only
for the layers it uses.  Each access reads the name from its home module.
"""

import importlib
import sys

_HOMES = {
    "chern": (
        "BundleClass", "chern_character", "exp_nilpotent", "line_bundle", "power_sums",
        "series_inverse", "sqrt_todd", "tangent_class", "todd_class", "todd_series_coefficients",
    ),
    "corr": (
        "FactorSelection", "GradedCorrespondence", "compose_graded", "diagonal_class",
        "diagonal_pushforward", "external_product", "permute_factors",
    ),
    "errors": (
        "ChowError", "DomainMismatchError", "InvalidInputError", "PreconditionError",
        "SingularSeriesError", "SupportConditionError",
    ),
    "kshadow": (
        "KKernel", "chow_image", "euler_characteristic", "identity_kernel", "k_compose",
    ),
    "motives": (
        "FormalSum", "FormalSumMorphism", "Motive", "MotiveMorphism", "OrbitMorphism",
        "OrlovReport", "compatibility_check", "compose_motive", "degree_zero_rigidify", "dual",
        "lefschetz_motive", "motive_of", "orbit_compose", "orlov_pipeline", "split_idempotent",
        "tate_twist", "tensor", "tensor_morphism", "unit_motive", "zero_motive",
    ),
    "ring": ("Cycle", "Variety", "make_variety"),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules.get(home) or importlib.import_module(home), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
