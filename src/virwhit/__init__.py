"""Exact computations in Virasoro Verma and universal Whittaker modules.

Everything runs over arbitrary-precision rationals: PBW normal ordering,
Verma-module actions, Shapovalov Gram matrices with certified p-adic solves,
Gaiotto and BMT states as level-truncated dual forms and as raised module
vectors, and the explicit Whittaker-vector families of the universal
modules, all verified by exact residual checks.

Importing the package loads no submodule: each submodule and each name
exported below is imported on first access (PEP 562).
"""

from importlib import import_module

_EXPORTS = {
    "rational": "format_rational parse_rational",
    "virasoro": "ContextMismatchError EnvelopingElement Word bracket commutator generator"
    " multiply normal_order unit",
    "verma": "Partition VermaContext VermaVector act basis_change basis_vector"
    " enumerate_partitions highest_weight_vector partition_exponents",
    "shapovalov": "GramMatrix SingularGramError gram solve",
    "whittaker": "IndexOutsideSubalgebraError ResidualCheck VerificationReport WhittakerType1N"
    " WhittakerTypeR",
    "forms": "CutoffExceededError DualForm act_on_form bmt_form bmt_special_form"
    " check_L0_Li_on_basic convert_form eval_form gaiotto_basic_form gaiotto_form"
    " raise_indices verify_whittaker_form verify_whittaker_state whittaker_form_nullspace",
    "universal": "NotClassifiedError PseudoPartition SearchResult UniversalVector act_universal"
    " check_lemma_bounds dot_act example_n5 family_w_1_l_n family_w_l_2 family_w_l_2_n"
    " nilpotency_index search_whittaker verify_whittaker_vector whittaker_subspace_level0",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("linalg", *_EXPORTS)

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_SOURCE})
