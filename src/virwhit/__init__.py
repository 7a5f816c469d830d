"""Exact computations in Virasoro Verma and universal Whittaker modules.

Everything runs over arbitrary-precision rationals: PBW normal ordering,
Verma-module actions, Shapovalov Gram matrices with certified p-adic solves,
Gaiotto and BMT states as level-truncated dual forms and as raised module
vectors, and the explicit Whittaker-vector families of the universal
modules, all verified by exact residual checks.
"""

from .rational import format_rational, parse_rational
from .virasoro import (
    ContextMismatchError,
    EnvelopingElement,
    Word,
    bracket,
    commutator,
    generator,
    multiply,
    normal_order,
    unit,
)
from .verma import (
    Partition,
    VermaContext,
    VermaVector,
    act,
    basis_change,
    basis_vector,
    enumerate_partitions,
    highest_weight_vector,
    partition_exponents,
)
from .shapovalov import GramMatrix, SingularGramError, gram, solve
from .whittaker import (
    IndexOutsideSubalgebraError,
    ResidualCheck,
    VerificationReport,
    WhittakerType1N,
    WhittakerTypeR,
)
from .forms import (
    CutoffExceededError,
    DualForm,
    act_on_form,
    bmt_form,
    bmt_special_form,
    check_L0_Li_on_basic,
    convert_form,
    eval_form,
    gaiotto_basic_form,
    gaiotto_form,
    raise_indices,
    verify_whittaker_form,
    verify_whittaker_state,
    whittaker_form_nullspace,
)
from .universal import (
    NotClassifiedError,
    PseudoPartition,
    SearchResult,
    UniversalVector,
    act_universal,
    check_lemma_bounds,
    dot_act,
    example_n5,
    family_w_1_l_n,
    family_w_l_2,
    family_w_l_2_n,
    nilpotency_index,
    search_whittaker,
    verify_whittaker_vector,
    whittaker_subspace_level0,
)

__version__ = "0.1.0"
