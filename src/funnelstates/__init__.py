"""Excitation states, transition probabilities and primitive observables
on finite matrix-algebra towers."""

from .errors import (
    BudgetError,
    CapacityError,
    CompletenessUnavailableError,
    ConfigurationError,
    ContractError,
    DegenerateExcitationError,
    DegenerateSuperpositionError,
    FaithfulnessError,
    FunnelError,
    GenericityViolationError,
    NotNullCombinationError,
    NotSameRayError,
    SamplingError,
    TuningFailureError,
)
from .funnel import (
    FunnelTower,
    GenericState,
    LocalOperator,
    build_tower,
    check_genericity,
    minimal_extension_projection,
    relative_commutant_basis,
    sample_generic_state,
)
from .excitations import (
    ExcitationState,
    find_null_combination,
    lift_phase,
    make_excitation,
    identity_excitation,
    norm_distance,
    overlap,
    superpose,
)
from .transitions import (
    OrthogonalFamily,
    build_complete_family,
    completeness_sum,
    transition_probability,
    uhlmann_fidelity,
)
from .statealgebra import (
    StateAlgebraElement,
    bimodule_act,
    dagger,
    dual_state_apply,
    element_from_terms,
    excitation_element,
    faithfulness_probe,
    gns_inner,
    kernel_distance,
    spectral_decompose,
    times,
    w_isomorphism,
)
from .primitives import (
    PartialIsometry,
    PrimitiveObservable,
    apply_observable,
    clock_and_shift,
    commensurable,
    dilate_to_unitaries,
    increasing_projection_schedule,
    recover_observable,
    tune_detector,
    tuned_isometries,
    ut_probability,
    ut_unitary,
    vacuum_detector,
)

__version__ = "0.1.0"
