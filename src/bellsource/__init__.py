"""Exact simulator and analysis toolkit for a bipartite entangled-pair source.

Builds the source states, applies the post-control distortion
parameterization, performs the non-local Bell-basis characterization
measurement, and solves the forward (population prediction) and inverse
(parameter inference, population steering) problems.
"""

from .characterize import (
    MeasurementRecord,
    Populations,
    PopulationTable,
    SpeciesMoments,
    circuit_outcome_distribution,
    circuit_realization,
    nonlocal_bell_measurement,
    populations_analytic,
    populations_exact,
    run_characterization_circuit,
    sample_histogram,
    species_moments,
    table_populations,
)
from .control import (
    ControlError,
    DegenerateSteeringError,
    EmissionEstimate,
    InfeasibleError,
    RegionArrays,
    RegionPoint,
    SingularSystemError,
    SteeringSolution,
    UnidentifiableSourceError,
    feasible,
    infer_ndelta,
    infer_parameters,
    region_arrays,
    region_grid,
    solve_ndelta,
)
from .distortion import (
    BestRational,
    ControlKnob,
    FieldParams,
    HamiltonianMatrix,
    RationalProvenance,
    controlled_emission,
    controlled_psi1,
    controlled_psi2,
    evolve,
    hamiltonian,
    j_parameter,
    rational_approx,
    small_mismatch_estimate,
)
from .source import (
    ComponentStates,
    DegenerateSourceError,
    SourceSpec,
    component_states,
    emitted_state,
    psi1,
    psi2,
    superpose_species,
)
from .statevec import (
    BELL_LABELS,
    CNOT,
    HADAMARD,
    BellLabel,
    PureState,
    UnitaryMatrix,
    ZeroProbabilityError,
    apply_unitary,
    basis_state,
    bell_coefficients,
    bell_state,
    collapse_qubits,
    expand_unitary,
    fidelity_up_to_phase,
    measure_qubits,
    sample_measurements,
    tensor,
)

__version__ = "0.1.0"
