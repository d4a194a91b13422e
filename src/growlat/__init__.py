"""Growing spring lattices: Cauchy-Born continuum energies, the additive
energy-deformation decomposition of growth, discrete relaxation under
affine boundary data, and least-squares homogenisation of growth."""

from .springs import (
    PowerProfile,
    SpringLaw,
    profile_energy,
)
from .lattice import (
    Connectivity,
    FiniteLatticeSample,
    GrowthScenario,
    HomogeneousLattice,
    OrderResult,
    apply_growth,
    build_sample,
    chain_connectivity,
    checkerboard_growth,
    homogeneous_growth,
    lattice_order,
    no_growth,
    square_connectivity,
    square_lattice,
    uniform_growth,
)
from .continuum import (
    AdmissibilityResult,
    Decomposition,
    ErrorMap,
    GroundState,
    GroundStateError,
    cauchy_born_energy,
    cauchy_born_energy_many,
    cauchy_born_gradient,
    cauchy_born_hessian,
    decompose,
    extend_to_basis,
    fractional_error_map,
    ground_state,
    growth_tensors,
    is_shear,
    multiplicative_admissible,
    rotation,
    shear_family,
    shear_witness_order1,
    square_partition_choices,
    upper_triangular,
)
from .solver import (
    AffineBoundary,
    ConvergenceError,
    GrowthProfile,
    SolveReport,
    SolverOptions,
    constant_growth,
    linear_growth,
    one_d_chain,
    relax_branch,
    one_d_chain_energy,
    one_d_continuum_energy,
    total_energy,
)
from .homogenize import (
    DeformationFamily,
    FitResult,
    GrowthAnsatz,
    fit_growth,
    fit_rest_lengths,
    fitted_representative,
    measured_energies,
    sample_family,
)

__version__ = "0.1.0"
