"""Numerical laboratory for the doubly mass-critical NLS with local and
Hartree nonlinearities: ground states, linearized spectra, blowup profiles,
and time evolution on radial grids."""

from .grid import (
    RadialGrid,
    RadialField,
    build_grid,
    inner_product,
    pair_3d,
    apply_channel_laplacian,
    apply_generator,
)
from .hartree import (
    MultipoleKernel,
    build_multipole_kernel,
    hartree_potential,
    channel_convolve,
    brute_force_oracle,
)
from .groundstate import (
    GroundState,
    solve_classical_Q,
    solve_Q_mu,
    minimize_constrained,
    functional_report,
    perturbation_rate,
)
from .linop import (
    ChannelOperator,
    SpectrumReport,
    assemble_channel_operator,
    lowest_eigenpairs,
    solve_with_constraints,
    nondegeneracy_report,
)
from .profile import (
    ProfileSet,
    AssembledProfile,
    build_hierarchy,
    assemble_R,
    invariant_expansions,
    residual_psi,
)
from .dynamics import (
    EvolutionState,
    Trajectory,
    ModulationTrace,
    CutoffProfile,
    make_initial_data,
    evolve,
    virial_check,
    blowup_fit,
    modulation_extract,
    refined_energy,
)

__version__ = "0.1.0"
