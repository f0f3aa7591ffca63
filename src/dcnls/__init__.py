"""Numerical laboratory for the doubly mass-critical NLS with local and
Hartree nonlinearities: ground states, linearized spectra, blowup profiles,
and time evolution on radial grids.

The public names below load their submodule on first access (PEP 562), so
`import dcnls.cli` does not load numpy before the CLI has set its BLAS
thread cap.
"""

import importlib

_EXPORTS = {
    "grid": ("RadialGrid", "RadialField", "build_grid", "apply_generator"),
    "hartree": ("MultipoleKernel", "build_multipole_kernel", "brute_force_oracle"),
    "groundstate": ("GroundState", "solve_classical_Q", "solve_Q_mu", "minimize_constrained",
                    "functional_report", "perturbation_rate"),
    "linop": ("ChannelOperator", "SpectrumReport", "assemble_channel_operator",
              "lowest_eigenpairs", "solve_with_constraints", "nondegeneracy_report"),
    "profile": ("ProfileSet", "AssembledProfile", "build_hierarchy", "assemble_R",
                "invariant_expansions", "residual_psi"),
    "dynamics": ("EvolutionState", "Trajectory", "ModulationTrace", "make_initial_data",
                 "evolve", "virial_check", "blowup_fit", "modulation_extract"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
