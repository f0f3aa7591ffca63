"""Numerical laboratory for the doubly mass-critical NLS with local and
Hartree nonlinearities: ground states, linearized spectra, blowup profiles,
and time evolution on radial grids.

The public names live in the submodules (`grid`, `hartree`, `groundstate`,
`linop`, `profile`, `dynamics`, `cli`), each listing its own in `__all__`.
Importing the package loads none of them, so `import dcnls.cli` does not
load numpy before the CLI has set its BLAS thread cap.
"""

__version__ = "0.1.0"
