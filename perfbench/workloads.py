"""The benchmark's workloads and the parameters each seed draws for them.

Stdlib only: run.py imports this module before any numerical library
loads.  Seed 0 gives the acceptance-gate parameters.  Any other seed draws
the couplings of groundstate-4096 and spectra-1536 from ranges on which
every correctness check was verified to hold and which fix the number of
continuation steps of `solve_Q_mu` (one per 0.02 of coupling) across
nonzero seeds, so a seed changes the inputs but hardly the amount of work
(seed 0's second coupling, 0.02 itself, takes one step fewer).  The blowup
run's parameters never change: the 9b spread bound fails for b0 = 0.23 and
for b0 = 0.27.
"""

import random

WORKLOADS = {
    "groundstate-4096": "criterion-1 gate at n = 4096: l = 0 kernel build plus Newton/GMRES "
                        "with dense matvecs, no eigensolve, no time stepping",
    "spectra-1536": "criteria 3 and 5-7 at n = 1536 plus the CLI stage: dense eigensolves "
                    "and bordered hierarchy solves, no evolution",
    "blowup-1024": "criterion-9b minimal-mass blowup at n = 1024: split-step loop and "
                   "modulation fits, one small kernel build, no eigensolve",
}

# (n, partner n) of each workload at full size and in the self-check
_SIZES = {
    "groundstate-4096": {"full": (4096, 2048), "small": (384, 192)},
    "spectra-1536": {"full": (1536, 1024), "small": (384, 256)},
    "blowup-1024": {"full": (1024, None), "small": (384, None)},
}


def draw_params(workload, seed, small=False):
    """Inputs of one run: every value the pipeline and the probes consume."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    n, n_aux = _SIZES[workload]["small" if small else "full"]

    def draw(seed0_value, lo, hi):
        return seed0_value if seed == 0 else rng.uniform(lo, hi)

    params = {"workload": workload, "seed": seed, "small": small, "n": n, "r_max": 40.0}
    if workload == "groundstate-4096":
        params.update(partner_n=n_aux, mu=draw(0.05, 0.042, 0.058))
    elif workload == "spectra-1536":
        mu_mid = draw(0.02, 0.021, 0.029)
        params.update(
            mus=[0.0, mu_mid, draw(0.05, 0.042, 0.058)],
            # the CLI takes its coupling as text; four decimals name the run
            cli_mu=f"{mu_mid:.4f}",
            cli_n=n_aux,
            determinism_mu=f"{draw(0.01, 0.005, 0.015):.4f}",
            determinism_n=256 if not small else 64,
        )
    else:
        params.update(mu=0.02, b0=0.25, mass_factor=1.0005, dt=2e-3, record_every=20,
                      stop_grad_factor=10.5, min_scale_cells=12.0, t_final=8.0)
    # probe inputs: a density for the Hartree matvec and a Gaussian for the
    # linear-only evolution
    params["probe"] = {
        "density_seed": seed,
        "gauss_width": draw(2.0, 1.5, 2.5),
        "gauss_amplitude": draw(1.0, 0.5, 1.5),
    }
    return params
