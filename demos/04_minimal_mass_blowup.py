# Time-dependent experiments: a negative-coupling virial collapse and the
# minimal-mass blowup seeded by the approximate profile, with the scale
# law lambda(t) ~ lambda* (T* - t) read off by modulation extraction.

import numpy as np

from dcnls.grid import build_grid
from dcnls.groundstate import solve_classical_Q, solve_Q_mu
from dcnls.profile import build_hierarchy
from dcnls.dynamics import (
    blowup_fit,
    evolve,
    make_initial_data,
    modulation_extract,
    virial_check,
)


def step_budget(traj):
    """The split-step cost of a run: steps, band refactorisations, smallest dt."""
    return (f"  {traj.steps} steps, {traj.refactorizations} refactorizations, "
            f"dt_min {traj.dt_min:.2e}, stopped by {traj.stopped_by}")


grid = build_grid(1024, 40.0, "tanh")

print("== negative coupling: virial collapse ==")
gs0 = solve_classical_Q(grid)
mu = -0.01
u0 = make_initial_data("rescaled_soliton", gs=gs0, alpha=1.2, beta=0.8, mu=mu)
print(f"  mass {u0.mass:.2f} (supercritical), energy {u0.energy:.3f} < 0")
traj = evolve(u0, mu, dt=5e-4, t_final=6.0, adaptive=True,
              stop_grad_factor=10.5, lambda0=1.0, record_every=20)
vir = virial_check(traj)
print(f"  gradient growth {traj.grad_norm[-1] / traj.grad_norm[0]:.1f}x, "
      f"variance curvature / 16E = {vir['ratio']:.4f}, concave: {vir['concave']}")
print(step_budget(traj))

print("\n== minimal-mass blowup at mu = 0.02 ==")
gs = solve_Q_mu(0.02, grid)
ps = build_hierarchy(gs)
# the truncated profile at exactly critical mass bounces; a 5e-4 mass nudge
# selects the collapsing trajectory that shadows the minimal-mass solution
u0 = make_initial_data("minimal_mass_profile", gs=gs, ps=ps, b0=0.25,
                       mass_factor=1.0005)
print(f"  mass {u0.mass:.4f} (critical + 5e-4), E0 {u0.energy:.4f}")
b_target = 1.0 / np.sqrt(ps.e_mu / u0.energy)
traj = evolve(u0, 0.02, dt=1e-3, adaptive=True, stop_grad_factor=11.0,
              lambda0=1.0, min_scale_cells=10.0, t_final=6.0, record_every=40)
fit = blowup_fit(traj)
print(f"  fitted blowup exponent gamma = {fit['gamma']:.3f}, T* = {fit['T_star']:.3f}")
print(step_budget(traj))
trace = modulation_extract(traj, gs, ps)
ok = trace.flags & (trace.lam > 0.12) & (trace.lam < 0.3)
lam, b, tt = trace.lam[ok], trace.b[ok], trace.times[ok]
ratio = lam / (fit["T_star"] - tt)
print(f"  lambda/(T*-t) spread over the asymptotic window: "
      f"{ratio.max() / ratio.min() - 1:.3f} (linear scale law)")
print(f"  b/lambda: {np.mean(b / lam):.4f} against the energy-predicted "
      f"{b_target:.4f}")
