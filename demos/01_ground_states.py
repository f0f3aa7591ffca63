# Ground states of the doubly critical equation: the two independent
# pathways (shooting + collocation Newton, constrained gradient flow with
# multiplier rescaling), their mutual agreement, and the functional
# diagnostics every accepted state must satisfy.

import numpy as np

from dcnls.grid import build_grid
from dcnls.groundstate import (
    functional_report,
    mass_3d,
    minimize_constrained,
    perturbation_rate,
    solve_classical_Q,
    solve_Q_mu,
)

grid = build_grid(1024, 40.0, "tanh")

print("== classical soliton (shooting + Newton) ==")
gs = solve_classical_Q(grid)
rep = functional_report(gs)
for key in ("mass", "energy", "eq_residual", "pohozaev_defect", "gn_local",
            "gn_nonlocal", "tail_logderiv"):
    print(f"  {key:18s} {rep[key]: .6e}")

print("\n== gradient-flow pathway at the same mass ==")
flow = minimize_constrained(gs.mass, 0.0, grid)
dist = np.sqrt(mass_3d(grid, flow.Q.values - gs.Q.values) / gs.mass)
print(f"  flow multiplier at handover (scaled out) {flow.beta:.6f}")
print(f"  L2 distance to the shooting state: {dist:.2e}")

print("\n== coupled states along the continuation ==")
for mu in (0.01, 0.02, 0.05):
    s = solve_Q_mu(mu, grid)
    print(f"  mu={mu:5.3f}: mass {s.mass:9.4f}  E {s.energy: .2e}  "
          f"residual {s.eq_residual:.1e}")
print("  (the soliton mass shrinks as the nonlocal attraction strengthens)")

print("\n== perturbation rate in the linear-response window ==")
rate = perturbation_rate([1e-4, 10 ** -3.5, 1e-3, 10 ** -2.5], grid)
print(f"  slope of log||Q_mu - Q||_H2 vs log mu: {rate['slope']:.3f}")
print(f"  fit residual (log units): {rate['fit_residual']:.3f}")
