# The linearized operators around the soliton: channel spectra, the
# kernel structure that encodes the symmetries, and the algebraic
# identities the construction leans on.

from dcnls.grid import build_grid
from dcnls.groundstate import solve_Q_mu
from dcnls.linop import constrained_inverse_stats, nondegeneracy_report

grid = build_grid(1024, 40.0, "tanh")
gs = solve_Q_mu(0.05, grid)
rep = nondegeneracy_report(gs)

print("== algebraic identities (relative norms) ==")
for name, val in rep["identities"].items():
    print(f"  {name:28s} {val:.2e}")

print("\n== kernel bookkeeping per channel ==")
for (kind, l), entry in rep["channels"].items():
    evs = ", ".join(f"{v:+.4f}" for v in entry["eigenvalues"][:4])
    print(f"  L_{kind:5s} l={l}: kernel dim {entry['kernel_dim']}  [{evs} ...]")
print(f"  status: {rep['status']}")

print("\n== constrained-inverse stability constants ==")
stats = constrained_inverse_stats(gs)
for name, val in stats.items():
    print(f"  {name:24s} {val:.4f}")
