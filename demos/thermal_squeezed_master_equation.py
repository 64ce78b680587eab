"""Qubit in thermal and squeezed baths: generators, spectra, steady states.

The Kossakowski matrix over the jump basis (C, C+) is
gamma [[n+1, m], [conj(m), n]]; its positivity is exactly the Gaussian
constraint on (n, m).  For a qubit coupled through sigma- the two
coherence quadratures decay at gamma(n + 1/2 -+ m), which is read off
the Liouvillian spectrum below.
"""

import numpy as np

from gaussbath import (
    NoiseParams,
    SystemModel,
    evolve,
    gks_decompose,
    schrodinger_liouvillian,
    steady_state,
)
from gaussbath.noise import is_gaussian_state

np.set_printoptions(precision=5, suppress=True)

SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)


def qubit(n, m, gamma=1.0):
    return SystemModel(C=SM, F=Z2, noise=NoiseParams(gamma=gamma, n=n, m=m))


print("Kossakowski spectrum while m sweeps through the boundary (n = 1, gamma = 1)")
limit = np.sqrt(2.0)
for scale in (0.0, 0.5, 0.9, 1.0, 1.1):
    model = qubit(1.0, scale * limit)
    lo, hi = gks_decompose(model).kossakowski_eigenvalues()
    tag = "CP" if is_gaussian_state(model.noise.n, model.noise.m) else "NOT completely positive"
    print("  |m| = %.3f sqrt(2):  eigenvalues (%+.4f, %.4f)   %s" % (scale, lo, hi, tag))

print("\nthermal steady states (excited population -> n / (2n+1))")
for n in (0.0, 0.5, 1.0, 3.0):
    rho = steady_state(qubit(n, 0.0))
    print("  n = %-4g   diag = %s   target = %.6f" % (n, np.real(np.diag(rho)), n / (2 * n + 1)))

print("\nquadrature decay rates in a squeezed bath (n = 1, m = 0.8 real)")
n, m = 1.0, 0.8
liouv = schrodinger_liouvillian(qubit(n, m))
evals = sorted(-np.linalg.eigvals(liouv).real)
print("  Liouvillian decay rates:", np.round(evals, 6))
print("  expected: 0 (steady), gamma(n+1/2-m) = %.2f, gamma(n+1/2+m) = %.2f, gamma(2n+1) = %.2f"
      % (n + 0.5 - m, n + 0.5 + m, 2 * n + 1))

print("\ncoherence decay, slow quadrature vs fast quadrature")
plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)       # <sigma_x> = 1
plus_i = np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)  # <sigma_y> = 1
dt, steps = 0.5, 4  # the states at t = k dt, k = 0, ..., steps
states_x = evolve(qubit(n, m), plus, dt, steps)
states_y = evolve(qubit(n, m), plus_i, dt, steps)
sx = 2.0 * states_x[:, 1, 0].real
sy = 2.0 * states_y[:, 1, 0].imag
print("  t       <sigma_x>   exp(-(n+1/2-m)t)   <sigma_y>   exp(-(n+1/2+m)t)")
for k, t in enumerate(dt * np.arange(steps + 1)):
    print("  %-6.2f  %9.5f   %16.5f   %9.5f   %16.5f"
          % (t, sx[k], np.exp(-(n + 0.5 - m) * t), sy[k], np.exp(-(n + 0.5 + m) * t)))
