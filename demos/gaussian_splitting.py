"""Doubled-vacuum splits of Gaussian states, scalar and operator valued.

Any (n, m) with |m|^2 <= n(n+1) factors through a pair of vacuum modes
via coefficients (x, y, z); the script sweeps the physical region,
shows the collapse at the boundary, runs the operator-valued version
on a commuting pair and finally measures second moments of the doubled
representation on a truncated Fock space.
"""

import numpy as np

from gaussbath import (
    OperatorGaussianSpec,
    doubled_moment_report,
    operator_split,
    scalar_split,
    split_residuals,
)

np.set_printoptions(precision=4, suppress=True)


def show(n, m):
    s = scalar_split(n, m)
    res = split_residuals(n, m, s)
    print(
        "  n=%-5.2f |m|=%-6.3f ->  x=%.4f  y=%.4f  z=%.4f%+.4fj   worst residual %.1e"
        % (n, abs(m), s.x, s.y, s.z.real, s.z.imag, max(res.values()))
    )


print("scalar splits across the physical region")
show(0.0, 0.0)
show(1.0, 0.0)
show(1.0, 1.0j)
show(3.0, 0.0)
for frac in (0.5, 0.9, 0.999, 1.0):
    n = 2.0
    show(n, frac * np.sqrt(n * (n + 1.0)) * np.exp(0.3j))
print("  (x -> 0 as |m|^2 -> n(n+1): the first mode decouples at the boundary)")

print("\noperator-valued split of a commuting pair")
n_op = np.diag([3.0, 1.0]).astype(complex)
m_op = np.diag([0.0, 1.0j])
x, y, z = operator_split(OperatorGaussianSpec(N=n_op, M=m_op))
print("N =\n", n_op.real)
print("M =\n", m_op)
print("X =\n", x)
print("Y =\n", y)
print("Z =\n", z)
eye = np.eye(2)
print("identity residuals:")
print("  |X+X - Y+Y + Z+Z - 1|  =", np.abs(x.conj().T @ x - y.conj().T @ y + z.conj().T @ z - eye).max())
print("  |X+X + Z+Z - (N + 1)|  =", np.abs(x.conj().T @ x + z.conj().T @ z - (n_op + eye)).max())
print("  |Y Z - M|              =", np.abs(y @ z - m_op).max())

print("\nmeasured moments of the doubled representation (cutoff 8)")
report = doubled_moment_report(OperatorGaussianSpec(N=[[1.0]], M=[[1.0j]]), cutoff=8)
meas, pred = report["measured"], report["predicted"]
print("  <A A+> = %.6f%+.6fj   target n+1 = %.6f" % (meas["a_adag"].real, meas["a_adag"].imag, pred["a_adag_nplus1"].real))
print("  <A+ A> = %.6f%+.6fj   target n   = %.6f" % (meas["adag_a"].real, meas["adag_a"].imag, pred["a_adag_n"].real))
print("  <A A>  = %.6f%+.6fj   target m   = %.6f%+.6fj" % (meas["a_a"].real, meas["a_a"].imag, pred["a_a"].real, pred["a_a"].imag))
print("  occupation convention matched by measurement:", report["occupation_convention"])
