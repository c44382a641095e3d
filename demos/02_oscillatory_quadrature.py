"""Closed-form oscillatory moments vs. brute-force quadrature.

Assembly integrates every cell through the unit moments
int_{-1}^{1} x^k e^{i w x} dx, k = 0..K, computed for a whole batch of
rates at once.  Their cost is independent of the phase rate; the reference
integrator resolves every wavelength and is used only to check.

Run:  python demos/02_oscillatory_quadrature.py
"""

import time

import numpy as np

from oscfred import Polynomial, oscillatory_quad
from oscfred.oscquad import _unit_moments

p = Polynomial([0.5, -1.0, 0.0, 2.0])  # 0.5 - t + 2 t^3
_unit_moments(np.ones(1), p.degree())  # a nonzero rate below the switch builds the cached Gauss rule untimed

print("int_{-1}^{1} p(t) e^{i w t} dt")
for omega in (0.3, 5.0, 300.0, 2e4):
    t0 = time.perf_counter()
    exact = complex(_unit_moments(np.array([omega]), p.degree())[0] @ p.coef)
    dt_exact = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = oscillatory_quad(lambda t: p(t) * np.exp(1j * omega * t), -1.0, 1.0, omega)
    dt_ref = time.perf_counter() - t0
    print(f"  w={omega:8.1f}: {exact:+.12e}  |diff|={abs(exact - ref):.1e}  "
          f"closed {dt_exact * 1e6:7.1f}us  brute {dt_ref * 1e3:8.2f}ms")
