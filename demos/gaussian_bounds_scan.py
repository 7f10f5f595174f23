"""Empirical two-sided Gaussian bound certification on the ball.

N = kernel * sqrt(V(x, sqrt t) V(y, sqrt t)) is scanned over a grid; in the
far field the exponent E = -t log N / rho^2 must stay inside a bounded
positive interval (the two-sided bound), and near the diagonal N itself is
pinched.  Doubling of metric-ball volumes is certified along the way.
"""

import numpy as np

from polyheat import (
    DomainSpec,
    HeatKernelEvaluator,
    VolumeSource,
    build_basis,
    doubling_scan,
    gauss_ratio_scan,
    interior_points,
)

spec = DomainSpec.ball(2, 0.5)
print(f"building degree-40 basis for {spec.label()} ...")
ev = HeatKernelEvaluator(build_basis(spec, 40))
# 2-D volumes come from a deterministic cap quadrature (no samples)
vol = VolumeSource(spec)
pts = interior_points(spec, 12)

rep = gauss_ratio_scan(ev, vol, pts, np.geomspace(0.02, 0.5, 6))
print(f"far-field exponent interval: E in [{rep.e_min:.3f}, {rep.e_max:.3f}]"
      f"  (flat-space reference 1/4)")
print(f"implied constants: c2_hat = {rep.c2_hat:.3f}, c4_hat = {rep.c4_hat:.3f}")
print(f"near-diagonal normalization: N in [{rep.n_lo:.3f}, {rep.n_hi:.3f}]")
print(f"admissible rows {rep.admissible}, diagonal rows {rep.diagonal}, "
      f"excluded by truncation {rep.excluded}")

print()
drep = doubling_scan(spec, vol, pts, [0.1, 0.2, 0.35, 0.5])
print(f"max V(x, 2r)/V(x, r) = {drep.max_ratio:.3f} <= surrogate cap {drep.cap:.1f}")
print(f"V / surrogate comparability interval: [{drep.comp_lo:.3f}, {drep.comp_hi:.3f}]")
