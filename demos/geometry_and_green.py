"""Chart geometry and Green's identity.

The domains live on the unit sphere through explicit charts: the lift is an
exact isometry, the metric has closed-form inverse and determinant, and the
polynomial operator is the chart realization of a weighted Laplacian (times
4 on the simplex).  Green's identity holds with no boundary term; the
boundary flux of the truncated domain decays at the weight-determined rate.

A test polynomial is a coefficient vector over the graded monomials of its
degree; in two variables these run 1, y, x, y^2, xy, x^2, ...
"""

import numpy as np

from polyheat import (
    DomainSpec,
    GaussianBump,
    PolyField,
    boundary_flux_decay,
    chart_lift,
    chart_laplacian_check,
    distance,
    green_identity_check,
    interior_points,
    inverse_metric,
    metric_det,
    metric_tensor,
    random_coefficients,
)

spec = DomainSpec.simplex(2, (0.5, 1.0, 1.5))
x = np.array([0.3, 0.2])
y = np.array([0.1, 0.5])
print(f"domain: {spec.label()}")
print("lift of x:", np.round(chart_lift(spec, x), 6))
gap = abs(np.arccos(chart_lift(spec, x) @ chart_lift(spec, y)) - distance(spec, x, y))
print(f"lift isometry gap: {gap:.2e}")
print("metric x inverse - identity:",
      f"{np.abs(metric_tensor(spec, x) @ inverse_metric(spec, x) - np.eye(2)).max():.2e}")
print(f"det g = {metric_det(spec, x):.6f}")

rng = np.random.default_rng(0)
f = random_coefficients(2, 5, rng)
pts = interior_points(spec, 60, margin=0.02)
print(f"chart Laplacian vs operator (x4), max relative gap: "
      f"{chart_laplacian_check(spec, f, pts):.2e}")

h = PolyField(random_coefficients(2, 3, rng), 2)
print(f"Green identity residual (polynomial h): "
      f"{green_identity_check(spec, f, h):.2e}")

print()
print("boundary flux of the shrunken ball, gamma = 0.25 (rate gamma + 1/2):")
ball = DomainSpec.ball(2, 0.25)
x_squared = [0, 0, 0, 0, 0, 1.0]
rep = boundary_flux_decay(ball, x_squared, PolyField([1.0], 2), [0.2, 0.1, 0.05, 0.02, 0.01])
print(f"  fitted slope {rep.fitted_slope:.3f} vs expected {rep.expected_slope}"
      f"  (r^2 = {rep.r2:.4f})")

print("per-face rates on the simplex (dominating face carries min kappa):")
f2 = [0, 0, 1.0, 0, 0, 0.5]       # x + x^2/2
ridge = GaussianBump([0.0, 0.45], [np.inf, 0.15])
rep = boundary_flux_decay(DomainSpec.simplex(2, (0.25, 0.5, 0.5)), f2, ridge,
                          [0.2, 0.1, 0.05, 0.02, 0.01])
for name, face in rep.faces.items():
    print(f"  face {name}: slope {face['slope']:+.3f} expected {face['expected']}")
