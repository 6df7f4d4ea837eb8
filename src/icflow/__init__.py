"""Numerical laboratory for inverse curvature flow of convex plane curves.

The package evolves closed convex polygons by the inverse-curvature speed
(outward normal velocity 1/curvature), in both the raw exponentially
growing formulation and the length-normalized one, and instruments the run
with the comparison-principle, curvature-envelope, and convergence checks
that make the continuum theory quantitatively testable at desk scale.
"""

__version__ = "0.1.0"
