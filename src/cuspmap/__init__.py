"""Numerical toolkit for a finite-distortion homeomorphism of the plane
squeezing the unit disk onto an exponential-cusp domain.

The toolkit builds the explicit three-stage map, evaluates its distortion
field, classifies the integrability of powers and exponentials of the
distortion, and runs the weighted-capacity machinery that makes the cusp
geometry quantitative.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    InsufficientData,
    MaskError,
    NodeError,
    RangeError,
    SeamError,
    ToolkitError,
)
from .profile import ProfileParams
from .maps import (
    MapChain,
    MapStage,
    boundary_image_trace,
    chain_inverse_values,
    chain_values,
)
from .domains import arc_diameter, preimage_arc
from .distortion import (
    DistortionSample,
    Jacobian2,
    chain_distortion_values,
    cusp_jacobian_fd_values,
    cusp_jacobian_values,
    distortion,
    distortion_table,
    distortion_values,
    fit_growth_envelope,
    op_norm,
)
from .quadrature import (
    AnnularScheme,
    IntegrabilityReport,
    Verdict,
    distortion_exp_integral,
    distortion_exp_integrals,
    distortion_power_integral,
    distortion_power_integrals,
)
from .capacity import (
    CapacityEstimate,
    GridSolverConfig,
    annulus_condenser,
    capacity_lower_bound,
    cusp_test_energy,
    grid_capacity,
    superpolynomial_decay_check,
    tip_capacity_experiment,
)

__version__ = "0.1.0"
