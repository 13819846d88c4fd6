"""Numerical complex-analysis laboratory for the critical strip.

Library surface: special functions (gamma/eta/zeta), adaptive quadrature for
the Fermi-Dirac Mellin integral and its bounds, the disk-to-half-strip
conformal map, zero counting and boundary scans, and a claim-audit registry
with machine-readable verdicts.  The ``zetalab`` console script exposes each
piece as a batch check.
"""

from .config import AuditConfig, load_config
from .claim_audit import (
    AuditReport,
    ClaimRecord,
    FLAGGED_CLAIMS,
    list_claims,
    run_audit,
)
from .errors import (
    BoundaryZeroError,
    DomainError,
    MultiplicityAmbiguity,
    NonConvergence,
    PoleError,
    PoleProximity,
    ToleranceNotMet,
    ZeroAtCenter,
    ZetaLabError,
)
from .quadrature import (
    QuadratureEstimate,
    f_shifted,
    fermi_mellin,
    m_bound,
    m_star,
    m_star_derivative,
)
from .special_functions import (
    eta,
    gamma,
    gamma_abs_product,
    zeta,
)
from .strip_map import (
    disk_modulus_H,
    f_on_disk,
    g_of_b,
    omega0,
    omega0_prime,
    phi,
    phi_inverse,
    theta,
    theta_inverse,
)
from .zero_analysis import (
    CriticalZeroList,
    RectangleRegion,
    RoucheScanResult,
    blaschke_L,
    critical_line_zeros,
    jensen_check,
    lambda_choice,
    riemann_von_mangoldt,
    rouche_scan,
    titchmarsh_zero_bound,
    titchmarsh_zero_free,
    triangle_equality_condition,
    winding_count,
)

__version__ = "0.1.0"
