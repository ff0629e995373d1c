"""Flexible couplings of Bennett tubes.

Construction of Bennett loops and of the three four-parameter families of
flexible couplings of two Bennett tubes along a shared skew quadrilateral,
with exact (rational) and floating-point verification of their flexibility,
their symmetry certificates, their planar and spherical limits, and the
non-existence of a plane-symmetric coupling.
"""

from .bennett import (
    AXIS_LABELS,
    Axis,
    BennettDesign,
    ConventionError,
    DegenerateDesignError,
    PLANAR_CASES,
    PlanarDesign,
    PoleError,
    Pose,
    frame,
    loop_closure_residual,
    planar_frame,
    planar_loop_closure_residual,
    validate,
)
from .families import (
    BiBennett,
    CoupledPose,
    DegenerateCouplingError,
    Loop,
    MuSet,
    NoRealBranchError,
    NoRealFamilyError,
    SkewQuad,
    coupled_pose,
    coupling_quartic,
    family_a,
    family_b,
    family_c,
    make_family_a,
    make_family_b,
    make_trivial,
    necessary_conditions,
    planar_bar_tau,
    solve_bar_tau,
)
from .properties import (
    CertificateReport,
    ResidualEntry,
    deltoidal_certificate,
    halfturn_certificate,
    isogonal_certificate,
)
from .limits import (
    limit_kind,
    prismatic_limit_AB,
    prismatic_limit_C,
    pyramidal_limit,
    verify_labels,
)
from .appendix import (
    CoplanarityExpansion,
    coplanarity_coeffs,
    verify_nonexistence,
)
from .io_export import (
    Config,
    ConfigError,
    build_structure,
    export_obj,
    export_obj_text,
    hp_patch,
    parse_config,
    serialize_config,
    sweep_report,
)

__version__ = "0.1.0"
