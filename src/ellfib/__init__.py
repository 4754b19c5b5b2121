"""Exact invariants of elliptic fibrations over a two-dimensional base:
Kodaira fibre classification from valuation profiles, resolution of
discriminant collisions by base blow-ups, fibre component lattices, and
local Tate-Shafarevich groups computed as kernels between cokernels of
integer matrices tensored with Q/Z."""

from .collisions import (
    BlowupNode,
    BlowupTree,
    BranchGerm,
    CollisionPoint,
    MultipleFibreVerdict,
    blow_up,
    corank,
    delta_eta_gcd,
    expected_local_sha,
    is_miranda_allowed,
    miranda_reduce,
    multiple_fibre_verdict,
)
from .exact_linalg import (
    CokernelChart,
    DivisibleGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel_chart,
    induced_kernel_with_witnesses,
    qz_kernel,
    smith_normal_form,
)
from .kodaira import (
    FibreLattice,
    component_count,
    discriminant_group,
    euler_number,
    fibre_degree_gcd,
    lattice_data,
    sha_punctured_transverse,
)
from .parser import FibrationDescription, parse_description
from .presentations import (
    BranchPresentation,
    CollisionPresentation,
    DivisorRecord,
    PresentationStore,
    local_sha_with_witnesses,
)
from .report import analyze, render_json, render_text
from .weierstrass import (
    INFINITY,
    KodairaType,
    ValuationProfile,
    WeierstrassPolyModel,
    axis_profile,
    classify,
    j_valuation,
    minimalize,
)

__version__ = "0.1.0"
