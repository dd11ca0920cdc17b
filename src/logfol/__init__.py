"""Exact symbolic toolkit for foliations on normal-crossing germs.

Truncated power series with rational coefficients on crossing germs,
logarithmic vector fields and their bracket, flat-unit semistability
checks, residue indices along strata, scalar gluing cocycles, lattice
monoid saturation, bundle cohomology on nodal rational curves, and the
cochain calculus of leafwise complexes spread over finite covers.
"""

from .jets import (
    ContextMismatchError,
    GermContext,
    Jet,
    NonUnitError,
    format_jet,
    jet_from_string,
    monomials,
)
from .logcalc import (
    LogDerivation,
    LogOneForm,
    TangencyParseError,
    derivation_from_string,
    format_derivation,
    lie_bracket,
)
from .foliations import (
    FoliationGerm,
    GluingCheck,
    InconclusiveAtOrderError,
    InvolutivityResult,
    MissingStratumError,
    NonInvariantError,
    PushoutResult,
    SNCGlueData,
    SurfaceOneForm,
    check_gluing_cocycle,
    involutivity_check,
    pushout_membership,
    restrict_derivation,
    span_membership,
)
from .semistability import (
    FlatUnitResult,
    HolonomyData,
    ResonanceError,
    T1Section,
    check_holonomy_compatibility,
    check_normal_degrees,
    cs_index_log,
    cs_index_surface,
    find_flat_unit,
    laurent_residue,
    nabla,
    t1_monomial_alive,
    t1_reduce,
)
from .monoids import (
    FGMonoid,
    contains,
    grothendieck_group,
    is_saturated,
    saturate,
)
from .bundles import (
    GradedBundleP1,
    SNCCurveBundle,
    cohomology_snc_curve,
    h_p1,
)
from .leafcomplex import (
    CechLeafData,
    FinLieData,
    LieAlgebra,
    LieModuleData,
    LieObstruction,
    ObstructionReport,
    abelian_algebra,
    adjoint_module,
    ce_differential,
    coboundary_triple,
    constant_cover,
    leaf_complex_hypercohomology,
    lie_subalgebra_obstruction,
    p1_window_cover,
    verify_obstruction_cocycle,
)
from .scene import Scene, SceneError, load_scene
from .exprs import ExprError

__version__ = "0.1.0"
