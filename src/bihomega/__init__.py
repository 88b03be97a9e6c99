"""Exact-arithmetic workbench for Rota-Baxter family BiHom-Omega-associative
algebras: validation of every defining identity, derived constructions
(star product, induced bimodules, semidirect products, twists, extensions),
three cohomology theories, and deformation-theoretic checks, all over the
rationals."""

from .algebra import (
    ExampleParams,
    OmegaAlgebra,
    RotaBaxterFamily,
    Witness,
    build_example_algebra,
    check_rota_baxter,
    is_homomorphism,
    star_product,
    validate_algebra,
    yau_twist,
    zero_algebra,
)
from .bimodule import (
    BimoduleAlgebraData,
    OmegaBimodule,
    induced_module_star,
    rbf_semidirect,
    regular_bimodule,
    semidirect_product,
    validate_bimodule,
    validate_bimodule_algebra,
    validate_rbf_bimodule,
    zero_bimodule,
)
from .cochain import (
    Cochain,
    CohomologyReport,
    EquivariantBasis,
    apply_delta,
    cohomology_dims,
    delta_matrix,
    equivariant_basis,
    is_coboundary,
    is_cocycle,
    random_equivariant,
)
from .deformation import (
    DeformationJet,
    NijenhuisFamily,
    check_jet,
    check_linear_deformation,
    check_nijenhuis,
    deformed_product,
    equivalence_shift,
    psi_n,
    rigidity_report,
)
from .errors import (
    InternalCheckError,
    MalformedInputError,
    ParseError,
    PreconditionError,
    WorkbenchError,
)
from .extension import (
    CocyclePair,
    ExtensionPresentation,
    build_extension,
    compare_extensions,
    extract_cocycle,
)
from .gerstenhaber import bracket, circ_i, delta_via_bracket, mc_residual
from .linalg import Mat, rank
from .monoid import Monoid, product_word, validate_monoid
from .rationals import Rat, format_rational, parse_rational
from .rbf import (
    CombinedCochain,
    RbfContext,
    chain_map_check,
    d_combined,
    partial,
    phi,
    rbfa_cohomology_dims,
)
from .serialization import WorkbenchFile, parse_workbench, serialize_workbench

__version__ = "0.1.0"
