"""Exact-arithmetic invariants of flat G-bundle moduli on abelian surfaces.

The moduli component is the quotient (A tensor Lambda)/W of four copies of
the coroot lattice torus by the Weyl group; this package computes its stringy
Hodge numbers, torsion-point stabilizers, Hilbert-scheme generating series,
commuting-matrix symplectic tests, and flat-bundle characteristic classes,
all over exact rationals.
"""

from .hodgepoly import (
    BigradedPoly,
    abelian_surface,
    generating_series,
    goettsche,
    kummer_k3,
    kummer_singular,
    sym_power,
    two_torsion,
)
from .rootdata import (
    DiagramEmbedding,
    GroupOrderCapError,
    RootDatum,
    WeylGroup,
    build_root_datum,
    crepant_classification,
    embed_diagram,
    enumerate_group,
    expected_weyl_order,
    highest_coroot_coefficients,
)
from .stringy import (
    FixedLocusData,
    LatticeAction,
    fixed_locus,
    stringy_euler_commuting_pairs,
    stringy_hodge,
    stringy_hodge_wreath_closed_form,
    verify_sp_theorem,
    verify_su_case,
)
from .torsion import (
    PerturbationNotFoundError,
    PropagationResult,
    StabilizerReport,
    TorsionPoint,
    find_minus_one_points,
    propagate,
    stabilizer,
)
from .hilbmatrix import (
    MatrixPair,
    SkewSolutionSpace,
    dual,
    is_cyclic,
    make_pair,
    module_isomorphic,
    pair_from_ideal,
    symplectic_exists,
)
from .flatf2 import (
    ExteriorF2Element,
    F2Class,
    line_bundle_cohomology,
    so_bundle_deformation_dim,
    spin8_check,
    total_sw_class,
)

__version__ = "1.0.0"
