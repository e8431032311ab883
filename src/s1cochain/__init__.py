"""Exact rational calculus of truncated circle-equivariant cochain complexes.

The package computes, over Q with no floating point anywhere:

* exact sparse linear algebra (`linalg`),
* N-truncated operator families and their filtered complexes (`complexes`),
* the u-power filtration spaces Z_k/B_k, the structural maps Delta^k and the
  Leray pages (`spectral`),
* morphisms, homotopies and the quotient maps Phi^k (`morphisms`),
* split complexes, k-(semi)-dilations and their orders (`dilation`),
* Koszul-signed tensor products (`tensor`),
* Reeb-orbit combinatorics of Brieskorn links and the Milnor-fiber model
  complexes (`brieskorn`),
* a JSON wire format and a command-line front end (`io_json`, `cli`).
"""

from .linalg import (
    SparseMatrix,
    Subquotient,
    Vector,
    kernel_basis,
    rank,
    rref,
    solve,
)
from .complexes import (
    FilteredPlusComplex,
    Generator,
    S1Complex,
    TruncationError,
    build_filtered_plus,
    cohomology,
    direct_sum,
    make_complex,
    shift,
    truncate,
    verify_s1_relations,
)
from .spectral import (
    FiltrationTower,
    LerayPage,
    QuotientMap,
    WitnessedCycle,
    delta_k,
    e_infinity,
    filtration_tower,
    leray_page,
    leray_pages,
)
from .morphisms import (
    S1Homotopy,
    S1Morphism,
    compose,
    identity_morphism,
    induced_cohomology_map,
    phi_k,
    verify_functoriality,
    verify_homotopy,
    verify_morphism,
    zero_morphism,
)
from .dilation import (
    DilationReport,
    SplitS1Complex,
    delta_partial_k,
    delta_plus0_k,
    delta_plus_k,
    has_k_dilation,
    has_k_semidilation,
    make_split_complex,
    order_of_dilation,
    order_of_semidilation,
    order_via_torsion,
    tautological_les,
    verify_splitting,
)
from .tensor import tensor, tensor_split, unit_embedding
from .brieskorn import (
    BrieskornData,
    OrbitFamily,
    PrincipalPeriod,
    f_of_t,
    global_min_cz,
    is_adc_certified,
    milnor_model,
    milnor_unit_primitive,
    min_cz,
    orbit_families,
    predicted_order,
    principal_periods,
)
from .io_json import (
    DocumentError,
    document_to_morphism,
    document_to_split_complex,
    dumps,
    loads,
    morphism_to_document,
    split_complex_to_document,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
