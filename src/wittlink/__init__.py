"""Exact rational Witt vectors, abelian class field data, and finite-level
orbit models with the comparison map between the flow side and the
covering side.

The public surface re-exports the main types and operations; see the
module docstrings for representation conventions.
"""

from .errors import (
    DomainViolation,
    EqualPrimes,
    NotAUnit,
    NotCoprime,
    NotSplit,
    ParseError,
    RamifiedPrime,
    SpecMismatch,
    UnsupportedRing,
)
from .rings import (
    Polynomial,
    RingElement,
    RingSpec,
    cyclotomic_conjugate,
    cyclotomic_polynomial,
    euler_phi,
    format_polynomial,
    is_prime,
    primes_below,
)
from .witt import (
    GhostVector,
    GroupRingElement,
    WittVector,
    frobenius,
    galois_conjugate,
    galois_fixed_check,
    ghost,
    groupring_to_witt,
    series_coefficients,
    split_counit,
    teichmuller,
    witt_add,
    witt_mul,
    witt_neg,
    witt_to_groupring,
)
from .cft import (
    AbelianField,
    Coset,
    ModUnit,
    SplitData,
    abelian_field,
    all_subgroups,
    artin_symbol,
    at_conductor,
    conductor,
    cyclotomic_field,
    legendre,
    linking_hom,
    quadratic_field_subgroup,
    ramified_set,
    rationals_field,
    split_invariants,
    subgroup_generated,
    unit_group,
)
from .orbits import (
    ClosedOrbitLabel,
    DeningerPointFL,
    FiberDecomposition,
    MappingTorus,
    cc_fiber,
    cc_fiber_infinite_level,
    closed_orbit_labels,
    decompose,
    deninger_packet,
    normalize_point,
    packet_fibers,
    reciprocity_row,
    reciprocity_rows,
)
from .bridge import (
    BridgeReport,
    FiniteAdeleFL,
    bridge_compare,
    check_anti_equivariance,
    check_frobenius_equivariance,
    check_galois_equivariance,
    level_reduction_compatible,
    psi_level,
)
__version__ = "0.1.0"
