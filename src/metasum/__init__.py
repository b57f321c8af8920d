"""metasum — active sums of cyclic subgroups of finite metacyclic groups.

The package answers, for a finite metacyclic group
G = <a, b | a**m = 1, b**s = a**t, b**-1 a b = a**r>, whether the active sum
of a conjugation-closed family of cyclic subgroups recovers G itself.  It
provides:

* exact arithmetic in normal form (:mod:`metasum.core`),
* closed-form structure invariants with brute-force cross-checks
  (:mod:`metasum.structure`),
* integer Smith normal form with certificates (:mod:`metasum.lattice`),
* family construction, regularity and independence checks
  (:mod:`metasum.families`),
* Hall-subgroup based family construction for parameters that fail the
  divisibility condition (:mod:`metasum.hall`),
* HLT coset enumeration with lookahead for finitely presented groups
  (:mod:`metasum.coset`),
* the active-sum presentation builder and end-to-end verdict
  (:mod:`metasum.active_sum`),
* a command line interface (:mod:`metasum.cli`).

Typical use::

    from metasum import validate, build_generator_family, verdict
    p = validate(m=3, s=2, t=0, r=2)          # symmetric group S3
    v = verdict(p, build_generator_family(p))
    assert v.isomorphic and v.active_sum_order == 6
"""

from .active_sum import (
    DEFAULT_COSET_FACTOR,
    FpPresentation,
    PresentationGenerator,
    Verdict,
    abelianized_order,
    build_active_sum_presentation,
    todd_coxeter,
    verdict,
)
from .core import (
    CayleyTable,
    Element,
    MetacyclicParams,
    Subgroup,
    bruteforce_center,
    bruteforce_derived,
    cayley_table,
    commutator,
    conjugate,
    cyclic_subgroup,
    element_log,
    element_order,
    generate_subgroup,
    inverse,
    mul,
    power,
    validate,
)
from .errors import (
    CapExceeded,
    ConditionFails,
    ConstraintViolation,
    CosetLimitExceeded,
    InternalCheckError,
    MetasumError,
    NotAPower,
    OverflowDetected,
    SearchFailed,
)
from .families import (
    ConjugationWitness,
    Family,
    IndependenceReport,
    RegularityReport,
    Transversal,
    abelianized_group,
    build_generator_family,
    conjugacy_closure,
    divisibility_condition,
    is_generating,
    is_independent,
    is_regular,
    regularity_witness,
    transversal,
)
from .hall import (
    HallDecomposition,
    HallFamilyBuild,
    SylowFactorization,
    build_hall_family,
    hall_decomposition,
)
from .lattice import (
    AbelianStructure,
    IntMatrix,
    SmithNormalForm,
    abelian_quotient,
    smith_diagonal,
    smith_normal_form,
)
from .structure import (
    GaneaCheck,
    bruteforce_ganea,
    bruteforce_schur_of_central_quotient,
    center_closed_form,
    center_exponents,
    derived_center_intersection_order,
    derived_closed_form,
    ganea_check,
    multiplier_order_from_table,
    schur_order_of_central_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianStructure",
    "CapExceeded",
    "CayleyTable",
    "ConditionFails",
    "ConjugationWitness",
    "ConstraintViolation",
    "CosetLimitExceeded",
    "DEFAULT_COSET_FACTOR",
    "Element",
    "Family",
    "FpPresentation",
    "GaneaCheck",
    "HallDecomposition",
    "HallFamilyBuild",
    "IndependenceReport",
    "IntMatrix",
    "InternalCheckError",
    "MetacyclicParams",
    "MetasumError",
    "NotAPower",
    "OverflowDetected",
    "PresentationGenerator",
    "RegularityReport",
    "SearchFailed",
    "SmithNormalForm",
    "Subgroup",
    "SylowFactorization",
    "Transversal",
    "Verdict",
    "abelian_quotient",
    "abelianized_group",
    "abelianized_order",
    "bruteforce_center",
    "bruteforce_derived",
    "bruteforce_ganea",
    "bruteforce_schur_of_central_quotient",
    "build_active_sum_presentation",
    "build_generator_family",
    "build_hall_family",
    "cayley_table",
    "center_closed_form",
    "center_exponents",
    "commutator",
    "conjugacy_closure",
    "conjugate",
    "cyclic_subgroup",
    "derived_center_intersection_order",
    "derived_closed_form",
    "divisibility_condition",
    "element_log",
    "element_order",
    "ganea_check",
    "generate_subgroup",
    "hall_decomposition",
    "inverse",
    "is_generating",
    "is_independent",
    "is_regular",
    "mul",
    "multiplier_order_from_table",
    "power",
    "regularity_witness",
    "schur_order_of_central_quotient",
    "smith_diagonal",
    "smith_normal_form",
    "todd_coxeter",
    "transversal",
    "validate",
    "verdict",
]
