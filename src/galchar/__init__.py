"""galchar: exact character tables of finite permutation groups and the
classification of groups whose exceptional irreducible characters form a
single Galois conjugacy class."""

from .cyclotomic import Cyclotomic, cyc
from .numth import (
    find_dixon_prime,
    is_mersenne_prime,
    is_prime,
    primitive_polynomial,
    zsigmondy_prime,
)
from .perm import (
    PermGroup,
    Permutation,
    Subgroup,
    direct_product,
    frattini_of_pgroup,
    group_from_json,
    group_to_json,
    load_group,
    quotient_module_action,
    save_group,
)
from .chartab import (
    Character,
    CharacterTable,
    character_table,
    verify_orthogonality_exact,
)
from .classify import (
    ClassificationReport,
    IrrPartition,
    analyze_structure,
    check_frobenius_action,
    check_irreducible_action,
    check_scalar_transitivity,
    find_complement,
    irr_partition,
    is_extraspecial_p3,
    is_single_galois_class,
)
from .constructors import (
    CaseParams,
    ParamsInvalid,
    affine_semidirect,
    construct_case,
    cyclic,
    dihedral,
    extraspecial_semidirect,
    generalized_quaternion,
    heisenberg,
    quaternion8,
    quaternion_subgroup_SL2,
    singer_matrix,
    sweep_parameter_points,
    symmetric,
)

__version__ = "0.1.0"
