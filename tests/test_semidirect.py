"""The shared semidirect builder behind the three semidirect constructors."""
import numpy as np
import pytest

from galchar.constructors import affine_semidirect, extraspecial_semidirect, singer_matrix

from reference import order

# name -> (builder of height h, points of the base group, |<mats>|, prime q)
CASES = {
    "affine": (lambda h: affine_semidirect(2, 2, [singer_matrix(2, 2)], h), 4, 3, 3),
    "extraspecial": (
        lambda h: extraspecial_semidirect(3, [singer_matrix(3, 2)], h),
        27,
        8,
        2,
    ),
    "q8": (
        lambda h: extraspecial_semidirect(2, [np.array([[0, 1], [1, 1]])], h),
        8,
        3,
        3,
    ),
}


@pytest.mark.parametrize("height", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cover_order_and_central_kernel(case, height):
    build, n_base, acting, q = CASES[case]
    group = build(height)
    assert group.order == n_base * acting * q ** (height - 1)
    # the elements acting trivially on the base points form a central
    # cyclic subgroup of order q^(h-1)
    fixed = tuple(range(n_base))
    kernel = [x for x in group.elements if x.images[:n_base] == fixed]
    assert len(kernel) == q ** (height - 1)
    assert all(x * g == g * x for x in kernel for g in group.generators)
    assert any(order(x) == len(kernel) for x in kernel)
