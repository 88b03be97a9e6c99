"""Built-in example structures.

The named algebras, bimodules and Rota-Baxter contexts that the fixtures,
the benchmark and the tests are built from: e0, zero1, e1 and its broken
copy, the two-element-group family c2 (variants 0-2), the e1 semidirect
product, and the diagonal and truncated polynomial cores.
"""

from __future__ import annotations

from .algebra import (
    ExampleParams,
    OmegaAlgebra,
    RotaBaxterFamily,
    build_example_algebra,
    validate_example_params,
    zero_algebra,
)
from .bimodule import OmegaBimodule, regular_bimodule, semidirect_product
from .errors import InternalCheckError, MalformedInputError
from .linalg import Mat
from .monoid import Monoid, cyclic_monoid, trivial_monoid
from .rationals import ONE, ZERO, Rat
from .rbf import RbfContext
from .search import first_nonscalar, iter_rbf


def build_e0() -> OmegaAlgebra:
    """One-dimensional unit algebra over the trivial monoid."""
    om = trivial_monoid()
    return OmegaAlgebra(
        om, 1, {(0, 0): [[[ONE]]]}, {0: Mat.identity(1)}, {0: Mat.identity(1)}
    )


def build_zero1() -> OmegaAlgebra:
    """One-dimensional zero algebra over the trivial monoid."""
    return zero_algebra(trivial_monoid(), 1)


def unit_params(omega: Monoid) -> ExampleParams:
    c = {(x, y): ONE for x in omega.elements() for y in omega.elements()}
    rmap = {x: ONE for x in omega.elements()}
    lmap = {x: ONE for x in omega.elements()}
    return ExampleParams(c, rmap, lmap)


def build_e1() -> OmegaAlgebra:
    """The two-dimensional example with all parameters 1, trivial monoid."""
    return build_example_algebra(trivial_monoid(), unit_params(trivial_monoid()))


def build_e1_broken() -> OmegaAlgebra:
    """E1 with one structure constant overwritten; fails associativity."""
    a = build_e1()
    a.product[(0, 0)][1][1] = [ONE, ZERO]
    return a


def module_bimodule(a: OmegaAlgebra, params: ExampleParams) -> OmegaBimodule:
    """The one-dimensional bimodule attached to the example family."""
    om = a.omega
    left, right = {}, {}
    for x in om.elements():
        for y in om.elements():
            cv = params.c[(x, y)]
            left[(x, y)] = [[[cv]], [[cv]]]
            right[(x, y)] = [[[cv], [cv]]]
    pmap = {x: Mat.from_rows([[params.rmap[x]]]) for x in om.elements()}
    qmap = {x: Mat.from_rows([[params.lmap[x]]]) for x in om.elements()}
    return OmegaBimodule(a, 1, left, right, pmap, qmap, None)


def build_e1_bimodule() -> OmegaBimodule:
    return module_bimodule(build_e1(), unit_params(trivial_monoid()))


def build_e1_semidirect() -> OmegaAlgebra:
    return semidirect_product(build_e1_bimodule())


def searched_rb(a: OmegaAlgebra, weight=Rat(-1), bound: int = 1) -> RotaBaxterFamily:
    """First non-scalar hit of the bounded search, in scan order; no later
    candidate is checked (33 of the 81 on e1 at weight -1, 2625 of 6561 on c2)."""
    hit = first_nonscalar(iter_rbf(a, bound, weight))
    if hit is None:
        raise InternalCheckError(f"no non-scalar family found at weight {weight}")
    return hit


def e1_rbf_context() -> RbfContext:
    a = build_e1()
    rb = searched_rb(a)
    return RbfContext.validated(a, rb, regular_bimodule(a, rb))


def e0_rbf_context() -> RbfContext:
    """E0 with the forced weight-1 family (negative identity)."""
    a = build_e0()
    rb = RotaBaxterFamily(ONE, {0: Mat.scalar(1, -1)})
    return RbfContext.validated(a, rb, regular_bimodule(a, rb))


def zero1_rbf_context() -> RbfContext:
    a = build_zero1()
    rb = RotaBaxterFamily(ONE, {0: Mat.zeros(1, 1)})
    bim = regular_bimodule(a, rb)
    return RbfContext.validated(a, rb, bim)


def c2_params(variant: int = 0, scale=Rat(2)) -> tuple[Monoid, ExampleParams]:
    """Valid parameter sets over the two-element group.

    variant 0: cocycle scaling c(a,b) = scale^(ab), trivial maps;
    variant 1: c(a,b) = (-1)^a with alternating rmap;
    variant 2: c(a,b) = (-1)^b with alternating lmap.

    Any other variant is refused with MalformedInputError.
    """
    if variant not in (0, 1, 2):
        raise MalformedInputError(f"c2 variant must be 0, 1 or 2, got {variant!r}")
    om = cyclic_monoid(2)
    if variant == 0:
        c = {(x, y): scale ** (x * y) if x * y else ONE for x in range(2) for y in range(2)}
        rmap = {0: ONE, 1: ONE}
        lmap = {0: ONE, 1: ONE}
    elif variant == 1:
        c = {(x, y): Rat(-1) ** x if x else ONE for x in range(2) for y in range(2)}
        rmap = {0: ONE, 1: -ONE}
        lmap = {0: ONE, 1: ONE}
    else:
        c = {(x, y): Rat(-1) ** y if y else ONE for x in range(2) for y in range(2)}
        rmap = {0: ONE, 1: ONE}
        lmap = {0: ONE, 1: -ONE}
    params = ExampleParams(c, rmap, lmap)
    problem = validate_example_params(om, params)
    if problem is not None:
        raise InternalCheckError(f"built-in parameter set invalid: {problem}")
    return om, params


def build_c2_example(variant: int = 0) -> OmegaAlgebra:
    om, params = c2_params(variant)
    return build_example_algebra(om, params)


def c2_rbf_context() -> RbfContext:
    a = build_c2_example(0)
    rb = searched_rb(a)
    return RbfContext.validated(a, rb, regular_bimodule(a, rb))


def build_diag(dim: int, omega: Monoid | None = None) -> OmegaAlgebra:
    """Product of ``dim`` copies of the rationals (componentwise product)."""
    om = omega or trivial_monoid()
    product = {}
    for x in om.elements():
        for y in om.elements():
            t = [[[ONE if i == j == k else ZERO for k in range(dim)] for j in range(dim)] for i in range(dim)]
            product[(x, y)] = t
    maps = {x: Mat.identity(dim) for x in om.elements()}
    return OmegaAlgebra(om, dim, product, dict(maps), dict(maps))


def build_truncated_poly(dim: int, omega: Monoid | None = None) -> OmegaAlgebra:
    """k[x]/(x^dim) in the basis 1, x, ..., x^(dim-1)."""
    om = omega or trivial_monoid()
    product = {}
    for x in om.elements():
        for y in om.elements():
            t = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
            for i in range(dim):
                for j in range(dim):
                    if i + j < dim:
                        t[i][j][i + j] = ONE
            product[(x, y)] = t
    maps = {x: Mat.identity(dim) for x in om.elements()}
    return OmegaAlgebra(om, dim, product, dict(maps), dict(maps))
