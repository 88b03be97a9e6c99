"""Seeded random generation of valid structures, for tests.

Every generator returns a structure that validates: it re-draws until its
candidate passes, deterministically for a fixed seed.  Random algebras come
from constructions that are valid by design: zero products with commuting
diagonal structure maps, the two-dimensional scaled example family, twists
of associative cores (diagonal algebras, truncated polynomial algebras) by
automorphism families, and semidirect products.
"""

from bihomega.algebra import (
    ExampleParams,
    OmegaAlgebra,
    build_example_algebra,
    validate_algebra,
    yau_twist,
    zero_algebra,
    zero_rb,
)
from bihomega.bimodule import (
    OmegaBimodule,
    regular_bimodule,
    semidirect_product,
    validate_bimodule,
    zero_bimodule,
)
from bihomega.errors import InternalCheckError
from bihomega.linalg import Mat
from bihomega.monoid import Monoid, boolean_monoid, cyclic_monoid, trivial_monoid
from bihomega.rationals import ONE, Rat
from bihomega.samples import build_diag, build_e1, build_truncated_poly, c2_params, module_bimodule, unit_params


_MONOIDS = (trivial_monoid(), cyclic_monoid(2), boolean_monoid())
_SCALARS = (Rat(1), Rat(2), Rat(-1), Rat(1, 2), Rat(3))


def _random_diag_family(rng, omega: Monoid, dim: int, invertible: bool = False) -> dict:
    out = {}
    for x in omega.elements():
        entries = []
        for _ in range(dim):
            v = rng.choice(_SCALARS) if invertible else Rat(rng.randint(-2, 2))
            entries.append(v)
        m = Mat.zeros(dim, dim)
        for i, v in enumerate(entries):
            m.entries[i * dim + i] = v
        out[x] = m
    return out


def _cocycle_scale(rng, omega: Monoid) -> dict:
    t = rng.choice(_SCALARS)
    s = rng.choice(_SCALARS)
    return {
        (x, y): s * (t ** (x * y) if x * y else ONE)
        for x in omega.elements()
        for y in omega.elements()
    }


def _scale_product(a: OmegaAlgebra, c: dict) -> OmegaAlgebra:
    product = {}
    for key, t in a.product.items():
        cv = c[key]
        product[key] = [[[cv * v for v in row] for row in plane] for plane in t]
    return OmegaAlgebra(a.omega, a.dim, product, dict(a.pmap), dict(a.qmap))


def _random_core(rng, omega: Monoid, dim: int) -> OmegaAlgebra:
    kind = rng.choice(("diag", "poly"))
    core = build_diag(dim, omega) if kind == "diag" else build_truncated_poly(dim, omega)
    # constant automorphism family: permutation cycle for the diagonal
    # algebra, scaling x -> u x for the truncated polynomial algebra
    if kind == "diag":
        perm = list(range(dim))
        rng.shuffle(perm)
        phi = Mat.zeros(dim, dim)
        for j, i in enumerate(perm):
            phi.entries[i * dim + j] = ONE
    else:
        u = rng.choice((Rat(2), Rat(-1), Rat(1, 2), Rat(3)))
        phi = Mat.zeros(dim, dim)
        acc = ONE
        for i in range(dim):
            phi.entries[i * dim + i] = acc
            acc *= u
    jp, jq = rng.randint(0, 2), rng.randint(0, 2)
    pmap = {x: phi.power(jp) for x in omega.elements()}
    qmap = {x: phi.power(jq) for x in omega.elements()}
    twisted, _ = yau_twist(core, zero_rb(core), pmap, qmap)
    scaled = _scale_product(twisted, _cocycle_scale(rng, omega))
    return scaled


def random_valid_algebra(rng, max_dim: int = 3) -> OmegaAlgebra:
    """A validated random algebra with dim <= max_dim, monoid size <= 2."""
    for _ in range(40):
        omega = rng.choice(_MONOIDS)
        kind = rng.choice(("zero", "example", "twist", "semidirect"))
        try:
            if kind == "zero":
                dim = rng.randint(1, max_dim)
                a = zero_algebra(
                    omega,
                    dim,
                    _random_diag_family(rng, omega, dim),
                    _random_diag_family(rng, omega, dim),
                )
            elif kind == "example":
                if omega.size == 1:
                    c = {(0, 0): rng.choice(_SCALARS)}
                    params = ExampleParams(c, {0: ONE}, {0: ONE})
                    a = build_example_algebra(omega, params)
                else:
                    om2, params = c2_params(rng.randint(0, 2), rng.choice(_SCALARS))
                    a = build_example_algebra(om2, params)
            elif kind == "twist":
                dim = rng.randint(1, max_dim)
                a = _random_core(rng, omega, dim)
            else:
                if omega.size == 1:
                    base = build_e1()
                    bim = module_bimodule(base, unit_params(omega))
                else:
                    om2, params = c2_params(rng.randint(0, 2), rng.choice(_SCALARS))
                    base = build_example_algebra(om2, params)
                    bim = module_bimodule(base, params)
                if validate_bimodule(bim) is not None:
                    continue
                a = semidirect_product(bim, check=False)
        except Exception:
            continue
        if a.dim <= max_dim and validate_algebra(a) is None:
            return a
    raise InternalCheckError("random algebra generation failed to converge")


def random_valid_bimodule(rng, a: OmegaAlgebra, max_dim_m: int = 2) -> OmegaBimodule:
    """A validated random bimodule over the given algebra."""
    for _ in range(40):
        choices = ["zero"]
        if a.dim <= max_dim_m:
            choices.append("regular")
        kind = rng.choice(choices)
        if kind == "regular":
            b = regular_bimodule(a)
        else:
            dim_m = rng.randint(0, max_dim_m)
            b = zero_bimodule(
                a,
                dim_m,
                _random_diag_family(rng, a.omega, dim_m),
                _random_diag_family(rng, a.omega, dim_m),
            )
        if validate_bimodule(b) is None:
            return b
    raise InternalCheckError("random bimodule generation failed to converge")


def random_valid_pair(rng, max_dim: int = 3, max_dim_m: int = 2):
    a = random_valid_algebra(rng, max_dim)
    b = random_valid_bimodule(rng, a, max_dim_m)
    return a, b
