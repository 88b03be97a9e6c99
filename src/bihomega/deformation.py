"""Linear and formal deformations, Nijenhuis families, rigidity.

The formal parameter is never reified: a deformation is stored as its list
of order components, and every statement about it is checked coefficient by
coefficient.  The independent route through truncated polynomial scalars
lives with the other test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    OmegaAlgebra,
    Witness,
    is_homomorphism,
    tensor_zeros,
    validate_algebra,
)
from .bimodule import regular_bimodule
from .cochain import Cochain, apply_delta, cochain_from_maps, delta_op, is_equivariant
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .gerstenhaber import algebra_with_product, mu_cochain
from .rationals import ONE, ZERO
from .rbf import CombinedCochain, RbfContext, d_combined, phi, rbfa_cohomology_dims


@dataclass(frozen=True)
class LinearDeformationReport:
    equivariant: bool
    cocycle: bool
    self_associative: bool

    def all_ok(self) -> bool:
        return self.equivariant and self.cocycle and self.self_associative


def check_linear_deformation(a: OmegaAlgebra, mu1: Cochain) -> LinearDeformationReport:
    """Three flags for a degree-2 candidate direction.

    equivariant: the candidate respects both structure map families;
    cocycle: its coboundary vanishes; self_associative: it satisfies the
    twisted associativity law on its own.  All three hold exactly when the
    first-order deformed product stays an algebra modulo t^2.
    """
    if mu1.degree != 2 or mu1.dim_in != a.dim or mu1.dim_out != a.dim:
        raise MalformedInputError("expected a degree-2 cochain on the carrier")
    reg = regular_bimodule(a)
    equivariant = is_equivariant(reg, mu1)
    cocycle = not any(delta_op(reg, 2).apply_dense(mu1.coords))
    cand = algebra_with_product(a, mu1)
    self_associative = _associativity_only(cand) is None
    return LinearDeformationReport(equivariant, cocycle, self_associative)


def _associativity_only(a: OmegaAlgebra) -> Witness | None:
    om = a.omega
    d = a.dim
    for x in om.elements():
        for y in om.elements():
            for z in om.elements():
                yz, xy = om.mul(y, z), om.mul(x, y)
                for i in range(d):
                    pi = a.pmap[x].col(i)
                    for j in range(d):
                        for k in range(d):
                            lhs = a.mul_vec((x, yz), pi, a.mul_basis((y, z), j, k))
                            rhs = a.mul_vec((xy, z), a.mul_basis((x, y), i, j), a.qmap[z].col(k))
                            if lhs != rhs:
                                return Witness(
                                    "bihom-associativity", (x, y, z), (i, j, k), tuple(lhs), tuple(rhs)
                                )
    return None


@dataclass(eq=False)
class NijenhuisFamily:
    maps: dict  # a -> d x d Mat


def check_nijenhuis(a: OmegaAlgebra, nf: NijenhuisFamily) -> Witness | None:
    """Structure-map commutation, then the deformed-product identity."""
    om = a.omega
    d = a.dim
    for x in om.elements():
        n = nf.maps.get(x)
        if n is None or n.rows != d or n.cols != d:
            raise MalformedInputError(f"family map [{x}] is not {d}x{d}")
    for x in om.elements():
        n = nf.maps[x]
        for name, m in (("nijenhuis-p-commute", a.pmap[x]), ("nijenhuis-q-commute", a.qmap[x])):
            lhs, rhs = m.mul(n), n.mul(m)
            if lhs != rhs:
                for j in range(d):
                    lc, rc = lhs.col(j), rhs.col(j)
                    if lc != rc:
                        return Witness(name, (x,), (j,), tuple(lc), tuple(rc))
    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            nxy = nf.maps[om.mul(x, y)]
            nx, ny = nf.maps[x], nf.maps[y]
            for i in range(d):
                nxi = nx.col(i)
                ei = a.basis_vector(i)
                for j in range(d):
                    nyj = ny.col(j)
                    lhs = a.mul_vec(key, nxi, nyj)
                    inner = a.mul_vec(key, ei, nyj)
                    for k, v in enumerate(a.mul_vec(key, nxi, a.basis_vector(j))):
                        inner[k] += v
                    for k, v in enumerate(nxy.matvec(a.mul_basis(key, i, j))):
                        inner[k] -= v
                    rhs = nxy.matvec(inner)
                    if lhs != rhs:
                        return Witness("nijenhuis", (x, y), (i, j), tuple(lhs), tuple(rhs))
    return None


def deformed_product_tensor(a: OmegaAlgebra, maps: dict) -> dict:
    """mu(N x, y) + mu(x, N y) - N mu(x, y), as structure constants."""
    d = a.dim
    out = {}
    for key in a.product:
        x, y = key
        nx, ny, nxy = maps[x], maps[y], maps[a.omega.mul(x, y)]
        t = tensor_zeros(d, d, d)
        for i in range(d):
            nxi = nx.col(i)
            ei = a.basis_vector(i)
            for j in range(d):
                acc = a.mul_vec(key, nxi, a.basis_vector(j))
                for k, v in enumerate(a.mul_vec(key, ei, ny.col(j))):
                    acc[k] += v
                for k, v in enumerate(nxy.matvec(a.mul_basis(key, i, j))):
                    acc[k] -= v
                t[i][j] = acc
        out[key] = t
    return out


def deformed_product(
    a: OmegaAlgebra, nf: NijenhuisFamily, check: bool = True
) -> tuple[OmegaAlgebra, Witness | None]:
    """The deformed algebra and the homomorphism check of the family into
    the original product."""
    if check:
        witness = check_nijenhuis(a, nf)
        if witness is not None:
            raise PreconditionError(f"not a Nijenhuis family: {witness.describe()}")
    deformed = OmegaAlgebra(
        a.omega, a.dim, deformed_product_tensor(a, nf.maps), dict(a.pmap), dict(a.qmap)
    )
    hom_witness = is_homomorphism(nf.maps, deformed, a)
    return deformed, hom_witness


@dataclass(frozen=True)
class PsiReport:
    psi_zero: bool
    nijenhuis_ok: bool
    deformed_valid: bool
    psi_cocycle: bool
    deformed: OmegaAlgebra  # the algebra with the deformed product, valid or not


def psi_n(a: OmegaAlgebra, maps: dict) -> tuple[Cochain, PsiReport]:
    """The square-style defect 2-cochain of an arbitrary commuting family.

    psi(x, y) = mu(N x, N y) - N(mu^N(x, y)).  Two equivalences are asserted
    on the instance: psi = 0 iff the family is Nijenhuis, and the deformed
    product is an algebra iff psi is a 2-cocycle.
    """
    nf = NijenhuisFamily(maps)
    witness = check_nijenhuis(a, nf)
    if witness is not None and witness.equation.endswith("-commute"):
        x = witness.omega_indices[0]
        raise PreconditionError(f"family map [{x}] does not commute with structure maps")
    return psi_of_checked(a, nf, witness)


def psi_of_checked(
    a: OmegaAlgebra, nf: NijenhuisFamily, witness: Witness | None
) -> tuple[Cochain, PsiReport]:
    """:func:`psi_n` of a commuting family whose :func:`check_nijenhuis` gave ``witness``."""
    om = a.omega
    d = a.dim
    maps = nf.maps
    mun = deformed_product_tensor(a, maps)
    psi = Cochain.zero(2, om.size, d, d)
    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            nx, ny, nxy = maps[x], maps[y], maps[om.mul(x, y)]
            base = psi.block_base(key)
            for i in range(d):
                nxi = nx.col(i)
                for j in range(d):
                    val = a.mul_vec(key, nxi, ny.col(j))
                    for k, v in enumerate(nxy.matvec(mun[key][i][j])):
                        val[k] -= v
                    off = base + (i * d + j) * d
                    for k in range(d):
                        psi.coords[off + k] = val[k]
    nijenhuis_ok = witness is None
    psi_zero = psi.is_zero()
    if psi_zero != nijenhuis_ok:
        raise InternalCheckError("psi = 0 disagrees with the Nijenhuis check")
    deformed = OmegaAlgebra(om, d, mun, dict(a.pmap), dict(a.qmap))
    deformed_valid = validate_algebra(deformed) is None
    reg = regular_bimodule(a)
    psi_cocycle = not any(delta_op(reg, 2).apply_dense(psi.coords))
    if deformed_valid != psi_cocycle:
        raise InternalCheckError("deformed-product validity disagrees with the cocycle test")
    return psi, PsiReport(psi_zero, nijenhuis_ok, deformed_valid, psi_cocycle, deformed)


# -- formal deformation jets ----------------------------------------------


@dataclass(eq=False)
class DeformationJet:
    """Order components of a formal deformation of (product, operator family)."""

    order: int
    mu_orders: list  # degree-2 cochains, orders 1..K
    r_orders: list  # degree-1 cochains, orders 1..K

    def __post_init__(self):
        if self.order < 1:
            raise MalformedInputError("jet order must be >= 1")
        if len(self.mu_orders) != self.order or len(self.r_orders) != self.order:
            raise MalformedInputError("jet component count does not match order")


@dataclass(frozen=True)
class JetOrderReport:
    order: int
    associativity: bool
    operator_identity: bool


@dataclass(frozen=True)
class JetReport:
    equivariant: bool
    orders: tuple

    def all_ok(self) -> bool:
        return self.equivariant and all(o.associativity and o.operator_identity for o in self.orders)


def check_jet(ctx: RbfContext, jet: DeformationJet) -> JetReport:
    """Order-by-order convolution identities for a deformation jet.

    At order 1 the pair of identities is additionally asserted equivalent to
    the pair being a combined 2-cocycle.
    """
    a = ctx.algebra
    om = a.omega
    d = a.dim
    reg = regular_bimodule(a)
    equivariant = all(is_equivariant(reg, f) for f in jet.mu_orders) and all(
        is_equivariant(reg, f) for f in jet.r_orders
    )
    mu_all = [mu_cochain(a)] + list(jet.mu_orders)
    r_all = [cochain_from_maps(om, ctx.rb.maps, d, d)] + list(jet.r_orders)
    orders = []
    for n in range(1, jet.order + 1):
        assoc = _jet_assoc_order(a, mu_all, n)
        oper = _jet_operator_order(ctx, mu_all, r_all, n)
        if n == 1:
            pair = CombinedCochain(jet.mu_orders[0], jet.r_orders[0])
            d2 = d_combined(ctx, pair, check=False)
            if (assoc and oper) != d2.is_zero():
                raise InternalCheckError(
                    "order-1 identities disagree with the combined cocycle test"
                )
        orders.append(JetOrderReport(n, assoc, oper))
    return JetReport(equivariant, tuple(orders))


def _jet_assoc_order(a: OmegaAlgebra, mu_all, n: int) -> bool:
    om = a.omega
    d = a.dim
    for x in om.elements():
        for y in om.elements():
            for z in om.elements():
                yz, xy = om.mul(y, z), om.mul(x, y)
                for i in range(d):
                    pi = a.pmap[x].col(i)
                    for j in range(d):
                        for k in range(d):
                            qk = a.qmap[z].col(k)
                            lhs = [ZERO] * d
                            rhs = [ZERO] * d
                            for t in range(n + 1):
                                inner = mu_all[n - t].value((x, y), (i, j))
                                term = mu_all[t].evaluate((xy, z), [inner, qk])
                                for s in range(d):
                                    lhs[s] += term[s]
                                inner = mu_all[n - t].value((y, z), (j, k))
                                term = mu_all[t].evaluate((x, yz), [pi, inner])
                                for s in range(d):
                                    rhs[s] += term[s]
                            if lhs != rhs:
                                return False
    return True


def _jet_operator_order(ctx: RbfContext, mu_all, r_all, n: int) -> bool:
    a = ctx.algebra
    om = a.omega
    d = a.dim
    w = ctx.rb.weight
    for x in om.elements():
        for y in om.elements():
            key = (x, y)
            xy = om.mul(x, y)
            for i in range(d):
                for j in range(d):
                    lhs = [ZERO] * d
                    ei, ej = a.basis_vector(i), a.basis_vector(j)
                    for s1 in range(n + 1):
                        for s2 in range(n + 1 - s1):
                            s3 = n - s1 - s2
                            rx = r_all[s2].evaluate((x,), [ei])
                            ry = r_all[s3].evaluate((y,), [ej])
                            term = mu_all[s1].evaluate(key, [rx, ry])
                            for t in range(d):
                                lhs[t] += term[t]
                    rhs = [ZERO] * d
                    for s1 in range(n + 1):
                        for s2 in range(n + 1 - s1):
                            s3 = n - s1 - s2
                            ry = r_all[s3].evaluate((y,), [ej])
                            inner = mu_all[s2].evaluate(key, [ei, ry])
                            term = r_all[s1].evaluate((xy,), [inner])
                            for t in range(d):
                                rhs[t] += term[t]
                            rx = r_all[s3].evaluate((x,), [ei])
                            inner = mu_all[s2].evaluate(key, [rx, ej])
                            term = r_all[s1].evaluate((xy,), [inner])
                            for t in range(d):
                                rhs[t] += term[t]
                    for s1 in range(n + 1):
                        inner = mu_all[n - s1].value(key, (i, j))
                        term = r_all[s1].evaluate((xy,), [inner])
                        for t in range(d):
                            rhs[t] += w * term[t]
                    if lhs != rhs:
                        return False
    return True


def equivalence_shift(ctx: RbfContext, psi1: Cochain) -> CombinedCochain:
    """Image of a degree-1 algebra cochain under the combined differential.

    Two order-1 jets differing by this pair are equivalent at order 1.
    """
    if psi1.degree != 1:
        raise MalformedInputError("expected a degree-1 cochain")
    if not is_equivariant(ctx.bimodule, psi1):
        raise PreconditionError("cochain is not equivariant")
    return CombinedCochain(
        apply_delta(ctx.bimodule, psi1, check=False), phi(ctx, psi1).scale(-ONE)
    )


@dataclass(frozen=True)
class RigidityReport:
    h2_dim: int
    rigid: bool

    def to_json(self) -> dict:
        return {"h2_dim": self.h2_dim, "rigid": self.rigid}


def rigidity_report(ctx: RbfContext) -> RigidityReport:
    """Sufficient condition only: vanishing combined second cohomology."""
    reports = rbfa_cohomology_dims(ctx, 2)
    h2 = reports["rbfa"].rows[2].dim_cohomology
    return RigidityReport(h2, h2 == 0)
