"""Linear and formal deformations, Nijenhuis families, rigidity.

The formal parameter is never reified: a deformation is stored as its list
of order components, and every statement about it is checked coefficient by
coefficient.  Each identity is a signed sum of insertions, a list of
terms (c, f, g, i) that ``gerstenhaber.insertion_sum`` adds up in one
accumulating pass:

* the order-n coefficient of a jet's product equation is the Maurer-Cartan
  equation of the insertion bracket (Gerstenhaber 1964, Ann. Math. 79),
  sum_t (mu_t oc_1 mu_{n-t} - mu_t oc_2 mu_{n-t}) = 0, and its operator
  equation is the matching sum of :func:`_jet_operator_order`;
* a degree-2 direction is self-associative when the one-term jet [mu1]
  satisfies the order-0 product equation;
* the Nijenhuis deformed product is mu^N = mu oc_1 N + mu oc_2 N - N oc_1 mu,
  and its defect is psi = (mu oc_1 N) oc_2 N - N oc_1 mu^N.

Equivariance of the components is reported, not required, so the
insertions run unchecked.  Three cross-checks against independent routes
raise ``InternalCheckError``: the order-1 jet equations against
``rbf.d_combined``, psi = 0 against the witness search of
:func:`check_nijenhuis`, and validity of mu^N against the cocycle test of
psi.  The route through truncated polynomial scalars lives with the other
test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    OmegaAlgebra, Witness, _commute_scan, _refuse_witness, _star_entry, ensure_family, is_homomorphism,
    validate_algebra,
)
from .bimodule import regular_bimodule
from .cochain import Cochain, cochain_from_maps, delta_op, is_equivariant
from .errors import InternalCheckError, MalformedInputError, PreconditionError
from .gerstenhaber import algebra_with_product, circ_i, insertion_sum, mu_cochain
from .rationals import ONE, ZERO
from .rbf import CombinedCochain, RbfContext, d_combined, rbfa_cohomology_dims


class LinearDeformationReport(NamedTuple):
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
    self_associative = _jet_assoc_order(a, [mu1], 0)
    return LinearDeformationReport(equivariant, cocycle, self_associative)


class NijenhuisFamily:
    """Operators ``maps[a]``, d x d Mats."""

    __slots__ = ("maps",)

    def __init__(self, maps: dict):
        self.maps = maps


def check_nijenhuis(a: OmegaAlgebra, nf: NijenhuisFamily) -> Witness | None:
    """Structure-map commutation, then the deformed-product identity."""
    om, d, n = a.omega, a.dim, nf.maps
    ensure_family(n, om, d, d, "Nijenhuis map")
    witness = _commute_scan(("nijenhuis-p-commute", "nijenhuis-q-commute"), om, n, (a.pmap, a.qmap))
    if witness is not None:
        return witness
    for x in om.elements():
        for y in om.elements():
            key, t, nxy = (x, y), a.product[(x, y)], n[om.mul(x, y)]
            nx, ny = n[x], n[y]
            for i in range(d):
                nxi = nx.col(i)
                for j in range(d):
                    nyj = ny.col(j)
                    lhs = a.mul_vec(key, nxi, nyj)
                    inner = _star_entry(t, nxi, nyj, i, j, ZERO, d)
                    rhs = nxy.matvec([u - v for u, v in zip(inner, nxy.matvec(t[i][j]))])
                    if lhs != rhs:
                        return Witness("nijenhuis", key, (i, j), tuple(lhs), tuple(rhs))
    return None


def deformed_mu(a: OmegaAlgebra, maps: dict) -> Cochain:
    """mu^N = mu oc_1 N + mu oc_2 N - N oc_1 mu: mu(N x, y) + mu(x, N y) - N mu(x, y)."""
    ensure_family(maps, a.omega, a.dim, a.dim, "Nijenhuis map")
    mu, n = mu_cochain(a), cochain_from_maps(a.omega, maps, a.dim, a.dim)
    return insertion_sum(a, 2, [(ONE, mu, n, 1), (ONE, mu, n, 2), (-ONE, n, mu, 1)])


def deformed_product(
    a: OmegaAlgebra, nf: NijenhuisFamily, check: bool = True
) -> tuple[OmegaAlgebra, Witness | None]:
    """The deformed algebra and the homomorphism check of the family into
    the original product."""
    if check:
        _refuse_witness(check_nijenhuis(a, nf), "not a Nijenhuis family")
    deformed = algebra_with_product(a, deformed_mu(a, nf.maps))
    hom_witness = is_homomorphism(nf.maps, deformed, a)
    return deformed, hom_witness


class PsiReport(NamedTuple):
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
    mu, n = mu_cochain(a), cochain_from_maps(a.omega, nf.maps, a.dim, a.dim)
    mun = deformed_mu(a, nf.maps)
    psi = insertion_sum(a, 2, [(ONE, circ_i(a, mu, n, 1, check=False), n, 2), (-ONE, n, mun, 1)])
    nijenhuis_ok = witness is None
    psi_zero = psi.is_zero()
    if psi_zero != nijenhuis_ok:
        raise InternalCheckError("psi = 0 disagrees with the Nijenhuis check")
    deformed = algebra_with_product(a, mun)
    deformed_valid = validate_algebra(deformed) is None
    reg = regular_bimodule(a)
    psi_cocycle = not any(delta_op(reg, 2).apply_dense(psi.coords))
    if deformed_valid != psi_cocycle:
        raise InternalCheckError("deformed-product validity disagrees with the cocycle test")
    return psi, PsiReport(psi_zero, nijenhuis_ok, deformed_valid, psi_cocycle, deformed)


# -- formal deformation jets ----------------------------------------------


class DeformationJet:
    """Order components of a formal deformation of (product, operator family):
    ``mu_orders`` the degree-2 and ``r_orders`` the degree-1 cochains of
    orders 1..K, K = ``order``."""

    __slots__ = ("order", "mu_orders", "r_orders")

    def __init__(self, order: int, mu_orders: list, r_orders: list):
        if order < 1:
            raise MalformedInputError("jet order must be >= 1")
        if len(mu_orders) != order or len(r_orders) != order:
            raise MalformedInputError("jet component count does not match order")
        if any(f.degree != 2 for f in mu_orders) or any(f.degree != 1 for f in r_orders):
            raise MalformedInputError("jet components need degree 2 (product) and 1 (operator)")
        components = [*mu_orders, *r_orders]
        if len({(f.omega_size, f.dim_in, f.dim_out) for f in components}) > 1:
            raise MalformedInputError("jet components differ in shape")
        self.order = order
        self.mu_orders = mu_orders
        self.r_orders = r_orders


class JetOrderReport(NamedTuple):
    order: int
    associativity: bool
    operator_identity: bool


class JetReport(NamedTuple):
    equivariant: bool
    orders: tuple

    def all_ok(self) -> bool:
        return self.equivariant and all(o.associativity and o.operator_identity for o in self.orders)


def check_jet(ctx: RbfContext, jet: DeformationJet) -> JetReport:
    """Order-by-order identities of a deformation jet, as insertion sums.

    At order 1 the pair of identities is additionally asserted equivalent to
    the pair being a combined 2-cocycle.
    """
    a = ctx.algebra
    reg = regular_bimodule(a)
    equivariant = all(is_equivariant(reg, f) for f in [*jet.mu_orders, *jet.r_orders])
    mu_all = [mu_cochain(a)] + list(jet.mu_orders)
    r_all = [cochain_from_maps(a.omega, ctx.rb.maps, a.dim, a.dim)] + list(jet.r_orders)
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
    """Order n of the product equation: sum_t (mu_t oc_1 mu_{n-t} - mu_t oc_2 mu_{n-t}) = 0."""
    slots = ((ONE, 1), (-ONE, 2))
    terms = [(c, mu_all[t], mu_all[n - t], i) for t in range(n + 1) for c, i in slots]
    return insertion_sum(a, 3, terms).is_zero()


def _jet_operator_order(ctx: RbfContext, mu_all, r_all, n: int) -> bool:
    """Order n of the operator equation R(x) R(y) = R(R(x) y + x R(y) + weight x y):

    sum over s1 + s2 + s3 = n of (mu_s1 oc_1 R_s2) oc_2 R_s3
    - R_s1 oc_1 (mu_s2 oc_2 R_s3) - R_s1 oc_1 (mu_s2 oc_1 R_s3),
    minus weight * sum_s R_s oc_1 mu_{n-s}, vanishes.
    """
    a = ctx.algebra
    terms = []
    for s1 in range(n + 1):
        for s2 in range(n + 1 - s1):
            r3 = r_all[n - s1 - s2]
            terms.append((ONE, circ_i(a, mu_all[s1], r_all[s2], 1, check=False), r3, 2))
            for i in (2, 1):
                terms.append((-ONE, r_all[s1], circ_i(a, mu_all[s2], r3, i, check=False), 1))
        terms.append((-ctx.rb.weight, r_all[s1], mu_all[n - s1], 1))
    return insertion_sum(a, 2, terms).is_zero()


def equivalence_shift(ctx: RbfContext, psi1: Cochain) -> CombinedCochain:
    """Image of a degree-1 algebra cochain under the combined differential:
    d of (psi1, 0 in C^0).

    Two order-1 jets differing by this pair are equivalent at order 1.
    """
    if psi1.degree != 1:
        raise MalformedInputError("expected a degree-1 cochain")
    zero = Cochain.zero(0, psi1.omega_size, psi1.dim_in, psi1.dim_out)
    return d_combined(ctx, CombinedCochain(psi1, zero))


class RigidityReport(NamedTuple):
    h2_dim: int
    rigid: bool

    def to_json(self) -> dict:
        return {"h2_dim": self.h2_dim, "rigid": self.rigid}


def rigidity_report(ctx: RbfContext) -> RigidityReport:
    """Sufficient condition only: vanishing combined second cohomology."""
    reports = rbfa_cohomology_dims(ctx, 2)
    h2 = reports["rbfa"].rows[2].dim_cohomology
    return RigidityReport(h2, h2 == 0)
