"""Contracts of the record classes: construction, equality, hashing, repr.

Value records (witnesses, reports, the monoid) compare and hash by value and,
except the monoid, refuse attribute assignment.  Structures that carry a
``_cache`` compare by identity, so two built from the same data never share
compiled operators.  Cochains and pairs of cochains compare by value.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bihomega.algebra import OmegaAlgebra, Witness
from bihomega.bimodule import OmegaBimodule
from bihomega.cochain import Cochain, CohomologyReport, DegreeRow
from bihomega.deformation import (
    DeformationJet,
    JetOrderReport,
    JetReport,
    LinearDeformationReport,
    PsiReport,
    RigidityReport,
)
from bihomega.errors import MalformedInputError, PreconditionError
from bihomega.extension import CocyclePair
from bihomega.linalg import Mat
from bihomega.monoid import Monoid, MonoidViolation
from bihomega.rationals import ONE, ZERO
from bihomega.rbf import CombinedCochain, RbfContext
from bihomega.serialization import WorkbenchFile

SRC = Path(__file__).resolve().parent.parent / "src"

WORKBENCH_FIELDS = (
    "monoid",
    "monoid_names",
    "algebra",
    "rota_baxter",
    "bimodule",
    "twist_p",
    "twist_q",
    "nijenhuis",
    "cochain",
    "cochain_target",
    "jet",
    "cocycle_pair",
    "extension",
)


def _value_records(e1):
    """Pairs of equal records built separately, one pair per class."""
    return [
        (Witness("rota-baxter", (0, 1), (1, 0), (ONE, ZERO), (ZERO, 2)),
         Witness("rota-baxter", (0, 1), (1, 0), (ONE, ZERO), (ZERO, 2))),
        (MonoidViolation("unit", (1,)), MonoidViolation("unit", (1,))),
        (Monoid(2, 0, ((0, 1), (1, 1))), Monoid(2, 0, ((0, 1), (1, 1)))),
        (LinearDeformationReport(True, False, True), LinearDeformationReport(True, False, True)),
        (PsiReport(False, False, True, True, e1), PsiReport(False, False, True, True, e1)),
        (JetOrderReport(1, True, False), JetOrderReport(1, True, False)),
        (JetReport(True, (JetOrderReport(1, True, True),)), JetReport(True, (JetOrderReport(1, True, True),))),
        (RigidityReport(0, True), RigidityReport(0, True)),
    ]


def test_value_records_compare_and_hash_by_value(e1):
    for x, y in _value_records(e1):
        assert x is not y and x == y and hash(x) == hash(y), type(x).__name__
    assert Witness("w", (0,), (0,), (ONE,), (ZERO,)) != Witness("w", (0,), (1,), (ONE,), (ZERO,))
    assert Monoid(1, 0, ((0,),)) != Monoid(2, 0, ((0, 1), (1, 1)))
    assert RigidityReport(1, False) != RigidityReport(0, True)


def test_cohomology_rows_and_reports_compare_by_value():
    row = DegreeRow(1, 4, 2, 1, 1)
    assert row == DegreeRow(1, 4, 2, 1, 1) and row != DegreeRow(1, 4, 2, 0, 2)
    report = CohomologyReport([DegreeRow(0, 2, 1, 0, 1), row])
    assert report == CohomologyReport([DegreeRow(0, 2, 1, 0, 1), DegreeRow(1, 4, 2, 1, 1)], False)
    assert report != CohomologyReport(report.rows, True)
    assert report.degree0_intersected is False and report.dims() == [1, 1]


def test_witnesses_and_reports_refuse_assignment(e1):
    for record, _ in _value_records(e1):
        if isinstance(record, Monoid):
            continue
        first = next(iter(type(record).__annotations__))
        with pytest.raises(AttributeError):
            setattr(record, first, None)


def test_witness_repr_is_pinned():
    w = Witness("rota-baxter", (0, 1), (1, 0), (1, 0), (0, 2))
    assert repr(w) == (
        "Witness(equation='rota-baxter', omega_indices=(0, 1), basis_indices=(1, 0), lhs=(1, 0), rhs=(0, 2))"
    )


def test_structures_with_caches_compare_by_identity(e1_ctx):
    a = e1_ctx.algebra
    a1, a2 = (OmegaAlgebra(a.omega, a.dim, a.product, a.pmap, a.qmap) for _ in range(2))
    b = e1_ctx.bimodule
    b1, b2 = (OmegaBimodule(a1, b.dim_m, b.left, b.right, b.pmap, b.qmap, b.tmap) for _ in range(2))
    c1, c2 = (RbfContext(a1, e1_ctx.rb, b1) for _ in range(2))
    for x, y in ((a1, a2), (b1, b2), (c1, c2)):
        assert x == x and x != y and len({x, y}) == 2
        assert x._cache == {} and x._cache is not y._cache


def test_cochains_and_pairs_compare_by_value():
    f = Cochain(1, 1, 2, 2, [ONE, ZERO, ZERO, ONE])
    g = Cochain(1, 1, 2, 2, [ONE, ZERO, ZERO, ONE])
    h = Cochain(2, 1, 2, 2, [ZERO] * 8)
    assert f == g and f != f.scale(2) and f != Cochain(1, 1, 4, 1, list(f.coords))
    assert CocyclePair(h, f) == CocyclePair(h, g) and CocyclePair(h, f) != CocyclePair(h, f.scale(2))
    assert CombinedCochain(h, f) == CombinedCochain(h, g) and CombinedCochain(f, None) != CombinedCochain(f, g)
    assert CombinedCochain(h, f).sub(CombinedCochain(h, g)).is_zero()
    for x, y in ((CombinedCochain(f, None), CombinedCochain(f, g)), (CombinedCochain(f, g), CombinedCochain(f, None))):
        with pytest.raises(MalformedInputError, match="combined cochain shape mismatch"):
            x.sub(y)


def test_workbench_file_construction(e1):
    wf = WorkbenchFile(e1.omega)
    assert wf.monoid is e1.omega
    assert all(getattr(wf, name) is None for name in WORKBENCH_FIELDS[1:])
    for name in WORKBENCH_FIELDS[1:]:
        value = object()
        assert getattr(WorkbenchFile(e1.omega, **{name: value}), name) is value
    assert WorkbenchFile(monoid=e1.omega, monoid_names=["e"]).monoid_names == ["e"]
    wf.algebra = e1
    assert wf.algebra is e1


def test_positional_construction_of_algebras_and_bimodules(e1_ctx):
    a, b = e1_ctx.algebra, e1_ctx.bimodule
    a1 = OmegaAlgebra(a.omega, a.dim, a.product, a.pmap, a.qmap)
    assert (a1.omega, a1.dim, a1.product, a1.pmap, a1.qmap) == (a.omega, a.dim, a.product, a.pmap, a.qmap)
    b1 = OmegaBimodule(a1, b.dim_m, b.left, b.right, b.pmap, b.qmap)
    assert (b1.base, b1.dim_m, b1.left, b1.right, b1.pmap, b1.qmap, b1.tmap) == (
        a1, b.dim_m, b.left, b.right, b.pmap, b.qmap, None
    )
    assert OmegaBimodule(a1, b.dim_m, b.left, b.right, b.pmap, b.qmap, b.tmap).tmap is b.tmap


def test_context_and_jet_refusals(e1_ctx):
    a, b = e1_ctx.algebra, e1_ctx.bimodule
    no_tmap = OmegaBimodule(a, b.dim_m, b.left, b.right, b.pmap, b.qmap)
    with pytest.raises(PreconditionError, match="^context bimodule needs a tmap family$"):
        RbfContext(a, e1_ctx.rb, no_tmap)
    other = OmegaAlgebra(a.omega, a.dim, a.product, {0: Mat.scalar(2, 3)}, a.qmap)
    with pytest.raises(MalformedInputError, match="^bimodule base differs from the context algebra$"):
        RbfContext(other, e1_ctx.rb, b)
    mu, r = Cochain.zero(2, 1, 2, 2), Cochain.zero(1, 1, 2, 2)
    assert DeformationJet(1, [mu], [r]).order == 1
    for args, message in (
        ((0, [], []), "jet order must be >= 1"),
        ((1, [mu, mu], [r]), "jet component count does not match order"),
        ((1, [r], [r]), r"jet components need degree 2 \(product\) and 1 \(operator\)"),
        ((1, [mu], [Cochain.zero(1, 1, 2, 3)]), "jet components differ in shape"),
    ):
        with pytest.raises(MalformedInputError, match=f"^{message}$"):
            DeformationJet(*args)


def test_start_up_imports_neither_dataclasses_nor_inspect():
    """A fresh interpreter importing the package, the CLI and the samples
    loads neither module; each costs start-up time in every CLI process."""
    code = (
        "import sys; import bihomega, bihomega.cli, bihomega.samples; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
