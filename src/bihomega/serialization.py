"""Canonical JSON file format for every workbench object.

One file carries a monoid plus the optional blocks of the table ``_BLOCKS``:
each row names the blocks it requires, how its object is built and its fields
(key, kind, whether required, shape, the attribute it is formatted from).
Parsing, formatting and the refusal of unknown keys (with their path) walk
that table.  A cochain holds ``value`` at degree 0 and ``values``, keyed by
index keys, above it; a nested cochain may also state its ``degree``.  Scalars
use the canonical rational text form, and serialization sorts keys and
indents by two, so files are byte-stable under round trips.  Index keys are
comma-joined monoid element lists ("0,1"); tensors are nested arrays whose
innermost lists are coefficient vectors.  Parsing holds no more than the file
does: coordinates are appended as they are read, and index keys are made one
at a time, up to the first missing one.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, product
from math import prod
from operator import attrgetter
from typing import Callable, NamedTuple

from .algebra import OmegaAlgebra, RotaBaxterFamily
from .bimodule import OmegaBimodule
from .cochain import Cochain
from .deformation import DeformationJet
from .errors import ParseError
from .extension import CocyclePair, ExtensionPresentation
from .linalg import Mat
from .monoid import Monoid
from .rationals import Rat, format_rational, parse_rational

SCHEMA = "bihomega/1"


class WorkbenchFile:
    """The monoid and the optional blocks of one file, None when absent; ``monoid_names``
    are display names per element, ``cochain_target`` is "module" or "algebra"."""

    __slots__ = (
        "monoid", "monoid_names", "algebra", "rota_baxter", "bimodule", "twist_p", "twist_q", "nijenhuis",
        "cochain", "cochain_target", "jet", "cocycle_pair", "extension",
    )

    def __init__(
        self, monoid: Monoid, monoid_names: list | None = None, algebra: OmegaAlgebra | None = None,
        rota_baxter: RotaBaxterFamily | None = None, bimodule: OmegaBimodule | None = None,
        twist_p: dict | None = None, twist_q: dict | None = None, nijenhuis: dict | None = None,
        cochain: Cochain | None = None, cochain_target: str | None = None, jet: DeformationJet | None = None,
        cocycle_pair: CocyclePair | None = None, extension: ExtensionPresentation | None = None,
    ):
        self.monoid = monoid
        self.monoid_names = monoid_names
        self.algebra = algebra
        self.rota_baxter = rota_baxter
        self.bimodule = bimodule
        self.twist_p = twist_p
        self.twist_q = twist_q
        self.nijenhuis = nijenhuis
        self.cochain = cochain
        self.cochain_target = cochain_target
        self.jet = jet
        self.cocycle_pair = cocycle_pair
        self.extension = extension


def _refuse_unknown(obj: dict, known, path: str):
    """Refuse a key outside ``known``: a misspelt key is an error, not dropped data."""
    for key in obj:
        if key not in known:
            raise ParseError(f"unknown key {key!r}", path)


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"missing key {key!r}", path)
    return obj[key]


def _expect_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError("expected an object", path)
    return obj


def _expect_list(obj, length: int, path: str) -> list:
    if not isinstance(obj, list):
        raise ParseError("expected an array", path)
    if len(obj) != length:
        raise ParseError(f"expected {length} entries, got {len(obj)}", path)
    return obj


def _expect_int(obj, path: str, minimum: int) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < minimum:
        raise ParseError(f"expected an integer >= {minimum}", path)
    return obj


def _rat(obj, path: str) -> Rat:
    if not isinstance(obj, str):
        raise ParseError("rationals must be strings in canonical form", path)
    try:
        return parse_rational(obj)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


def _index(flat: int, shape) -> str:
    """The path suffix "[i][j]..." of entry ``flat`` of a row-major array of ``shape``."""
    digits = ""
    for size in reversed(shape):
        flat, digit = divmod(flat, size)
        digits = f"[{digit}]{digits}"
    return digits


def _nest(flat: list, shape) -> list:
    """The row-major list ``flat`` as nested lists of ``shape``."""
    for axis in range(len(shape) - 1, 0, -1):
        flat = [flat[i * shape[axis] : (i + 1) * shape[axis]] for i in range(prod(shape[:axis]))]
    return flat


# Each distinct string is parsed once; _Reader.array names a refused one's path.
_parse_rational = lru_cache(maxsize=1024)(parse_rational)
_attrgetter = lru_cache(maxsize=None)(attrgetter)  # one getter per dotted attribute of the table


class _Reader:
    """Parse state of one file: its monoid and the dimensions read so far, by shape letter."""

    def __init__(self, omega: Monoid):
        self.omega = omega
        self.dims = {"1": 1, "2": 2}  # the fixed cochain degrees stand for themselves

    def shape(self, letters: str) -> tuple:
        return tuple(map(self.dims.__getitem__, letters))

    def array(self, obj, shape: tuple, path: str) -> list:
        """The rationals of a nested array of ``shape``, in row-major order."""
        level = [obj]
        for axis, size in enumerate(shape):
            for i, node in enumerate(level):
                if type(node) is not list or len(node) != size:
                    _expect_list(node, size, path + _index(i, shape[:axis]))
            level = list(chain.from_iterable(level))
        try:
            return list(map(_parse_rational, level))
        except (TypeError, ValueError):
            for i, value in enumerate(level):
                _rat(value, path + _index(i, shape))
            raise

    def keyed(self, obj, tuples, shape: tuple, path: str) -> list:
        """(tuple, array) per key of the index ``tuples``, in their order; a missing key is refused first."""
        data = _expect_dict(obj, path)
        keys = {}
        for om_tuple in tuples:
            key = ",".join(map(str, om_tuple))
            if key not in data:
                raise ParseError(f"missing key {key!r}", path)
            keys[key] = om_tuple
        if len(keys) != len(data):
            raise ParseError(f"unknown index key {next(k for k in data if k not in keys)!r}", path)
        return [(t, self.array(data[key], shape, f"{path}[{key!r}]")) for key, t in keys.items()]

    def dim(self, obj, path: str, letter: str) -> int:
        """A dimension (a jet order "k" is at least 1), bound to its letter."""
        value = self.dims[letter] = _expect_int(obj, path, 1 if letter == "k" else 0)
        return value

    def family(self, obj, path: str, letters: str) -> dict:
        shape = self.shape(letters)
        blocks = self.keyed(obj, self.omega.tuples(1), shape, path)
        return {om_tuple[0]: Mat(*shape, flat) for om_tuple, flat in blocks}

    def pairs(self, obj, path: str, letters: str) -> dict:
        shape = self.shape(letters)
        blocks = self.keyed(obj, self.omega.tuples(2), shape, path)
        return {om_tuple: _nest(flat, shape) for om_tuple, flat in blocks}

    def cochain(self, obj, path: str, letters: str, extra: tuple = ()) -> Cochain:
        """The cochain of a node holding ``value`` (degree 0) or ``values``, an
        optional ``degree`` that must equal the shape's, and ``extra`` keys."""
        degree, dim_in, dim_out = self.shape(letters)
        data = _expect_dict(obj, path)
        _refuse_unknown(data, ("degree", "value" if degree == 0 else "values", *extra), path)
        found = data.get("degree", degree)
        if type(found) is not int or found != degree:
            raise ParseError(f"expected degree {degree}, found {found}", path)
        if degree == 0:
            blocks = [((), self.array(_need(data, "value", path), (dim_out,), f"{path}.value"))]
        else:
            values_path = f"{path}.values"
            values = _expect_dict(_need(data, "values", path), values_path)
            if 2 * degree - 1 > max(map(len, values), default=0):
                raise ParseError(f"no index key has {degree} elements", values_path)
            tuples = product(range(self.omega.size), repeat=degree)  # lazy: stops at the first missing key
            blocks = self.keyed(values, tuples, (dim_in,) * degree + (dim_out,), values_path)
        return Cochain(degree, self.omega.size, dim_in, dim_out, [v for _, flat in blocks for v in flat])

    def cochains(self, obj, path: str, letters: str) -> list:
        items = _expect_list(obj, self.dims[letters[0]], path)
        return [self.cochain(x, f"{path}[{i}]", letters[1:]) for i, x in enumerate(items)]


def _parse_monoid(obj, path: str) -> tuple:
    """The monoid and its optional element names."""
    data = _expect_dict(obj, path)
    _refuse_unknown(data, ("size", "unit", "table", "names"), path)
    size = _expect_int(_need(data, "size", path), f"{path}.size", 1)
    unit = _expect_int(_need(data, "unit", path), f"{path}.unit", 0)
    table = _expect_list(_need(data, "table", path), size, f"{path}.table")
    for i, row in enumerate(table):
        for j, v in enumerate(_expect_list(row, size, f"{path}.table[{i}]")):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < size:
                raise ParseError("table entry out of range", f"{path}.table[{i}][{j}]")
    if unit >= size:
        raise ParseError("unit out of range", f"{path}.unit")
    names = list(_expect_list(data["names"], size, f"{path}.names")) if "names" in data else None
    for i, name in enumerate(names or ()):
        if not isinstance(name, str):
            raise ParseError("names must be strings", f"{path}.names[{i}]")
    return Monoid(size, unit, tuple(map(tuple, table))), names


def _fmt_family(maps: dict) -> dict:
    return {str(x): [list(map(format_rational, m.row(i))) for i in range(m.rows)] for x, m in maps.items()}


def _fmt_pairs(tensors: dict) -> dict:
    return {
        f"{x},{y}": [[[format_rational(v) for v in vec] for vec in plane] for plane in t]
        for (x, y), t in tensors.items()
    }


def _fmt_cochain(f: Cochain) -> dict:
    coords = list(map(format_rational, f.coords))
    if f.degree == 0:
        return {"degree": 0, "value": coords}
    tuples = list(product(range(f.omega_size), repeat=f.degree))
    blocks = _nest(coords, (len(tuples),) + (f.dim_in,) * f.degree + (f.dim_out,))
    return {"degree": f.degree, "values": {",".join(map(str, t)): b for t, b in zip(tuples, blocks)}}


class _Kind(NamedTuple):
    read: Callable  # a _Reader method: (reader, node, path, shape letters) -> value
    fmt: Callable  # value -> JSON node


class _Field(NamedTuple):
    key: str
    kind: _Kind
    shape: str
    attr: str  # the dotted WorkbenchFile attribute it is formatted from
    required: bool = True


class _Block(NamedTuple):
    requires: tuple  # (phrase, WorkbenchFile attribute, ...) per requirement, checked in order
    build: Callable | None  # (wf, *field values) -> {WorkbenchFile attribute: object}
    fields: tuple


_DIM = _Kind(_Reader.dim, int)
_RATIONAL = _Kind(lambda reader, obj, path, _: _rat(obj, path), format_rational)
_FAMILY = _Kind(_Reader.family, _fmt_family)
_PAIRS = _Kind(_Reader.pairs, _fmt_pairs)
_COCHAIN = _Kind(_Reader.cochain, _fmt_cochain)
_COCHAINS = _Kind(_Reader.cochains, lambda fs: [_fmt_cochain(f) for f in fs])


def _extension(wf, n, product, p, q, t, *maps) -> dict:
    """The extension block's object; ``maps`` are incl, proj, sect and retr."""
    b, rb = wf.bimodule, wf.rota_baxter
    total, total_rb = OmegaAlgebra(wf.monoid, n, product, p, q), RotaBaxterFamily(rb.weight, t)
    modules = (b.dim_m, dict(b.pmap), dict(b.qmap), dict(b.tmap))
    return {"extension": ExtensionPresentation(wf.algebra, rb, *modules, total, total_rb, *maps)}


_ALGEBRA = (("an algebra", "algebra"),)
_EXTENSION_NEEDS = (
    ("algebra, rota_baxter, and bimodule", "algebra", "rota_baxter", "bimodule"),
    ("the bimodule tmap", "bimodule.tmap"),
)
# One row per optional block, in parse order.  Shape letters name dimensions read
# earlier: d = dim A, m = dim M, n = an extension's total dim, k = jet order and
# c = a cochain block's degree; a digit is a fixed cochain degree.
_BLOCKS = {
    "algebra": _Block((), lambda wf, *v: {"algebra": OmegaAlgebra(wf.monoid, *v)}, (
        _Field("dim", _DIM, "d", "algebra.dim"),
        _Field("product", _PAIRS, "ddd", "algebra.product"),
        _Field("p", _FAMILY, "dd", "algebra.pmap"),
        _Field("q", _FAMILY, "dd", "algebra.qmap"),
    )),
    "rota_baxter": _Block(_ALGEBRA, lambda wf, *v: {"rota_baxter": RotaBaxterFamily(*v)}, (
        _Field("weight", _RATIONAL, "", "rota_baxter.weight"),
        _Field("r", _FAMILY, "dd", "rota_baxter.maps"),
    )),
    "bimodule": _Block(_ALGEBRA, lambda wf, *v: {"bimodule": OmegaBimodule(wf.algebra, *v)}, (
        _Field("dim", _DIM, "m", "bimodule.dim_m"),
        _Field("left", _PAIRS, "dmm", "bimodule.left"),
        _Field("right", _PAIRS, "mdm", "bimodule.right"),
        _Field("p", _FAMILY, "mm", "bimodule.pmap"),
        _Field("q", _FAMILY, "mm", "bimodule.qmap"),
        _Field("t", _FAMILY, "mm", "bimodule.tmap", required=False),
    )),
    "twist": _Block(_ALGEBRA, lambda wf, p, q: {"twist_p": p, "twist_q": q}, (
        _Field("p", _FAMILY, "dd", "twist_p"),
        _Field("q", _FAMILY, "dd", "twist_q"),
    )),
    "nijenhuis": _Block(_ALGEBRA, lambda wf, n: {"nijenhuis": n}, (_Field("n", _FAMILY, "dd", "nijenhuis"),)),
    "cochain": _Block(_ALGEBRA, None, ()),  # keys depend on the degree: see _parse_cochain_block
    "jet": _Block(_ALGEBRA, lambda wf, *v: {"jet": DeformationJet(*v)}, (
        _Field("order", _DIM, "k", "jet.order"),
        _Field("product_orders", _COCHAINS, "k2dd", "jet.mu_orders"),
        _Field("operator_orders", _COCHAINS, "k1dd", "jet.r_orders"),
    )),
    "cocycle_pair": _Block((("a bimodule", "bimodule"),), lambda wf, *v: {"cocycle_pair": CocyclePair(*v)}, (
        _Field("psi", _COCHAIN, "2dm", "cocycle_pair.psi"),
        _Field("chi", _COCHAIN, "1dm", "cocycle_pair.chi"),
    )),
    "extension": _Block(_EXTENSION_NEEDS, _extension, (
        _Field("total_dim", _DIM, "n", "extension.total.dim"),
        _Field("total_product", _PAIRS, "nnn", "extension.total.product"),
        _Field("total_p", _FAMILY, "nn", "extension.total.pmap"),
        _Field("total_q", _FAMILY, "nn", "extension.total.qmap"),
        _Field("total_t", _FAMILY, "nn", "extension.total_rb.maps"),
        _Field("incl", _FAMILY, "nm", "extension.incl"),
        _Field("proj", _FAMILY, "dn", "extension.proj"),
        _Field("sect", _FAMILY, "nd", "extension.sect"),
        _Field("retr", _FAMILY, "mn", "extension.retr"),
    )),
}


def _parse_cochain_block(reader: _Reader, wf: WorkbenchFile, node, path: str):
    node = _expect_dict(node, path)
    reader.dim(_need(node, "degree", path), f"{path}.degree", "c")
    target = _need(node, "target", path)
    if target not in ("module", "algebra"):
        raise ParseError("target must be 'module' or 'algebra'", f"{path}.target")
    if wf.bimodule is None and target == "module":
        raise ParseError("module-valued cochain requires a bimodule", path)
    wf.cochain = reader.cochain(node, path, "cdm" if target == "module" else "cdd", ("target",))
    wf.cochain_target = target


def parse_workbench(text: str) -> WorkbenchFile:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", "$") from None
    data = _expect_dict(data, "$")
    _refuse_unknown(data, ("schema", "monoid", *_BLOCKS), "$")
    schema = _need(data, "schema", "$")
    if schema != SCHEMA:
        raise ParseError(f"unsupported schema {schema!r}", "$.schema")
    wf = WorkbenchFile(*_parse_monoid(_need(data, "monoid", "$"), "$.monoid"))
    reader = _Reader(wf.monoid)
    for name, block in _BLOCKS.items():
        if name not in data:
            continue
        path = f"$.{name}"
        for phrase, *attrs in block.requires:
            if any(_attrgetter(attr)(wf) is None for attr in attrs):
                raise ParseError(f"{name} block requires {phrase}", path)
        if not block.fields:
            _parse_cochain_block(reader, wf, data[name], path)
            continue
        node = _expect_dict(data[name], path)
        _refuse_unknown(node, [f.key for f in block.fields], path)
        values = []
        for key, kind, shape, _, required in block.fields:
            read = required or key in node
            values.append(kind.read(reader, _need(node, key, path), f"{path}.{key}", shape) if read else None)
        for attr, obj in block.build(wf, *values).items():
            setattr(wf, attr, obj)
    return wf


def workbench_to_json(wf: WorkbenchFile) -> dict:
    monoid = {"size": wf.monoid.size, "unit": wf.monoid.unit, "table": [list(row) for row in wf.monoid.table]}
    if wf.monoid_names is not None:
        monoid["names"] = list(wf.monoid_names)
    out = {"schema": SCHEMA, "monoid": monoid}
    for name, block in _BLOCKS.items():  # present when the object holding its first field is
        if block.fields and getattr(wf, block.fields[0].attr.partition(".")[0]) is not None:
            values = [(f.key, f.kind, _attrgetter(f.attr)(wf)) for f in block.fields]
            out[name] = {key: kind.fmt(value) for key, kind, value in values if value is not None}
    if wf.cochain is not None:
        out["cochain"] = dict(_fmt_cochain(wf.cochain), target=wf.cochain_target)
    return out


def serialize_workbench(wf: WorkbenchFile) -> str:
    return json.dumps(workbench_to_json(wf), sort_keys=True, indent=2) + "\n"
