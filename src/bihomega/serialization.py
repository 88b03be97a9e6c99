"""Canonical JSON file format for every workbench object.

One file carries a monoid plus optional blocks: algebra, rota_baxter,
bimodule, twist, nijenhuis, cochain, jet, cocycle_pair, extension.  An
unknown block or key is refused with its path, never ignored.  All
scalars use the canonical rational text form; serialization sorts keys and
indents by two, so files are byte-stable under parse/serialize round trips.

Index keys are comma-joined monoid element lists ("0,1"); tensors are
argument-nested arrays whose innermost lists are coefficient vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product as iproduct

from .algebra import OmegaAlgebra, RotaBaxterFamily
from .bimodule import OmegaBimodule
from .cochain import Cochain, _tuple_rank
from .deformation import DeformationJet
from .errors import ParseError
from .extension import CocyclePair, ExtensionPresentation
from .linalg import Mat
from .monoid import Monoid
from .rationals import Rat, format_rational, parse_rational

SCHEMA = "bihomega/1"
# The optional top-level blocks and the keys each may hold (a bimodule's "t"
# is optional); a cochain block's keys are checked by _parse_cochain_values.
_BLOCKS = {
    "algebra": ("dim", "product", "p", "q"),
    "rota_baxter": ("weight", "r"),
    "bimodule": ("dim", "left", "right", "p", "q", "t"),
    "twist": ("p", "q"),
    "nijenhuis": ("n",),
    "cochain": None,
    "jet": ("order", "product_orders", "operator_orders"),
    "cocycle_pair": ("psi", "chi"),
    "extension": (
        "total_dim", "total_product", "total_p", "total_q", "total_t", "incl", "proj", "sect", "retr",
    ),
}


@dataclass
class WorkbenchFile:
    monoid: Monoid
    monoid_names: list | None = None  # optional display names per element
    algebra: OmegaAlgebra | None = None
    rota_baxter: RotaBaxterFamily | None = None
    bimodule: OmegaBimodule | None = None
    twist_p: dict | None = None
    twist_q: dict | None = None
    nijenhuis: dict | None = None
    cochain: Cochain | None = None
    cochain_target: str | None = None  # "module" | "algebra"
    jet: DeformationJet | None = None
    cocycle_pair: CocyclePair | None = None
    extension: ExtensionPresentation | None = None


# -- parsing ---------------------------------------------------------------


def _refuse_unknown(obj: dict, known, path: str):
    """Refuse a key of ``obj`` outside ``known``, so that a misspelt optional
    key is an error instead of silently dropped data."""
    for key in obj:
        if key not in known:
            raise ParseError(f"unknown key {key!r}", path)


def _block(data: dict, name: str) -> dict:
    """The top-level block ``name``: an object holding only its known keys."""
    node = _expect_dict(data[name], f"$.{name}")
    _refuse_unknown(node, _BLOCKS[name], f"$.{name}")
    return node


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(f"missing key {key!r}", path)
    return obj[key]


def _expect_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError("expected an object", path)
    return obj


def _expect_list(obj, length: int | None, path: str) -> list:
    if not isinstance(obj, list):
        raise ParseError("expected an array", path)
    if length is not None and len(obj) != length:
        raise ParseError(f"expected {length} entries, got {len(obj)}", path)
    return obj


def _expect_int(obj, path: str, minimum: int = 0) -> int:
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


def _vector(obj, length: int, path: str) -> list:
    items = _expect_list(obj, length, path)
    return [_rat(v, f"{path}[{i}]") for i, v in enumerate(items)]


def _matrix(obj, rows: int, cols: int, path: str) -> Mat:
    data = _expect_list(obj, rows, path)
    entries = []
    for i, row in enumerate(data):
        entries.extend(_vector(row, cols, f"{path}[{i}]"))
    return Mat(rows, cols, entries)


def _require_keys(data: dict, keys: list, path: str):
    """Refuse ``data`` unless its keys are exactly the canonical index
    ``keys``: a missing key is named first, then any unknown or
    non-canonical one ("00", "0, 1")."""
    for key in keys:
        if key not in data:
            raise ParseError(f"missing key {key!r}", path)
    if len(data) != len(keys):
        known = set(keys)
        raise ParseError(f"unknown index key {next(k for k in data if k not in known)!r}", path)


def _map_family(obj, omega: Monoid, rows: int, cols: int, path: str) -> dict:
    data = _expect_dict(obj, path)
    _require_keys(data, [str(x) for x in omega.elements()], path)
    return {x: _matrix(data[str(x)], rows, cols, f"{path}['{x}']") for x in omega.elements()}


def _tensor3(obj, d1: int, d2: int, d3: int, path: str) -> list:
    outer = _expect_list(obj, d1, path)
    out = []
    for i, plane in enumerate(outer):
        rows = _expect_list(plane, d2, f"{path}[{i}]")
        out.append([_vector(row, d3, f"{path}[{i}][{j}]") for j, row in enumerate(rows)])
    return out


def _pair_tensors(obj, omega: Monoid, d1: int, d2: int, d3: int, path: str) -> dict:
    data = _expect_dict(obj, path)
    keys = {(x, y): f"{x},{y}" for x, y in omega.tuples(2)}
    _require_keys(data, list(keys.values()), path)
    return {xy: _tensor3(data[key], d1, d2, d3, f"{path}[{key!r}]") for xy, key in keys.items()}


def _parse_monoid(obj, path: str) -> Monoid:
    data = _expect_dict(obj, path)
    _refuse_unknown(data, ("size", "unit", "table", "names"), path)
    size = _expect_int(_need(data, "size", path), f"{path}.size", 1)
    unit = _expect_int(_need(data, "unit", path), f"{path}.unit", 0)
    table_raw = _expect_list(_need(data, "table", path), size, f"{path}.table")
    table = []
    for i, row in enumerate(table_raw):
        entries = _expect_list(row, size, f"{path}.table[{i}]")
        for j, v in enumerate(entries):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < size:
                raise ParseError("table entry out of range", f"{path}.table[{i}][{j}]")
        table.append(tuple(entries))
    if unit >= size:
        raise ParseError("unit out of range", f"{path}.unit")
    return Monoid(size, unit, tuple(table))


def _parse_cochain_values(
    obj, omega: Monoid, degree: int, dim_in: int, dim_out: int, path: str, extra: tuple = ()
) -> Cochain:
    """The cochain of a node holding ``value`` (degree 0) or ``values``, an
    optional ``degree`` that must match, and the caller's ``extra`` keys."""
    f = Cochain.zero(degree, omega.size, dim_in, dim_out)
    data = _expect_dict(obj, path)
    _refuse_unknown(data, ("degree", "value" if degree == 0 else "values", *extra), path)
    if "degree" in data and data["degree"] != degree:
        raise ParseError(f"expected degree {degree}, found {data['degree']}", path)
    if degree == 0:
        vec = _vector(_need(data, "value", path), dim_out, f"{path}.value")
        f.coords[:] = vec
        return f
    values = _expect_dict(_need(data, "values", path), f"{path}.values")
    keys = {om_tuple: ",".join(map(str, om_tuple)) for om_tuple in omega.tuples(degree)}
    _require_keys(values, list(keys.values()), f"{path}.values")
    for om_tuple, key in keys.items():
        node = values[key]
        node_path = f"{path}.values[{key!r}]"
        for args in iproduct(range(dim_in), repeat=degree):
            sub = node
            sub_path = node_path
            for idx in args:
                sub = _expect_list(sub, dim_in, sub_path)[idx]
                sub_path += f"[{idx}]"
            vec = _vector(sub, dim_out, sub_path)
            base = f.block_base(om_tuple) + _tuple_rank(args, dim_in) * dim_out
            for k in range(dim_out):
                f.coords[base + k] = vec[k]
    return f


def parse_workbench(text: str) -> WorkbenchFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "$") from None
    data = _expect_dict(data, "$")
    _refuse_unknown(data, ("schema", "monoid", *_BLOCKS), "$")
    schema = _need(data, "schema", "$")
    if schema != SCHEMA:
        raise ParseError(f"unsupported schema {schema!r}", "$.schema")
    monoid = _parse_monoid(_need(data, "monoid", "$"), "$.monoid")
    wf = WorkbenchFile(monoid)
    if "names" in data["monoid"]:
        names = _expect_list(data["monoid"]["names"], monoid.size, "$.monoid.names")
        for i, name in enumerate(names):
            if not isinstance(name, str):
                raise ParseError("names must be strings", f"$.monoid.names[{i}]")
        wf.monoid_names = list(names)
    if "algebra" in data:
        node = _block(data, "algebra")
        dim = _expect_int(_need(node, "dim", "$.algebra"), "$.algebra.dim", 0)
        product = _pair_tensors(
            _need(node, "product", "$.algebra"), monoid, dim, dim, dim, "$.algebra.product"
        )
        pmap = _map_family(_need(node, "p", "$.algebra"), monoid, dim, dim, "$.algebra.p")
        qmap = _map_family(_need(node, "q", "$.algebra"), monoid, dim, dim, "$.algebra.q")
        wf.algebra = OmegaAlgebra(monoid, dim, product, pmap, qmap)
    if "rota_baxter" in data:
        if wf.algebra is None:
            raise ParseError("rota_baxter block requires an algebra", "$.rota_baxter")
        node = _block(data, "rota_baxter")
        weight = _rat(_need(node, "weight", "$.rota_baxter"), "$.rota_baxter.weight")
        maps = _map_family(
            _need(node, "r", "$.rota_baxter"), monoid, wf.algebra.dim, wf.algebra.dim, "$.rota_baxter.r"
        )
        wf.rota_baxter = RotaBaxterFamily(weight, maps)
    if "bimodule" in data:
        if wf.algebra is None:
            raise ParseError("bimodule block requires an algebra", "$.bimodule")
        node = _block(data, "bimodule")
        dm = _expect_int(_need(node, "dim", "$.bimodule"), "$.bimodule.dim", 0)
        d = wf.algebra.dim
        left = _pair_tensors(_need(node, "left", "$.bimodule"), monoid, d, dm, dm, "$.bimodule.left")
        right = _pair_tensors(
            _need(node, "right", "$.bimodule"), monoid, dm, d, dm, "$.bimodule.right"
        )
        pmap = _map_family(_need(node, "p", "$.bimodule"), monoid, dm, dm, "$.bimodule.p")
        qmap = _map_family(_need(node, "q", "$.bimodule"), monoid, dm, dm, "$.bimodule.q")
        tmap = None
        if "t" in node:
            tmap = _map_family(node["t"], monoid, dm, dm, "$.bimodule.t")
        wf.bimodule = OmegaBimodule(wf.algebra, dm, left, right, pmap, qmap, tmap)
    if "twist" in data:
        if wf.algebra is None:
            raise ParseError("twist block requires an algebra", "$.twist")
        node = _block(data, "twist")
        d = wf.algebra.dim
        wf.twist_p = _map_family(_need(node, "p", "$.twist"), monoid, d, d, "$.twist.p")
        wf.twist_q = _map_family(_need(node, "q", "$.twist"), monoid, d, d, "$.twist.q")
    if "nijenhuis" in data:
        if wf.algebra is None:
            raise ParseError("nijenhuis block requires an algebra", "$.nijenhuis")
        node = _block(data, "nijenhuis")
        d = wf.algebra.dim
        wf.nijenhuis = _map_family(_need(node, "n", "$.nijenhuis"), monoid, d, d, "$.nijenhuis.n")
    if "cochain" in data:
        if wf.algebra is None:
            raise ParseError("cochain block requires an algebra", "$.cochain")
        node = _expect_dict(data["cochain"], "$.cochain")
        degree = _expect_int(_need(node, "degree", "$.cochain"), "$.cochain.degree", 0)
        target = _need(node, "target", "$.cochain")
        if target not in ("module", "algebra"):
            raise ParseError("target must be 'module' or 'algebra'", "$.cochain.target")
        if target == "module":
            if wf.bimodule is None:
                raise ParseError("module-valued cochain requires a bimodule", "$.cochain")
            dim_out = wf.bimodule.dim_m
        else:
            dim_out = wf.algebra.dim
        wf.cochain = _parse_cochain_values(
            node, monoid, degree, wf.algebra.dim, dim_out, "$.cochain", ("target",)
        )
        wf.cochain_target = target
    if "jet" in data:
        if wf.algebra is None:
            raise ParseError("jet block requires an algebra", "$.jet")
        node = _block(data, "jet")
        order = _expect_int(_need(node, "order", "$.jet"), "$.jet.order", 1)
        d = wf.algebra.dim
        mu_raw = _expect_list(_need(node, "product_orders", "$.jet"), order, "$.jet.product_orders")
        r_raw = _expect_list(_need(node, "operator_orders", "$.jet"), order, "$.jet.operator_orders")
        mu_orders = [
            _parse_cochain_values(
                _expect_dict(x, f"$.jet.product_orders[{i}]"),
                monoid, 2, d, d, f"$.jet.product_orders[{i}]",
            )
            for i, x in enumerate(mu_raw)
        ]
        r_orders = [
            _parse_cochain_values(
                _expect_dict(x, f"$.jet.operator_orders[{i}]"),
                monoid, 1, d, d, f"$.jet.operator_orders[{i}]",
            )
            for i, x in enumerate(r_raw)
        ]
        wf.jet = DeformationJet(order, mu_orders, r_orders)
    if "cocycle_pair" in data:
        if wf.bimodule is None:
            raise ParseError("cocycle_pair block requires a bimodule", "$.cocycle_pair")
        node = _block(data, "cocycle_pair")
        d, dm = wf.algebra.dim, wf.bimodule.dim_m
        psi = _parse_cochain_values(
            _expect_dict(_need(node, "psi", "$.cocycle_pair"), "$.cocycle_pair.psi"),
            monoid, 2, d, dm, "$.cocycle_pair.psi",
        )
        chi = _parse_cochain_values(
            _expect_dict(_need(node, "chi", "$.cocycle_pair"), "$.cocycle_pair.chi"),
            monoid, 1, d, dm, "$.cocycle_pair.chi",
        )
        wf.cocycle_pair = CocyclePair(psi, chi)
    if "extension" in data:
        if wf.algebra is None or wf.rota_baxter is None or wf.bimodule is None:
            raise ParseError(
                "extension block requires algebra, rota_baxter, and bimodule", "$.extension"
            )
        if wf.bimodule.tmap is None:
            raise ParseError("extension block requires the bimodule tmap", "$.extension")
        node = _block(data, "extension")
        d, dm = wf.algebra.dim, wf.bimodule.dim_m
        n = _expect_int(_need(node, "total_dim", "$.extension"), "$.extension.total_dim", 0)
        product = _pair_tensors(
            _need(node, "total_product", "$.extension"), monoid, n, n, n, "$.extension.total_product"
        )
        pmap = _map_family(_need(node, "total_p", "$.extension"), monoid, n, n, "$.extension.total_p")
        qmap = _map_family(_need(node, "total_q", "$.extension"), monoid, n, n, "$.extension.total_q")
        tmap = _map_family(_need(node, "total_t", "$.extension"), monoid, n, n, "$.extension.total_t")
        total = OmegaAlgebra(monoid, n, product, pmap, qmap)
        total_rb = RotaBaxterFamily(wf.rota_baxter.weight, tmap)
        incl = _map_family(_need(node, "incl", "$.extension"), monoid, n, dm, "$.extension.incl")
        proj = _map_family(_need(node, "proj", "$.extension"), monoid, d, n, "$.extension.proj")
        sect = _map_family(_need(node, "sect", "$.extension"), monoid, n, d, "$.extension.sect")
        retr = _map_family(_need(node, "retr", "$.extension"), monoid, dm, n, "$.extension.retr")
        wf.extension = ExtensionPresentation(
            wf.algebra, wf.rota_baxter, dm,
            dict(wf.bimodule.pmap), dict(wf.bimodule.qmap), dict(wf.bimodule.tmap),
            total, total_rb, incl, proj, sect, retr,
        )
    return wf


# -- serialization ----------------------------------------------------------


def _fmt_matrix(m: Mat) -> list:
    return [[format_rational(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _fmt_family(maps: dict) -> dict:
    return {str(x): _fmt_matrix(m) for x, m in maps.items()}


def _fmt_tensor3(t) -> list:
    return [[[format_rational(v) for v in row] for row in plane] for plane in t]


def _fmt_pair_tensors(tensors: dict) -> dict:
    return {f"{x},{y}": _fmt_tensor3(t) for (x, y), t in tensors.items()}


def _fmt_cochain(f: Cochain, omega: Monoid) -> dict:
    if f.degree == 0:
        return {"degree": 0, "value": [format_rational(v) for v in f.coords]}

    def nest(om_tuple, prefix_args):
        if len(prefix_args) == f.degree:
            return [format_rational(v) for v in f.value(om_tuple, prefix_args)]
        return [nest(om_tuple, prefix_args + (i,)) for i in range(f.dim_in)]

    values = {}
    for om_tuple in omega.tuples(f.degree):
        key = ",".join(str(x) for x in om_tuple)
        values[key] = nest(om_tuple, ())
    return {"degree": f.degree, "values": values}


def workbench_to_json(wf: WorkbenchFile) -> dict:
    out = {
        "schema": SCHEMA,
        "monoid": {
            "size": wf.monoid.size,
            "unit": wf.monoid.unit,
            "table": [list(row) for row in wf.monoid.table],
        },
    }
    if wf.monoid_names is not None:
        out["monoid"]["names"] = list(wf.monoid_names)
    if wf.algebra is not None:
        out["algebra"] = {
            "dim": wf.algebra.dim,
            "product": _fmt_pair_tensors(wf.algebra.product),
            "p": _fmt_family(wf.algebra.pmap),
            "q": _fmt_family(wf.algebra.qmap),
        }
    if wf.rota_baxter is not None:
        out["rota_baxter"] = {
            "weight": format_rational(wf.rota_baxter.weight),
            "r": _fmt_family(wf.rota_baxter.maps),
        }
    if wf.bimodule is not None:
        node = {
            "dim": wf.bimodule.dim_m,
            "left": _fmt_pair_tensors(wf.bimodule.left),
            "right": _fmt_pair_tensors(wf.bimodule.right),
            "p": _fmt_family(wf.bimodule.pmap),
            "q": _fmt_family(wf.bimodule.qmap),
        }
        if wf.bimodule.tmap is not None:
            node["t"] = _fmt_family(wf.bimodule.tmap)
        out["bimodule"] = node
    if wf.twist_p is not None:
        out["twist"] = {"p": _fmt_family(wf.twist_p), "q": _fmt_family(wf.twist_q)}
    if wf.nijenhuis is not None:
        out["nijenhuis"] = {"n": _fmt_family(wf.nijenhuis)}
    if wf.cochain is not None:
        node = _fmt_cochain(wf.cochain, wf.monoid)
        node["target"] = wf.cochain_target
        out["cochain"] = node
    if wf.jet is not None:
        out["jet"] = {
            "order": wf.jet.order,
            "product_orders": [_fmt_cochain(f, wf.monoid) for f in wf.jet.mu_orders],
            "operator_orders": [_fmt_cochain(f, wf.monoid) for f in wf.jet.r_orders],
        }
    if wf.cocycle_pair is not None:
        out["cocycle_pair"] = {
            "psi": _fmt_cochain(wf.cocycle_pair.psi, wf.monoid),
            "chi": _fmt_cochain(wf.cocycle_pair.chi, wf.monoid),
        }
    if wf.extension is not None:
        e = wf.extension
        out["extension"] = {
            "total_dim": e.total.dim,
            "total_product": _fmt_pair_tensors(e.total.product),
            "total_p": _fmt_family(e.total.pmap),
            "total_q": _fmt_family(e.total.qmap),
            "total_t": _fmt_family(e.total_rb.maps),
            "incl": _fmt_family(e.incl),
            "proj": _fmt_family(e.proj),
            "sect": _fmt_family(e.sect),
            "retr": _fmt_family(e.retr),
        }
    return out


def serialize_workbench(wf: WorkbenchFile) -> str:
    return json.dumps(workbench_to_json(wf), sort_keys=True, indent=2) + "\n"
