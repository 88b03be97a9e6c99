import json
import re

import pytest

from conftest import FIXTURES, fixture_text

from bihomega.errors import ParseError
from bihomega.serialization import parse_workbench, serialize_workbench

WORKBENCH_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if '"schema"' in p.read_text(encoding="utf-8")
)
# The optional blocks of a workbench file.
BLOCKS = ("algebra", "rota_baxter", "bimodule", "twist", "nijenhuis", "cochain", "jet", "cocycle_pair", "extension")


@pytest.mark.parametrize("name", WORKBENCH_FIXTURES)
def test_round_trip_byte_identical(name):
    text = fixture_text(name)
    wf = parse_workbench(text)
    again = serialize_workbench(wf)
    assert again == text
    assert serialize_workbench(parse_workbench(again)) == again


def test_missing_product_key_names_the_key():
    wf = parse_workbench(fixture_text("c2.json"))
    data = json.loads(fixture_text("c2.json"))
    del data["algebra"]["product"]["0,1"]
    with pytest.raises(ParseError, match="'0,1'"):
        parse_workbench(json.dumps(data))


@pytest.mark.parametrize(
    "name, path, key",
    [
        ("c2.json", ("algebra", "product"), "7,7"),  # a pair outside the monoid
        ("c2.json", ("algebra", "p"), "00"),  # non-canonical spelling of element 0
        ("e1_rbf_pair.json", ("cocycle_pair", "chi", "values"), "0,0"),  # a tuple of the wrong degree
    ],
)
def test_unknown_index_key_refused_with_its_path(name, path, key):
    """Index keys must be exactly the canonical ones: an extra key is
    refused, naming the key and the node, instead of being ignored."""
    data = json.loads(fixture_text(name))
    node = data
    for part in path:
        node = node[part]
    node[key] = next(iter(node.values()))
    want = f"$.{'.'.join(path)}: unknown index key '{key}'"
    with pytest.raises(ParseError, match=f"^{re.escape(want)}$"):
        parse_workbench(json.dumps(data))


def test_noncanonical_rational_rejected_with_suggestion():
    data = json.loads(fixture_text("e1.json"))
    data["algebra"]["product"]["0,0"][0][0][0] = "4/2"
    with pytest.raises(ParseError, match="'2'"):
        parse_workbench(json.dumps(data))


def test_rejects_unknown_schema():
    data = json.loads(fixture_text("e0.json"))
    data["schema"] = "other/9"
    with pytest.raises(ParseError, match="schema"):
        parse_workbench(json.dumps(data))


def test_rejects_bad_table_entry():
    data = json.loads(fixture_text("e0.json"))
    data["monoid"]["table"] = [[3]]
    with pytest.raises(ParseError, match="table"):
        parse_workbench(json.dumps(data))


def test_rejects_wrong_matrix_shape():
    data = json.loads(fixture_text("e1.json"))
    data["algebra"]["p"]["0"] = [["1"]]
    with pytest.raises(ParseError):
        parse_workbench(json.dumps(data))


def _random_family(rng, omega, rows, cols):
    from bihomega.linalg import Mat
    from bihomega.rationals import Rat

    return {
        x: Mat(rows, cols, [Rat(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(rows * cols)])
        for x in omega.elements()
    }


def _random_workbench(rng, a, b, rb=None, ctx=None):
    """A workbench file on (a, b) with every optional block drawn at random:
    names, a cochain of degree 0-3 with either target, a jet of order 1-3,
    twist and Nijenhuis families, a cocycle pair and, given a context, the
    extension it builds.  Each optional block is left out a third of the time."""
    from bihomega.bimodule import regular_bimodule
    from bihomega.cochain import random_equivariant
    from bihomega.deformation import DeformationJet
    from bihomega.extension import CocyclePair, build_extension
    from bihomega.serialization import WorkbenchFile

    om, d = a.omega, a.dim
    reg = regular_bimodule(a)
    wf = WorkbenchFile(om, algebra=a, rota_baxter=rb, bimodule=b)
    draw = lambda: rng.random() < 2 / 3  # noqa: E731
    if draw():
        wf.monoid_names = [rng.choice(("e", "g", "x", "\u03c9")) + str(x) for x in om.elements()]
    if draw():
        wf.cochain_target = rng.choice(("module", "algebra"))
        wf.cochain = random_equivariant(b if wf.cochain_target == "module" else reg, rng.randint(0, 3), rng)
    if draw():
        order = rng.randint(1, 3)
        mu = [random_equivariant(reg, 2, rng) for _ in range(order)]
        wf.jet = DeformationJet(order, mu, [random_equivariant(reg, 1, rng) for _ in range(order)])
    if draw():
        wf.twist_p, wf.twist_q = _random_family(rng, om, d, d), _random_family(rng, om, d, d)
    if draw():
        wf.nijenhuis = _random_family(rng, om, d, d)
    if draw():
        wf.cocycle_pair = CocyclePair(random_equivariant(b, 2, rng), random_equivariant(b, 1, rng))
        if ctx is not None and draw():
            wf.extension = build_extension(ctx, wf.cocycle_pair).presentation
    return wf


def _objects(wf):
    """The objects of a workbench file as comparable values."""
    alg = lambda a: a and (a.omega, a.dim, a.product, a.pmap, a.qmap)  # noqa: E731
    rbf = lambda r: r and (r.weight, r.maps)  # noqa: E731
    b, jet, e = wf.bimodule, wf.jet, wf.extension
    return (
        wf.monoid,
        wf.monoid_names,
        alg(wf.algebra),
        rbf(wf.rota_baxter),
        b and (alg(b.base), b.dim_m, b.left, b.right, b.pmap, b.qmap, b.tmap),
        wf.twist_p,
        wf.twist_q,
        wf.nijenhuis,
        wf.cochain,
        wf.cochain_target,
        jet and (jet.order, jet.mu_orders, jet.r_orders),
        wf.cocycle_pair,
        e and (alg(e.base), rbf(e.rb), e.dim_m, e.pmap_m, e.qmap_m, e.tmap_m, alg(e.total), rbf(e.total_rb)),
        e and (e.incl, e.proj, e.sect, e.retr),
    )


def test_random_structures_survive_serialization():
    """parse . serialize is the identity on seeded random workbench files:
    random valid (algebra, bimodule) pairs and the four named contexts, each
    with random optional blocks."""
    import random

    from generators import random_valid_pair

    from bihomega import samples

    rng = random.Random(2718)
    files = [_random_workbench(rng, *random_valid_pair(rng)) for _ in range(10)]
    for make in (samples.e0_rbf_context, samples.e1_rbf_context, samples.zero1_rbf_context, samples.c2_rbf_context):
        ctx = make()
        files += [_random_workbench(rng, ctx.algebra, ctx.bimodule, ctx.rb, ctx) for _ in range(4)]
    blocks, cochains = set(), set()
    for wf in files:
        text = serialize_workbench(wf)
        back = parse_workbench(text)
        assert _objects(back) == _objects(wf)
        assert serialize_workbench(back) == text
        blocks |= set(json.loads(text))
        if wf.cochain is not None:
            cochains.add((wf.cochain.degree, wf.cochain_target))
    assert blocks == {"schema", "monoid", *BLOCKS}
    assert cochains == {(n, target) for n in range(4) for target in ("module", "algebra")}


def test_optional_monoid_names_round_trip():
    data = json.loads(fixture_text("c2.json"))
    data["monoid"]["names"] = ["e", "g"]
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    wf = parse_workbench(text)
    assert wf.monoid_names == ["e", "g"]
    assert serialize_workbench(wf) == text
    data["monoid"]["names"] = ["only-one"]
    with pytest.raises(ParseError, match="names"):
        parse_workbench(json.dumps(data))


def test_parsed_objects_carry_expected_blocks():
    wf = parse_workbench(fixture_text("e1_rbf.json"))
    assert wf.algebra is not None and wf.rota_baxter is not None
    assert wf.bimodule is not None and wf.bimodule.tmap is not None
    wf2 = parse_workbench(fixture_text("e1_rbf_extension.json"))
    assert wf2.extension is not None
    wf3 = parse_workbench(fixture_text("e1_rbf_jet.json"))
    assert wf3.jet is not None and wf3.jet.order == 1
    wf4 = parse_workbench(fixture_text("e1_rbf_pair.json"))
    assert wf4.cocycle_pair is not None


def test_misspelt_bimodule_t_refused():
    """A bimodule "t" spelt "T" used to parse with no t family."""
    data = json.loads(fixture_text("e1_rbf.json"))
    data["bimodule"]["T"] = data["bimodule"].pop("t")
    with pytest.raises(ParseError, match=f"^{re.escape('$.bimodule: unknown key')} 'T'$"):
        parse_workbench(json.dumps(data))


def test_misspelt_top_level_block_refused():
    """A "rota_baxtr" block used to be ignored, leaving no family."""
    data = json.loads(fixture_text("e1.json"))
    data["rota_baxtr"] = json.loads(fixture_text("e1_rbf.json"))["rota_baxter"]
    with pytest.raises(ParseError, match=f"^{re.escape('$: unknown key')} 'rota_baxtr'$"):
        parse_workbench(json.dumps(data))


@pytest.mark.parametrize(
    "name, path",
    [
        ("c2.json", ("monoid",)),
        ("c2.json", ("algebra",)),
        ("c2_rbf.json", ("rota_baxter",)),
        ("e1_bimodule.json", ("bimodule",)),
        ("diag2_twist.json", ("twist",)),
        ("e1_nijenhuis.json", ("nijenhuis",)),
        ("e1_rbf_jet.json", ("jet",)),
        ("e1_rbf_jet.json", ("jet", "product_orders", 0)),
        ("e1_rbf_pair.json", ("cocycle_pair",)),
        ("e1_rbf_pair.json", ("cocycle_pair", "psi")),
        ("e1_rbf_extension.json", ("extension",)),
    ],
)
def test_unknown_key_in_a_block_refused_with_its_path(name, path):
    data = json.loads(fixture_text(name))
    node = data
    for part in path:
        node = node[part]
    node["extra"] = "1"
    where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    with pytest.raises(ParseError, match=f"^{re.escape(where)}: unknown key 'extra'$"):
        parse_workbench(json.dumps(data))


def test_cochain_block_keys():
    """A cochain block holds degree, target and value (degree 0) or values;
    the degree is optional in a nested cochain, and no other key is read."""
    data = json.loads(fixture_text("e1_rbf_pair.json"))
    psi = data["cocycle_pair"]["psi"]
    del psi["degree"]
    assert parse_workbench(json.dumps(data)).cocycle_pair.psi.degree == 2
    data = json.loads(fixture_text("e1.json"))
    data["cochain"] = {"degree": 0, "target": "algebra", "value": ["1", "0"]}
    assert parse_workbench(json.dumps(data)).cochain.coords == [1, 0]
    for extra in ("values", "targt"):
        bad = dict(data["cochain"], **{extra: {}})
        with pytest.raises(ParseError, match=f"^{re.escape('$.cochain: unknown key')} '{extra}'$"):
            parse_workbench(json.dumps(dict(data, cochain=bad)))


E1_COCHAIN = {"degree": 1, "target": "algebra", "values": {"0": [["1", "0"], ["0", "1"]]}}


def _drop(*paths):
    """A mutation deleting each dotted path from the document."""

    def mutate(data):
        for path in paths:
            *parents, last = path.split(".")
            node = data
            for part in parents:
                node = node[part]
            del node[last]

    return mutate


def _put(path, value):
    """A mutation setting a dotted path (list indices as digits) to ``value``."""

    def mutate(data):
        *parents, last = path.split(".")
        node = data
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(last) if isinstance(node, list) else last] = value

    return mutate


def _with_cochain(**changes):
    return _put("cochain", dict(E1_COCHAIN, **changes))


@pytest.mark.parametrize(
    "name, mutate, want",
    [
        ("e0.json", lambda data: [], "$: expected an object"),
        ("e0.json", _drop("schema"), "$: missing key 'schema'"),
        ("e0.json", _drop("monoid"), "$: missing key 'monoid'"),
        ("c2.json", _put("monoid.size", 0), "$.monoid.size: expected an integer >= 1"),
        ("c2.json", _put("monoid.unit", 2), "$.monoid.unit: unit out of range"),
        ("c2.json", _put("monoid.names", ["e", 1]), "$.monoid.names[1]: names must be strings"),
        ("c2_rbf.json", _drop("algebra"), "$.rota_baxter: rota_baxter block requires an algebra"),
        ("e1_bimodule.json", _drop("algebra"), "$.bimodule: bimodule block requires an algebra"),
        ("diag2_twist.json", _drop("algebra", "rota_baxter"), "$.twist: twist block requires an algebra"),
        ("e1_nijenhuis.json", _drop("algebra"), "$.nijenhuis: nijenhuis block requires an algebra"),
        (
            "e1.json",
            lambda data: _with_cochain()(data) or _drop("algebra")(data),
            "$.cochain: cochain block requires an algebra",
        ),
        (
            "e1_rbf_jet.json",
            _drop("algebra", "rota_baxter", "bimodule"),
            "$.jet: jet block requires an algebra",
        ),
        (
            "e1_rbf_pair.json",
            _drop("bimodule"),
            "$.cocycle_pair: cocycle_pair block requires a bimodule",
        ),
        (
            "e1_rbf_extension.json",
            _drop("rota_baxter"),
            "$.extension: extension block requires algebra, rota_baxter, and bimodule",
        ),
        (
            "e1_rbf_extension.json",
            _drop("bimodule.t"),
            "$.extension: extension block requires the bimodule tmap",
        ),
        (
            "e1.json",
            _with_cochain(target="other"),
            "$.cochain.target: target must be 'module' or 'algebra'",
        ),
        (
            "e1.json",
            _with_cochain(target="module"),
            "$.cochain: module-valued cochain requires a bimodule",
        ),
        ("c2.json", _drop("algebra.q"), "$.algebra: missing key 'q'"),
        ("e1.json", _put("algebra.p.0", [["1", "0"]]), "$.algebra.p['0']: expected 2 entries, got 1"),
        (
            "e1.json",
            _put("algebra.product.0,0.0.0.0", 1),
            "$.algebra.product['0,0'][0][0][0]: rationals must be strings in canonical form",
        ),
        ("e1_rbf_jet.json", _put("jet.order", 0), "$.jet.order: expected an integer >= 1"),
        (
            "e1_rbf_jet.json",
            lambda data: data["jet"]["product_orders"].append(data["jet"]["product_orders"][0]),
            "$.jet.product_orders: expected 1 entries, got 2",
        ),
        (
            "e1_rbf_jet.json",
            _put("jet.product_orders.0.degree", 3),
            "$.jet.product_orders[0]: expected degree 2, found 3",
        ),
        (
            "e1_rbf_pair.json",
            _put("cocycle_pair.psi.values.0,0.0.0", ["0"]),
            "$.cocycle_pair.psi.values['0,0'][0][0]: expected 2 entries, got 1",
        ),
    ],
)
def test_single_defect_messages(name, mutate, want):
    """Each single-defect mutation of a shipped fixture is refused with this
    exact path and message; a mutation may return a replacement document."""
    data = json.loads(fixture_text(name))
    replaced = mutate(data)
    text = json.dumps(data if replaced is None else replaced)
    with pytest.raises(ParseError) as info:
        parse_workbench(text)
    assert str(info.value) == want


def test_invalid_json_message():
    with pytest.raises(ParseError) as info:
        parse_workbench("{")
    assert str(info.value) == (
        "$: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )


def _cochain_file(name, degree, values):
    data = json.loads(fixture_text(name))
    data["cochain"] = {"degree": degree, "target": "algebra", "values": values}
    return json.dumps(data)


@pytest.mark.parametrize(
    "name, degree, values",
    [
        ("c2.json", 40, {}),
        ("c2.json", 40, {",".join(["0"] * 40): []}),  # the walk stops at the second key
        ("e1.json", 10**9, {}),
    ],
)
def test_huge_degree_cochain_is_an_input_error(tmp_path, name, degree, values):
    """A cochain degree whose coordinates could not fit in memory used to
    crash ``validate`` (MemoryError or OverflowError, exit 1) before any
    value was read; the file is now refused at its ``values`` node."""
    from bihomega.cli import EXIT_ERROR, run_command

    path = tmp_path / "cochain.json"
    path.write_text(_cochain_file(name, degree, values), encoding="utf-8")
    report, code = run_command(["--no-timing", "validate", str(path)])
    assert code == EXIT_ERROR
    assert report["error_kind"] == "input"
    assert report["error"].startswith("parse error: $.cochain.values: ")


def test_refusing_a_high_degree_cochain_takes_memory_bounded_by_the_file():
    """Coordinates are appended as they are read, so a refusal allocates
    nothing of size |Omega|^n d^n (about 68 MB for c2 at degree 11)."""
    import tracemalloc

    texts = [
        _cochain_file("c2.json", 11, {}),
        _cochain_file("c2.json", 11, {",".join(["0"] * 11): []}),
    ]
    for text in texts:
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=re.escape("$.cochain.values: ")):
                parse_workbench(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@pytest.mark.parametrize("value", [True, 1.0, "1"])
@pytest.mark.parametrize(
    "name, path",
    [
        ("e1_rbf_jet.json", ("jet", "operator_orders", 0)),
        ("e1_rbf_pair.json", ("cocycle_pair", "chi")),
    ],
)
def test_nested_degree_must_be_an_integer(name, path, value):
    """A nested cochain's degree used to accept true and 1.0 as 1."""
    data = json.loads(fixture_text(name))
    node = data
    for part in path:
        node = node[part]
    node["degree"] = value
    where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    with pytest.raises(ParseError) as info:
        parse_workbench(json.dumps(data))
    assert str(info.value) == f"{where}: expected degree 1, found {value}"


def test_deeply_nested_json_is_an_input_error():
    """JSON nested past the decoder's recursion limit used to escape as a
    RecursionError."""
    with pytest.raises(ParseError, match=re.escape("$: invalid JSON: maximum recursion depth exceeded")):
        parse_workbench("[" * 100_000)
