import json
import re

import pytest

from conftest import FIXTURES, fixture_text

from bihomega.errors import ParseError
from bihomega.serialization import parse_workbench, serialize_workbench

WORKBENCH_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.json") if '"schema"' in p.read_text(encoding="utf-8")
)


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


def test_random_structures_survive_serialization():
    import random

    from generators import random_valid_pair
    from oracles import algebra_equal, bimodule_equal
    from bihomega.serialization import WorkbenchFile

    rng = random.Random(2718)
    for _ in range(10):
        a, b = random_valid_pair(rng)
        wf = WorkbenchFile(a.omega, algebra=a, bimodule=b)
        text = serialize_workbench(wf)
        back = parse_workbench(text)
        assert algebra_equal(back.algebra, a)
        assert bimodule_equal(back.bimodule, b)
        assert serialize_workbench(back) == text


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
