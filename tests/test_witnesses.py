"""Golden witnesses: every validator keeps its first failure, scan order and output.

``fixtures/witnesses.json`` holds, for each single-entry +1 perturbation of
the battery inputs in ``tools/gen_fixtures.py`` and for a few hand-built
inputs, the exact witness of each of the seven validators and digests of
the star algebra and star bimodule.
"""

import json

from conftest import fixture_text
from gen_fixtures import witness_table

EQUATIONS = {
    "pq-commute", "multiplicativity-p", "multiplicativity-q", "bihom-associativity",
    "rb-p-commute", "rb-q-commute", "rota-baxter",
    "hom-p", "hom-q", "hom-multiplicative",
    "module-pq-commute", "left-module-p", "left-module-q", "left-module-assoc",
    "right-module-p", "right-module-q", "right-module-assoc", "bimodule-mixed",
    "bimodule-algebra-left", "bimodule-algebra-right", "bimodule-algebra-mixed",
    "t-p-commute", "t-q-commute", "rbf-bimodule-left", "rbf-bimodule-right",
    "nijenhuis-p-commute", "nijenhuis-q-commute", "nijenhuis",
}


def test_witness_table_matches_golden():
    golden = json.loads(fixture_text("witnesses.json"))
    table = witness_table()
    assert sorted(table) == sorted(golden)
    for case, row in table.items():
        assert row == golden[case], case


def test_golden_reaches_every_equation():
    golden = json.loads(fixture_text("witnesses.json"))
    seen = {
        outcome["equation"]
        for row in golden.values()
        for outcome in row.values()
        if isinstance(outcome, dict) and "equation" in outcome
    }
    assert seen == EQUATIONS
