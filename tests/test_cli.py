import argparse
import time

import pytest
from conftest import fixture_path

from bihomega.cli import render_report, run_command
from bihomega.errors import MalformedInputError
from bihomega.search import search_nijenhuis, search_rbf


def run(args):
    return run_command(args)


def test_validate_ok_exit_zero():
    report, code = run(["--no-timing", "validate", fixture_path("e1.json")])
    assert code == 0
    assert report["status"] == "ok"
    assert report["checks"]["algebra"] == "ok"


def test_validate_broken_exit_one_with_witness():
    report, code = run(["--no-timing", "validate", fixture_path("e1_broken.json")])
    assert code == 1
    assert report["status"] == "witness"
    assert report["witness"]["equation"] == "bihom-associativity"


def test_validate_rbf_fixture_checks_all_blocks():
    report, code = run(["--no-timing", "validate", fixture_path("e1_rbf.json")])
    assert code == 0
    assert report["checks"] == {
        "monoid": "ok",
        "algebra": "ok",
        "rota_baxter": "ok",
        "bimodule": "ok",
        "rbf_bimodule": "ok",
    }


def test_cohomology_e0_table():
    report, code = run(
        ["--no-timing", "cohomology", fixture_path("e0.json"), "--complex", "alg", "--max-degree", "3"]
    )
    assert code == 0
    rows = report["tables"]["alg"]["degrees"]
    assert [r["cohomology"] for r in rows] == [1, 0, 0, 0]


def test_cohomology_rbfa_all_three_tables():
    report, code = run(
        ["--no-timing", "cohomology", fixture_path("e0_rbf.json"), "--complex", "rbfa", "--max-degree", "2"]
    )
    assert code == 0
    assert set(report["tables"]) == {"alg", "rbf", "rbfa"}


@pytest.mark.parametrize("complex_name", ["alg", "rbfa"])
def test_cohomology_negative_max_degree_refused(complex_name):
    report, code = run(
        ["--no-timing", "cohomology", fixture_path("e0_rbf.json"), "--complex", complex_name, "--max-degree", "-1"]
    )
    assert code == 2
    assert report["status"] == "error"
    assert "max_degree" in report["error"]
    assert "tables" not in report


def test_mc_check_ok_and_witness():
    report, code = run(["--no-timing", "mc-check", fixture_path("e1.json")])
    assert code == 0 and report["residual_zero"] is True
    report, code = run(["--no-timing", "mc-check", fixture_path("e1_broken.json")])
    assert code == 1 and report["residual_zero"] is False
    assert "witness" in report


def test_star_emits_validating_output():
    report, code = run(["--no-timing", "star", fixture_path("e1_rbf.json")])
    assert code == 0
    assert report["output"]["algebra"]["dim"] == 2


def test_yau_twist_command():
    report, code = run(["--no-timing", "yau-twist", fixture_path("diag2_twist.json")])
    assert code == 0
    assert report["status"] == "ok"


def test_nijenhuis_command():
    report, code = run(["--no-timing", "nijenhuis", fixture_path("e1_nijenhuis.json")])
    assert code == 0
    assert report["nijenhuis"] == "ok"
    assert report["deformed_valid"] and report["homomorphism"] and report["psi_zero"]


def test_nijenhuis_command_checks_and_deforms_once(monkeypatch):
    """One nijenhuis command runs the Nijenhuis check, the deformed product
    and the validation of the deformed algebra once each."""
    from bihomega import cli, deformation

    calls = []
    for module, name in (
        (deformation, "check_nijenhuis"),
        (deformation, "deformed_mu"),
        (deformation, "validate_algebra"),
        (cli, "check_nijenhuis"),
    ):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    report, code = run(["--no-timing", "nijenhuis", fixture_path("e1_nijenhuis.json")])
    assert code == 0 and report["psi_zero"]
    assert sorted(calls) == ["check_nijenhuis", "deformed_mu", "validate_algebra"]


def test_commands_check_each_family_and_bimodule_once(monkeypatch):
    """The operator family is checked once per algebra object it lives on
    (the parsed algebra, an extension's total; an extension's base family
    is implied by its total's), and validate checks its bimodule once: the
    weighted action scan does not repeat the checks it presupposes.  The
    rbfa tables check the context bimodule once and the star bimodule once."""
    from bihomega import algebra, bimodule, cli, cochain, extension, rbf

    calls = []
    for module in (algebra, bimodule, cli, cochain, extension, rbf):
        for name in ("check_rota_baxter", "validate_bimodule"):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name: calls.append((_n, a[0])) or _f(*a))
    ext, ext2 = fixture_path("e1_rbf_extension.json"), fixture_path("e1_rbf_extension2.json")
    for argv, family_checks, bimodule_checks in (
        (["validate", fixture_path("e1_rbf.json")], 1, 1),
        (["cohomology", fixture_path("e1_rbf.json"), "--complex", "rbfa"], 1, 2),
        (["extend", fixture_path("e1_rbf_pair.json")], 2, 1),
        (["extract-cocycle", ext], 1, 1),
        (["compare-ext", ext, ext2], 2, 2),
    ):
        calls.clear()
        _, code = run(["--no-timing", *argv])
        assert code == 0, argv
        family = [obj for name, obj in calls if name == "check_rota_baxter"]
        assert len(family) == len({id(obj) for obj in family}) == family_checks, argv
        bimodules = [obj for name, obj in calls if name == "validate_bimodule"]
        assert len(bimodules) == len({id(obj) for obj in bimodules}) == bimodule_checks, argv


def test_deform_check_command():
    report, code = run(["--no-timing", "deform-check", fixture_path("e1_rbf_jet.json")])
    assert code == 0
    assert all(o["associativity"] and o["operator_identity"] for o in report["orders"])


def test_extend_command():
    report, code = run(["--no-timing", "extend", fixture_path("e1_rbf_pair.json")])
    assert code == 0
    assert report["valid"] and report["is_cocycle"]
    assert "extension" in report["output"]


def test_extract_cocycle_command():
    report, code = run(["--no-timing", "extract-cocycle", fixture_path("e1_rbf_extension.json")])
    assert code == 0
    assert "cocycle_pair" in report["output"]


def test_compare_ext_command_cohomologous():
    report, code = run(
        [
            "--no-timing",
            "compare-ext",
            fixture_path("e1_rbf_extension.json"),
            fixture_path("e1_rbf_extension2.json"),
        ]
    )
    assert code == 0
    assert report["cohomologous"] is True
    assert "iso" in report


def test_search_rbf_zero_algebra_counts_all_candidates():
    report, code = run(
        ["--no-timing", "search-rbf", fixture_path("zero1.json"), "--bound", "1", "--weight", "0"]
    )
    assert code == 0
    assert report["count"] == 3  # (2*1+1)^(1*1*1)


def test_search_rbf_e1_contains_zero_family():
    report, code = run(
        ["--no-timing", "search-rbf", fixture_path("e1.json"), "--bound", "1", "--weight", "0"]
    )
    assert code == 0
    assert report["count"] >= 1
    zero_mat = [["0", "0"], ["0", "0"]]
    assert any(fam["0"] == zero_mat for fam in report["families"])


def test_search_rbf_e0_weight_one_contains_negated_identity():
    report, code = run(
        ["--no-timing", "search-rbf", fixture_path("e0.json"), "--bound", "1", "--weight", "1"]
    )
    assert code == 0
    assert any(fam["0"] == [["-1"]] for fam in report["families"])


def test_unknown_flag_exit_two():
    _, code = run(["validate", fixture_path("e1.json"), "--frobnicate"])
    assert code == 2


def test_usage_error_report_names_the_command_as_a_string(capsys):
    report, code = run(["validate", fixture_path("e1.json"), "--frobnicate"])
    assert (report, code) == (
        {"command": "validate", "status": "error", "error": "usage", "error_kind": "input"},
        2,
    )
    for argv, command in (([], ""), (["--no-timing"], ""), (["--no-timing", "bogus"], "bogus")):
        report, code = run(argv)
        assert (report, code) == (
            {"command": command, "status": "error", "error": "usage", "error_kind": "input"},
            2,
        )


def test_help_request_reports_ok(capsys):
    for argv, command in ((["--help"], ""), (["--no-timing", "cohomology", "--help"], "cohomology")):
        report, code = run(argv)
        assert code == 0
        assert report == {"command": command, "status": "ok"}
    assert "usage:" in capsys.readouterr().out


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    report, code = run(["--no-timing", "validate", str(bad)])
    assert code == 2
    assert report["status"] == "error"


def test_parse_error_reports_input_kind(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    report, code = run(["--no-timing", "validate", str(bad)])
    assert code == 2
    assert report["status"] == "error"
    assert report["error_kind"] == "input"
    assert report["error"].startswith("parse error: ")


def test_internal_check_error_exit_three(monkeypatch):
    from bihomega import cli
    from bihomega.errors import InternalCheckError

    def disagree(args):
        raise InternalCheckError("routes disagree")

    monkeypatch.setattr(cli, "cmd_validate", disagree)
    report, code = run(["--no-timing", "validate", fixture_path("e1.json")])
    assert code == 3
    assert report == {
        "command": "validate",
        "status": "error",
        "error": "internal consistency failure: routes disagree",
        "error_kind": "internal",
    }


def _subcommand_names(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


def test_every_subcommand_dispatches_to_a_command_function():
    from bihomega import cli

    names = _subcommand_names(cli._build_parser())
    assert len(names) == 12
    commands = {name[len("cmd_"):].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    assert names == commands
    for name in names:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))


def test_parser_is_built_once():
    from bihomega import cli

    assert cli._build_parser() is cli._build_parser()


def test_interleaved_commands_report_alike_in_either_order(capsys):
    """One parser serves every call: no option, default or command of an
    earlier call leaks into a later one."""
    sequence = [
        ["--no-timing", "cohomology", fixture_path("e0_rbf.json"), "--complex", "rbfa", "--max-degree", "1"],
        ["--no-timing", "cohomology", fixture_path("e1.json")],
        ["--no-timing", "validate", fixture_path("e1.json"), "--frobnicate"],
        ["--no-timing", "cohomology", "--help"],
        ["--no-timing", "selftest", "--samples", "5"],
    ]
    forward = [run(argv) for argv in sequence]
    backward = [run(argv) for argv in reversed(sequence)][::-1]
    assert [(render_report(r), c) for r, c in forward] == [(render_report(r), c) for r, c in backward]
    rbfa, defaults, usage, help_request, selftest = forward
    assert set(rbfa[0]["tables"]) == {"alg", "rbf", "rbfa"}
    assert list(defaults[0]["tables"]) == ["alg"]
    assert [r["degree"] for r in defaults[0]["tables"]["alg"]["degrees"]] == [0, 1, 2]
    assert usage == ({"command": "validate", "status": "error", "error": "usage", "error_kind": "input"}, 2)
    assert help_request == ({"command": "cohomology", "status": "ok"}, 0)
    assert selftest[0]["results"]["mc_equivalence_trials"] == 5


@pytest.mark.parametrize("weight", ["abc", "1/0", "", "1/2/3"])
def test_search_rbf_unreadable_weight_refused(weight):
    report, code = run(["--no-timing", "search-rbf", fixture_path("e1.json"), "--weight", weight])
    assert code == 2
    assert report["status"] == "error" and report["error_kind"] == "input"
    assert "--weight" in report["error"]


@pytest.mark.parametrize("weight", ["1e2", "1E2", "2.5e-1", "1e999999999"])
def test_search_rbf_exponent_weight_refused_at_once(weight):
    """An exponent is refused before it is expanded: Fraction would build
    all 10^k digits of 1e999999999 first."""
    start = time.perf_counter()
    report, code = run(["--no-timing", "search-rbf", fixture_path("e1.json"), "--weight", weight])
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert report["status"] == "error" and report["error_kind"] == "input"
    assert "--weight" in report["error"]


def test_search_rbf_readable_weights_accepted():
    families = {}
    for weight in ("-1", "0", "4/2", "1/3", "0.5", "1/2", "2"):
        report, code = run(["--no-timing", "search-rbf", fixture_path("e0.json"), "--bound", "1", "--weight", weight])
        assert code == 0, report
        families[weight] = report["families"]
    assert families["4/2"] == families["2"]
    assert families["0.5"] == families["1/2"]


def test_meaningless_counts_refused():
    report, code = run(["--no-timing", "search-rbf", fixture_path("e1.json"), "--bound", "-1"])
    assert code == 2 and report["error_kind"] == "input" and "bound" in report["error"]
    report, code = run(["--no-timing", "selftest", "--samples", "-3"])
    assert code == 2 and report["error_kind"] == "input" and "--samples" in report["error"]
    report, code = run(["--no-timing", "selftest", "--samples", "0"])
    assert code == 0 and report["results"]["mc_equivalence_trials"] == 0


def test_negative_search_cap_refused(e1):
    """A negative cap is a malformed input, in the CLI and the API alike, not
    an enumeration too large for it: no smaller bound than 0 exists."""
    report, code = run(["--no-timing", "search-rbf", fixture_path("e1.json"), "--bound", "0", "--cap", "-1"])
    assert code == 2 and report["error_kind"] == "input" and "cap must be non-negative" in report["error"]
    for search in (lambda: search_rbf(e1, 0, 0, cap=-1), lambda: search_nijenhuis(e1, 0, cap=-1)):
        with pytest.raises(MalformedInputError, match="cap must be non-negative, got -1"):
            search()
    report, code = run(["--no-timing", "search-rbf", fixture_path("e1.json"), "--bound", "0", "--cap", "1"])
    assert code == 0, report


def test_reports_deterministic_without_timing():
    a1 = render_report(run(["--no-timing", "cohomology", fixture_path("e1.json"), "--max-degree", "2"])[0])
    a2 = render_report(run(["--no-timing", "cohomology", fixture_path("e1.json"), "--max-degree", "2"])[0])
    assert a1 == a2
    s1 = render_report(run(["--no-timing", "selftest", "--seed", "7", "--samples", "5"])[0])
    s2 = render_report(run(["--no-timing", "selftest", "--seed", "7", "--samples", "5"])[0])
    assert s1 == s2


def test_timing_present_by_default():
    report, _ = run(["validate", fixture_path("e0.json")])
    assert "timing" in report


def test_selftest_passes():
    report, code = run(["--no-timing", "selftest", "--seed", "11", "--samples", "10"])
    assert code == 0
    assert report["results"]["mc_equivalence"] is True


def test_extend_extract_workflow_through_files(tmp_path):
    import json

    report, code = run(["--no-timing", "extend", fixture_path("e1_rbf_pair.json")])
    assert code == 0
    out_file = tmp_path / "built_extension.json"
    out_file.write_text(json.dumps(report["output"], sort_keys=True, indent=2) + "\n")
    report2, code2 = run(["--no-timing", "extract-cocycle", str(out_file)])
    assert code2 == 0
    with open(fixture_path("e1_rbf_pair.json"), encoding="utf-8") as fh:
        original = json.load(fh)
    assert report2["output"]["cocycle_pair"] == original["cocycle_pair"]


def test_every_shipped_fixture_revalidates():
    from conftest import FIXTURES

    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        if '"schema"' not in text:
            continue
        report, code = run(["--no-timing", "validate", str(path)])
        if "broken" in path.name:
            assert code == 1, path.name
        else:
            assert code == 0, (path.name, report)
