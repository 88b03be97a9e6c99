from ab_pairs import has_bytecode, main, quartiles, summarize


def test_ab_summary_counts_wins_and_needs_a_gap_beyond_the_parent_iqr():
    parent = [{"wall_s": v, "hits": v} for v in (10, 11, 12, 13, 14, 10, 11, 12, 13, 14)]
    assert quartiles([r["wall_s"] for r in parent]) == {"q1": 11, "median": 12, "q3": 13}
    close = [{"wall_s": v - 1, "hits": v} for v in (10, 11, 12, 13, 14, 10, 11, 12, 13, 16)]
    s = summarize(parent, close, {"wall_s": "lower", "hits": "higher"})
    assert s["wall_s"]["change_wins"] == 9 and s["wall_s"]["parent_iqr"] == 2
    assert not s["wall_s"]["gain"]  # nine wins, but a median gap of 1 is inside the IQR
    assert s["hits"]["change_wins"] == 1 and not s["hits"]["gain"]  # ties count for neither
    far = [{"wall_s": r["wall_s"] - 5, "hits": r["hits"] + 5} for r in parent]
    s = summarize(parent, far, {"wall_s": "lower", "hits": "higher"})
    assert s["wall_s"]["gain"] and s["hits"]["gain"] and s["wall_s"]["change_wins"] == 10
    assert s["wall_s"]["relative_change"] == -5 / 12
    assert quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}


def test_ab_summary_verdict_reads_the_relative_bound():
    """With a relative bound of 0.1: a change worse than the parent's median
    by more than 10% is "worse" (also when the parent's runs spread widely),
    a parent IQR wider than 10% of its median leaves a change within the
    bound "unresolved", and inside both the verdict is the gain rule's; a
    metric without a bound gets only "gain" or "no gain"."""
    better, bounds = {"wall_s": "lower", "hits": "higher"}, {"wall_s": 0.1, "hits": 0.1}
    tight = [{"wall_s": v, "hits": v} for v in (99, 100, 100, 100, 101)]  # median 100, IQR 0
    wide = [{"wall_s": v, "hits": v} for v in (80, 90, 100, 110, 120)]  # median 100, IQR 20

    def verdicts(parent, change, bounds=bounds):
        s = summarize(parent, change, better, bounds)
        return s["wall_s"]["verdict"], s["hits"]["verdict"]

    shifted = lambda runs, k: [{"wall_s": r["wall_s"] + k, "hits": r["hits"] - k} for r in runs]
    assert verdicts(tight, shifted(tight, 11)) == ("worse", "worse")  # 11% worse both ways
    assert verdicts(tight, shifted(tight, 10)) == ("no gain", "no gain")  # exactly at the bound
    assert verdicts(wide, shifted(wide, 11)) == ("worse", "worse")
    assert verdicts(wide, shifted(wide, 5)) == ("unresolved", "unresolved")
    assert verdicts(wide, shifted(wide, -30)) == ("unresolved", "unresolved")  # a gain the spread hides
    assert verdicts(tight, shifted(tight, -5)) == ("gain", "gain")
    assert verdicts(tight, tight) == ("no gain", "no gain")
    assert verdicts(wide, shifted(wide, 11), {}) == ("no gain", "no gain")


def test_ab_pairs_refuses_when_only_one_checkout_holds_bytecode(tmp_path, capsys):
    cached, bare = tmp_path / "cached", tmp_path / "bare"
    (cached / "src" / "bihomega" / "__pycache__").mkdir(parents=True)
    (bare / "src" / "bihomega").mkdir(parents=True)
    assert has_bytecode(cached) and not has_bytecode(bare)
    common = ["--workload", "fixtures", "--seed", "1", "--pairs", "1"]
    assert main(["--parent", str(cached), "--change", str(bare), *common]) == 2
    assert f"only the parent checkout {cached} holds src/bihomega/__pycache__" in capsys.readouterr().err
    assert main(["--parent", str(bare), "--change", str(cached), *common]) == 2
    assert f"only the change checkout {cached} holds src/bihomega/__pycache__" in capsys.readouterr().err


def test_ab_pairs_prints_and_records_one_verdict_block_per_workload(tmp_path, capsys, monkeypatch):
    """Several --workload values run in one invocation: the pairs alternate
    sides within each workload, and each workload gets its own summary."""
    import json

    import ab_pairs

    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        (side / "src" / "bihomega").mkdir(parents=True)
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.05},
                           {"name": "peak_rss_mb", "better": "lower"}]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    base = {"fixtures": 1.0, "ladder": 2.0}
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload))
        k = sum(1 for c in calls if c == (checkout.name, workload))
        wall = base[workload] * (0.9 if checkout == change and workload == "fixtures" else 1.0) + k / 1000
        return {"wall_s": wall, "peak_rss_mb": 20.0, "correct": True, "env": {"python": "3"}}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run_once)
    out = tmp_path / "ab.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "fixtures", "--workload", "ladder",
            "--seed", "3", "--pairs", "4", "--json", str(out)]
    assert ab_pairs.main(argv) == 0
    assert calls[:4] == [
        ("parent", "fixtures"), ("change", "fixtures"), ("change", "fixtures"), ("parent", "fixtures")
    ]
    assert [w for _, w in calls] == ["fixtures"] * 8 + ["ladder"] * 8
    text = capsys.readouterr().out
    fixtures_block = text[text.index("== fixtures"):text.index("== ladder")]
    ladder_block = text[text.index("== ladder"):]
    assert "wall_s" in fixtures_block and "change wins 4/4" in fixtures_block and " gain" in fixtures_block
    assert "change wins 0/4" in ladder_block and "no gain" in ladder_block
    record = json.loads(out.read_text())
    assert record["method"]["workloads"] == ["fixtures", "ladder"]
    assert record["method"]["bytecode"] == {"parent": False, "change": False}
    assert set(record["workloads"]) == {"fixtures", "ladder"}
    fixtures = record["workloads"]["fixtures"]
    assert [r["pair"] for r in fixtures["runs"]["change"]] == [1, 2, 3, 4]
    assert fixtures["summary"]["wall_s"]["gain"] and fixtures["summary"]["wall_s"]["change_wins"] == 4
    assert not record["workloads"]["ladder"]["summary"]["wall_s"]["gain"]
    assert record["workloads"]["ladder"]["summary"]["peak_rss_mb"]["change_wins"] == 0  # ties count for neither
    assert fixtures["summary"]["wall_s"]["verdict"] == "gain"
    assert record["workloads"]["ladder"]["summary"]["wall_s"]["verdict"] == "no gain"
    assert record["workloads"]["ladder"]["summary"]["peak_rss_mb"]["verdict"] == "no gain"  # no bound


def test_ab_pairs_stops_at_a_run_with_wrong_outputs(tmp_path, capsys, monkeypatch):
    import json

    import ab_pairs

    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    monkeypatch.setattr(
        ab_pairs, "run_once", lambda checkout, workload, *rest: {"wall_s": 1.0, "correct": workload != "ladder"}
    )
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "fixtures", "--workload", "ladder",
            "--seed", "3", "--pairs", "2"]
    assert ab_pairs.main(argv) == 1
    assert "ladder pair 1: the parent run reported wrong outputs" in capsys.readouterr().err


def test_same_reports_names_each_differing_command_and_exits_one(tmp_path, capsys, monkeypatch):
    """tools/same_reports.py compares the collected reports and exit codes
    of two checkouts command by command: equal collections exit 0; a planted
    difference in a report, in an exit code or in the commands run, or in
    one report of the extension battery, exits 1 and names each differing
    command, and no other."""
    import same_reports

    parent, change = tmp_path / "parent", tmp_path / "change"
    base = {"validate fixtures/e1.json": ["{}\n", 0], "cohomology fixtures/c2.json --complex alg": ["{\"a\": 1}\n", 0]}
    planted = {}
    monkeypatch.setattr(same_reports, "collect", lambda checkout: base if checkout == parent else planted)
    planted.update(base)
    assert same_reports.main([str(parent), str(change)]) == 0
    assert "0 of 2 commands differ" in capsys.readouterr().out
    planted["cohomology fixtures/c2.json --complex alg"] = ["{\"a\": 2}\n", 0]
    planted["validate fixtures/e1.json"] = ["{}\n", 1]
    planted["star fixtures/e1_rbf.json"] = ["{}\n", 0]
    assert same_reports.main([str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "differs: cohomology fixtures/c2.json --complex alg",
        "differs: star fixtures/e1_rbf.json",
        "differs: validate fixtures/e1.json",
        "3 of 3 commands differ",
    ]
    del planted["validate fixtures/e1.json"], planted["star fixtures/e1_rbf.json"]
    planted["cohomology fixtures/c2.json --complex alg"] = base["cohomology fixtures/c2.json --complex alg"]
    assert same_reports.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "differs: validate fixtures/e1.json"
    battery = "extract-cocycle fixtures/e1_rbf_extension.json +1 extension.sect.0.2.0"
    base = {battery: ["{\"error\": \"retraction-section\"}\n", 2], "validate fixtures/e1.json": ["{}\n", 0]}
    planted = {**base, battery: ["{\"error\": \"section q\"}\n", 2]}
    assert same_reports.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"differs: {battery}", "1 of 2 commands differ"]


def test_same_reports_battery_raises_each_extension_entry_once():
    """The extension battery of tools/same_reports.py: one perturbed copy per
    rational entry of the extension block of fixtures/e1_rbf_extension.json,
    144 in all, keyed by leaf path, each with exactly that entry raised by 1."""
    import json
    from fractions import Fraction

    import same_reports
    from conftest import fixture_text

    data = json.loads(fixture_text("e1_rbf_extension.json"))
    battery = dict(same_reports.perturbations(data))
    assert len(battery) == 144 and "extension.sect.0.2.0" in battery
    for leaf, copy in battery.items():
        node = copy
        keys = leaf.split(".")
        for key in keys[:-1]:
            node = node[int(key) if isinstance(node, list) else key]
        last = int(keys[-1]) if isinstance(node, list) else keys[-1]
        node[last] = str(Fraction(node[last]) - 1)
        assert copy == data, leaf


def test_same_reports_compares_every_ordered_pair_of_extension_fixtures(monkeypatch):
    """tools/same_reports.py runs compare-ext on every ordered pair of the
    fixtures with an extension block, self-comparisons included: the two
    shipped ones give four commands, the benchmark mix's one direction
    among them, each listed once."""
    import sys

    import same_reports
    from conftest import ROOT

    monkeypatch.setattr(sys, "path", list(sys.path))
    compares = [argv for argv in same_reports.commands(ROOT) if argv[0] == "compare-ext"]
    names = ("fixtures/e1_rbf_extension.json", "fixtures/e1_rbf_extension2.json")
    assert sorted(compares) == [["compare-ext", f, g] for f in names for g in names]


def test_stage_tool_rbfa_case_counts_phi_blocks_exactly():
    """tools/cohomology_stages.py's rbfa case on fixtures/c2_rbf.json to
    degree 3: one Horner block of φ per degree (every tuple has R_0 = R_1
    and T = R, so all 2^k tuples share one class; at k = 0 the identity,
    built on the empty tuple), the same on every run; the seconds are
    reported as ``phi_s``."""
    from cohomology_stages import RBFA_FIXTURE, RBFA_MAX_DEGREE, median_table, rbfa_pass

    runs = [rbfa_pass(RBFA_FIXTURE, RBFA_MAX_DEGREE) for _ in range(2)]
    for run in runs:
        assert [(row["degree"], row["phi_blocks"]) for row in run] == [(0, 1), (1, 1), (2, 1), (3, 1)]
    table = median_table(runs, RBFA_MAX_DEGREE, ("phi",), ("phi",))
    assert [sorted(row) for row in table] == [["degree", "phi_blocks", "phi_s"]] * 4
    assert all(row["phi_s"] >= 0 for row in table)


def test_stage_tool_combined_case_pivot_counts_match_the_tables():
    """tools/cohomology_stages.py's combined case on the c2 context to
    degree 3: phase 1 counts rank ∂_{k-1}, the pivots in the C^{k+1} columns
    rank δ_k and all pivots rank d_k, as the three reports of
    ``rbfa_cohomology_dims`` read them (cochains - cocycles)."""
    from cohomology_stages import combined_pass

    from bihomega import samples
    from bihomega.rbf import rbfa_cohomology_dims

    ctx = samples.c2_rbf_context()
    fixed, rows = combined_pass(ctx.algebra, ctx.rb, 3)
    assert sorted(fixed) == ["checks", "top"]
    counts = [(row["rank_partial"], row["rank_delta"], row["rank"]) for row in rows]
    assert counts == [(0, 2, 2), (1, 3, 4), (4, 9, 13), (12, 39, 51)]
    ranks = {name: [row.dim_cochains - row.dim_cocycles for row in report.rows]
             for name, report in rbfa_cohomology_dims(samples.c2_rbf_context(), 3).items()}
    assert counts == list(zip([0] + ranks["rbf"][:-1], ranks["alg"], ranks["rbfa"]))


def test_gen_fixtures_regenerates_every_committed_fixture_byte_for_byte(monkeypatch):
    """``tools/gen_fixtures.py`` writes exactly the files under fixtures/,
    each identical to the committed one.  The witness table is taken from
    the committed golden (``test_witnesses.py`` checks it against the
    validators), so this pins every other fixture."""
    import json

    import gen_fixtures
    from conftest import FIXTURES

    written = {}

    def capture(name, text):
        assert name not in written, name
        written[name] = text

    golden = json.loads((FIXTURES / "witnesses.json").read_text(encoding="utf-8"))
    monkeypatch.setattr(gen_fixtures, "write", capture)
    monkeypatch.setattr(gen_fixtures, "witness_table", lambda: golden)
    gen_fixtures.main()
    committed = sorted(p.name for p in FIXTURES.iterdir())
    assert sorted(written) == committed and len(committed) == 27
    for name in committed:
        assert written[name] == (FIXTURES / name).read_text(encoding="utf-8"), name
