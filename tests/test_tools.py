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
