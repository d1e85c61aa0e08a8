"""tools/stage_split.py times the search stages by rebinding names in the
package; it must reach every stage and leave every name as it found it."""

import importlib.util
import json
from pathlib import Path

from photon_model import mapper

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_split.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("stage_split", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stage_split_calls_every_stage_and_restores_every_name():
    tool = _load_tool()
    owners = {owner for owner, _ in tool.STAGES.values()}
    before = {owner: dict(vars(owner)) for owner in owners}
    out = tool.stage_split("throughput", [7], 8)
    for owner in owners:
        after = vars(owner)
        assert after.keys() == before[owner].keys()
        assert all(after[k] is v for k, v in before[owner].items()), owner
    assert set(out["stages"]) == set(tool.STAGES)
    assert all(s["calls"] > 0 for s in out["stages"].values()), out["stages"]
    assert 0 <= out["search_self_s"] <= out["stages"]["search"]["seconds"]
    # Every visited candidate is priced; a mapping is built only for a
    # tie and for the winner, the one mapping each search evaluates, and
    # so counts and validates.
    calls = {name: s["calls"] for name, s in out["stages"].items()}
    searches = calls["search"]
    assert (calls["evaluate"] == calls["counting"] == calls["validate"]
            == searches)
    assert (searches <= calls["build_mapping"]
            < calls["candidate_pricing"] == calls["offer"])
    # R's menu sits at its minimum row in most throughput searches.
    assert out["limits_skipped"] > 0
    # Searches share the chain tables of their architecture: a table is
    # enumerated at most once per menu built from it.
    assert 0 < calls["chain_table"] <= calls["map_space_build"]
    assert (out["tables_per_pass"], out["menus_per_pass"]) == (
        calls["chain_table"], calls["map_space_build"])
    # A draw's filter step builds a node (and calls feasible, unless the
    # node is complete) only for a prefix it meets no kept node for; each
    # level's legal loop orders are built once per live dims.
    assert out["draw_filter_steps"] == calls["draw_step"] > calls["feasible"]
    # Each search's root holds a children map, and so does each prefix
    # drawn again below one: fewer than the steps.
    assert searches < out["tree_nodes"] < out["draw_filter_steps"]
    assert 0 < calls["order_table"] < calls["draw_step"]


def test_tree_hits_are_the_steps_that_return_a_kept_node(monkeypatch):
    # Runs the study's searches again with each draw step classed by the
    # tree it steps in: it returns a kept node when its node holds a
    # children map that the step leaves the same size (a built node is
    # added to it, and a dead end returns None).
    tool = _load_tool()
    step = mapper._Walk.step
    hits, steps = [0], [0]

    def classed(walk, node, di, getrandbits, picks):
        below = node[2]
        held = None if below is None else len(below)
        nxt = step(walk, node, di, getrandbits, picks)
        hits[0] += nxt is not None and held is not None and len(below) == held
        steps[0] += 1
        return nxt

    monkeypatch.setattr(mapper._Walk, "step", classed)
    out = tool.stage_split("memory", [7], 8)
    assert out["draw_filter_steps"] == steps[0]
    assert out["tree_hits"] == hits[0] > 0


def test_evaluate_split_times_every_stage_and_restores_every_name():
    tool = _load_tool()
    owners = {owner for owner, _ in tool.EVALUATE_STAGES.values()}
    before = {owner: dict(vars(owner)) for owner in owners}
    out = tool.evaluate_split(documents=20, passes=2)
    for owner in owners:
        after = vars(owner)
        assert after.keys() == before[owner].keys()
        assert all(after[k] is v for k, v in before[owner].items()), owner
    assert out["documents"] == 20
    # One call of each stage per valid document: the nest is built once.
    assert out["calls_per_pass"] == dict.fromkeys(tool.EVALUATE_STAGES, 20)
    split = out["us_per_document"]
    assert list(split) == ["parse", "nest", "validate", "plan", "count",
                           "result", "sum"]
    assert all(v > 0 for v in split.values()), split


def test_evaluate_command_line_reaches_every_stage(capsys):
    tool = _load_tool()
    owners = {owner for owner, _ in tool.EVALUATE_STAGES.values()}
    before = {owner: dict(vars(owner)) for owner in owners}
    assert tool.main(["--experiment", "evaluate", "--documents", "5",
                      "--passes", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    for owner in owners:
        after = vars(owner)
        assert after.keys() == before[owner].keys()
        assert all(after[k] is v for k, v in before[owner].items()), owner
    assert (out["experiment"], out["documents"], out["passes"]) == (
        "evaluate", 5, 1)
    assert out["calls_per_pass"] == dict.fromkeys(tool.EVALUATE_STAGES, 5)
    assert out["us_per_document"]["sum"] > 0
