"""tools/stage_split.py times the search stages by rebinding names in the
package; it must reach every stage and leave every name as it found it."""

import importlib.util
from pathlib import Path

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
            < calls["candidate_pricing"] == calls["candidate_counting"])
    # R's menu sits at its minimum row in most throughput searches.
    assert out["limits_skipped"] > 0
    # A draw's filter step calls feasible only for a prefix not drawn
    # before; each level's legal loop orders are built once per live dims.
    assert (out["draw_filter_steps"] == calls["draw_step"]
            == calls["feasible"] + out["tree_hits"])
    assert out["tree_hits"] > 0
    assert 0 < calls["order_table"] < calls["draw_step"]
