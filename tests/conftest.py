import json

import pytest

TINY_WORKLOAD = {
    "spec_version": 1,
    "workload": {
        "name": "tiny",
        "layers": [
            {"name": "a", "kind": "conv",
             "dims": {"N": 1, "K": 8, "C": 4, "P": 7, "Q": 7, "R": 3,
                      "S": 3}},
            {"name": "b", "kind": "conv",
             "dims": {"N": 1, "K": 8, "C": 8, "P": 7, "Q": 7, "R": 3,
                      "S": 3}},
        ],
    },
}


@pytest.fixture
def tiny_workload(tmp_path):
    p = tmp_path / "tiny.spec"
    p.write_text(json.dumps(TINY_WORKLOAD))
    return str(p)
