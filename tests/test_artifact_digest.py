"""tools/artifact_digest.py: what it reads from a bench/run.py history.json."""

import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from artifact_digest import read_digests  # noqa: E402


def test_read_digests_keys_each_run_by_workload_and_seed(tmp_path):
    history = tmp_path / "history.json"
    history.write_text(json.dumps({
        "cold_build|seed=7|code=0123456789abcdef": {"artifacts_sha256": "aa"},
        "cold_build|seed=11|code=0123456789abcdef": {"artifacts_sha256": "bb"},
        "infer_new_text|seed=7|code=0123456789abcdef": {
            "artifacts_sha256": "cc-dd", "counts": {"relations.predict_bags": 3}},
    }, sort_keys=True, indent=1) + "\n")
    assert read_digests(history) == {("cold_build", 7): "aa", ("cold_build", 11): "bb",
                                     ("infer_new_text", 7): "cc-dd"}

