"""The survey's partial rows do not depend on the worker's string-hash
seed: the parse checkpoint stores them as emitted, so two builds of one
corpus write the same survey bytes."""

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent(
    """
    import json

    from joern_ray.schemas import NODES_SCHEMA, rows_to_table
    from joern_ray.stages.survey import survey_partial

    rows = [
        {"id": i, "label": "IDENTIFIER", "name": f"v{i}", "type_full_name": f"T{i}"}
        for i in range(24)
    ]
    rows += [
        {"id": 100, "label": "TYPE_DECL", "name": "W", "full_name": "W",
         "type_full_name": "Base;mod.Other;Mixin", "signature": "alias:Alias"},
        {"id": 101, "label": "METHOD", "name": "f", "full_name": "W.f",
         "signature": "Ret(int)"},
    ]
    print(json.dumps(survey_partial(rows_to_table(rows, NODES_SCHEMA)).to_pylist()))
    """
)


def _survey_rows(hash_seed: str) -> list:
    env = dict(os.environ, PYTHONPATH=ROOT, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_survey_partial_independent_of_hash_seed():
    a = _survey_rows("1")
    assert any(r["kind"] == "ty" for r in a)
    assert a == _survey_rows("2")
