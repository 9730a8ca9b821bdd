"""The output check is steady and not vacuous.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
Everything runs at ×1 with a few ops.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

#: Runs a few ops of one workload and prints their digests and errors.
_OPS = """
import json, sys
from pathlib import Path
sys.path[:0] = [{bench!r}, {src!r}]
from workloads import WORKLOADS
workload = WORKLOADS[{name!r}](seed=5, scale=1, workdir=Path({workdir!r}))
workload.min_ops = {ops}
try:
    workload.setup()
    window = workload.run(0.0, None)
    errors = window.errors + window.failures + workload.finish()
    errors += workload.check(window)
finally:
    workload.close()
print(json.dumps({{"digests": window.digests, "errors": errors}}))
"""


def _ops_under_hash_seed(name: str, hash_seed: str, workdir: Path) -> dict:
    code = _OPS.format(bench=str(BENCH), src=str(ROOT / "src"), name=name,
                       workdir=str(workdir), ops=6)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_passes_and_digests_agree_across_hash_seeds(name, tmp_path):
    first = _ops_under_hash_seed(name, "10", tmp_path)
    second = _ops_under_hash_seed(name, "99", tmp_path)
    assert first["errors"] == [] and second["errors"] == []
    assert first["digests"] and first["digests"] == second["digests"]


def _compiled(tmp_path):
    workload = WORKLOADS["compile-x10"](seed=3, scale=1, workdir=tmp_path)
    workload.min_ops = 1
    workload.setup()
    window = workload.run(0.0, None)
    assert workload.check(window) == []
    return workload, window


def _flip(text: str, position: int) -> str:
    flipped = chr(ord(text[position]) ^ 1)
    return text[:position] + flipped + text[position + 1:]


def test_flipped_manifest_byte_fails_the_check(tmp_path, monkeypatch):
    workload, window = _compiled(tmp_path)
    manifests = workload.last.manifests
    name = sorted(manifests)[0]
    text = manifests[name]
    golden = [checks.result_digest(workload.last)]
    monkeypatch.setattr(checks, "load_golden", lambda *_: golden)

    # inside the embedded config: the invariants catch it
    manifests[name] = _flip(text, text.index('machines\\"') + 2)
    assert workload.check(window)
    # anywhere at all: the digest no longer meets the golden one
    for position in (0, len(text) // 2, len(text) - 2):
        manifests[name] = _flip(text, position)
        errors, met = checks.check_golden(
            "compile-x10", 3, {0: checks.result_digest(workload.last)})
        assert met == 1 and errors, position
    manifests[name] = text
    assert checks.check_golden("compile-x10", 3,
                               {0: checks.result_digest(workload.last)}
                               ) == ([], 1)


def test_wrong_driver_parameter_fails_the_check(tmp_path):
    workload, window = _compiled(tmp_path)
    config = next(iter(workload.last.machine_configs.values()))
    parameters = config["driver"]["parameters"]
    key = "ip" if "ip" in parameters else "endpoint"
    parameters[key] += "0"
    assert any(key in error for error in workload.check(window))


def test_edit_regenerating_outside_the_triple_fails(tmp_path):
    workload = WORKLOADS["edit-x10"](seed=4, scale=1, workdir=tmp_path)
    workload.min_ops = 5
    workload.setup()
    generate = workload.engine.generate

    def leaky(*sources):
        result = generate(*sources)
        result.provenance["manifest:opcua-client-01.yaml"] = "regenerated"
        return result

    workload.engine.generate = leaky
    window = workload.run(0.0, None)
    assert window.failed == 0
    assert len(window.errors) == 5
    assert all("opcua-client-01" in error for error in window.errors)


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-x10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
