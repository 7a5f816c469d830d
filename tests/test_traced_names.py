"""The benchmark's traced run wraps virwhit functions by name and reads
private caches; a rename or deletion there would break it without failing
any other test.  A name that a module resolves on first access must still
reach the tracer: a caller that bypassed the module's binding would read 0
calls in the traced counts."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED_JOB = ROOT / "perfbench" / "traced_job.py"

# A tiny CLI job that calls each traced name defined outside its module.
MOVED_CALLS = {
    "linalg.bareiss_solve": "bmt --n 3 --nu1 1 --nun 1 --c 1 --delta 1 --cutoff 2",
    "linalg.nullspace": "universal search --n 5 --nu1 1 --nun 2 --length 2",
    "forms.act_on_form": "check-l0-li --r 1 --mu 1,1 --c 1 --delta 1 --cutoff 2",
}


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("traced_job", TRACED_JOB)
    traced_job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_job)
    missing = [
        f"{module_name}.{fn_name}"
        for module_name, functions in traced_job.TRACED.items()
        for fn_name in functions
        if not callable(
            getattr(importlib.import_module(f"virwhit.{module_name}"), fn_name, None)
        )
    ]
    assert not missing
    assert traced_job._cache_counter("verma", "_act_monomial") is not None
    assert traced_job._cache_counter("virasoro", "_normal_order") is not None
    assert traced_job._memo_entries() is not None


@pytest.mark.parametrize("label", list(MOVED_CALLS))
def test_traced_job_counts_calls_of_moved_names(label, tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(TRACED_JOB), str(spans), "job", *MOVED_CALLS[label].split()]
    subprocess.run(argv, env=env, capture_output=True, check=True)
    trace = json.loads(spans.read_text(encoding="utf-8"))
    calls = Counter(trace["names"][i] for i in trace["name"])
    assert calls[label] > 0, calls
