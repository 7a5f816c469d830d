"""The benchmark's traced run wraps virwhit functions by name and reads
private caches; a rename or deletion there would break it without failing
any other test."""

import importlib
import importlib.util
from pathlib import Path

TRACED_JOB = Path(__file__).resolve().parents[1] / "perfbench" / "traced_job.py"


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
