"""Self-test of the benchmark, at tiny job sizes (about a minute).

Usage (from the repository root): python3 perfbench/selftest.py

1. A tiny pass of every workload, untraced and traced, reports every
   metric name with its unit and passes its own output checks.
2. Corrupted documents are counted as failed: one flipped coefficient in a
   ``gaiotto`` output (caught by the reference digest and by the ``verify``
   job that reads it) and one flipped Gram entry (caught by the symmetry and
   oracle checks).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

import run

SEED = 7
ABSENT_ALLOWED = {
    "verma.act_monomial.hit_ratio",
    "virasoro.normal_order.hit_ratio",
    "universal.rewrite.memo_entries",
}


def check_metric_names(problems: list[str]) -> None:
    for workload in run.WORKLOADS:
        for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
            before = len(problems)
            record = run.measure(workload, SEED, 0.0, trace, size="tiny")
            result = record["result"]
            where = f"{workload} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: output checks failed: {record['failures']}")
            if result["attempted"] < len(record["jobs"]):
                problems.append(f"{where}: attempted {result['attempted']}")
            metrics = result["metrics"]
            if list(metrics) != list(units):
                problems.append(f"{where}: metric names {list(metrics)}")
            for name, unit in units.items():
                entry = metrics.get(name, {})
                if entry.get("unit") != unit:
                    problems.append(f"{where}: {name} has unit {entry.get('unit')!r}")
                value = entry.get("value")
                if value is None and name in ABSENT_ALLOWED:
                    continue
                if not isinstance(value, (int, float)):
                    problems.append(f"{where}: {name} = {value!r}")
            if len(problems) == before:
                print(f"ok    {where}: {len(metrics)} metrics")


def _corrupt(path, edit) -> str:
    """Apply ``edit`` to the JSON document at ``path``; returns the new digest."""
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return run.digest(path)


def _flip_form_coefficient(doc: dict) -> None:
    term = doc["form"]["levels"][-1]["terms"][0]
    term["coefficient"] = str(Fraction(term["coefficient"]) + 1)


def _flip_gram_entry(doc: dict) -> None:
    row = doc["levels"][2]["entries"][0]
    row[1] = str(Fraction(row[1]) + 1)


CORRUPTIONS = {"gaiotto-r1": _flip_form_coefficient, "gram": _flip_gram_entry}


def check_corruption(problems: list[str]) -> None:
    before = len(problems)
    work = run.WORK_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = run.make_jobs("gram-gaiotto", SEED, work, "tiny")
        with run.Launcher(work) as launcher:
            _, clean = run.run_rep(jobs, launcher)
            if run.check_reps(jobs, [clean], {}):
                problems.append("clean tiny gram-gaiotto pass reported failures")
            reference = {job.id: r.digest for job, r in zip(jobs, clean)}
            runs = []
            for job in jobs:
                result = run.run_job(job, launcher)
                if job.id in CORRUPTIONS:
                    # Before the next job runs, so verify reads the flipped form.
                    result.digest = _corrupt(job.out, CORRUPTIONS[job.id])
                runs.append(result)
        failures = run.check_reps(jobs, [runs], reference)
        failed_ids = {f.split()[2].rstrip(":") for f in failures}
        expected = {*CORRUPTIONS, "verify-gaiotto-r1"}
        if not expected <= failed_ids:
            problems.append(f"corruption not counted: failures were {failures}")
        unexpected = failed_ids - expected
        if unexpected:
            problems.append(f"untouched jobs failed: {sorted(unexpected)}")
        # Without a reference digest the gram checks still catch the flip.
        deep = run.check_document(jobs[0], jobs[0].out.read_bytes())
        if deep is None:
            problems.append("flipped Gram entry passed the symmetry/oracle checks")
        if len(problems) == before:
            print(f"ok    corrupted documents: {len(failures)} failures counted")
    finally:
        run.remove_work(work)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems: list[str] = []
    check_metric_names(problems)
    check_corruption(problems)
    for problem in problems:
        print(f"FAIL  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
