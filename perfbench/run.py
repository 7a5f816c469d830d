"""Cold-process benchmark of the virwhit command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every job is one ``python -m virwhit.cli`` call in a fresh process, so the
in-process memo caches start cold on every call, as they do for a user.
Load model: a closed loop with one client; each job starts after the
previous one has exited.

Workloads (job sizes sit near the CLI's own limits, HARD_CUTOFF_LIMIT = 12;
``bmt`` stops at cutoff 10 so that three repetitions of every workload fit
the run-time budget of the whole benchmark):

* ``gram-gaiotto``: ``gram`` to level 12, two ``gaiotto`` states and
  ``verify`` on both.  Gram construction (``shapovalov.gram`` driving
  ``verma.act``) does most of the work; basis-change solves do none.
* ``bmt``: two ``bmt --lambdas`` states and ``verify`` on both.  Per-vector
  ``linalg.bareiss_solve`` against the basis-change matrix dominates, so a
  change to one basis side that costs the other shows here.
* ``universal``: two ``universal search`` calls and two ``check-lemmas``
  calls.  The rewriter and ``linalg.nullspace`` do all the work; the
  ``verma``, ``shapovalov`` and ``forms`` modules do none, so this is the
  bypass workload for every Verma-side change.

With ``--trace 0`` one run repeats the whole job list (at least MIN_REPS
times) while the next repetition is expected to end within ``--seconds``,
and reports medians over the repetitions of:

* ``setup_s``: a fresh ``python -c "import virwhit.cli"`` (SETUP_PER_REP
  calls before each repetition);
* ``wall_s``: wall time of the whole job list;
* ``cpu_s``: user plus system time of the job processes, from ``os.wait4``;

The three times are calibrated: the host this was written on drifts in
speed by up to a factor of two over minutes, which raw times of one code
cannot tell from a change in the code.  So the fixed kernel in
``perfbench/calibrate.py`` runs between every two jobs (and around each
setup batch), and each time is scaled by CAL_REF_WALL_S (CAL_REF_CPU_S for
CPU time) over the mean of the kernel's times on either side of it: seconds
on a host running at the reference speed.
The raw times are in the record line.  The remaining metrics are:

* ``peak_rss_mb``: the largest ``ru_maxrss`` over the jobs;
* ``ok_ratio``: job executions that passed every output check, over
  job executions attempted (``attempted``/``failed`` carry both counts).

With ``--trace 1`` untraced and traced repetitions alternate.  Traced jobs
run through ``perfbench/traced_job.py``, which records a span around every
call of each module's public layer functions; the per-layer metrics are
medians over the traced repetitions, and ``trace.overhead_ratio`` is the
traced over the untraced median wall time.

Output checks run outside the timed region: every job exits 0, every
``passed`` field is true, every Gram matrix is symmetric and matches the
full-word ``virasoro.normal_order`` oracle on levels <= 3, every
``universal search`` basis vector passes ``universal.verify_whittaker_vector``,
repetitions of one job are byte-identical, and for DEFAULT_SEED each job's
stdout matches the SHA-256 stored in ``perfbench/reference.json``.

The last line of stdout is the result object; the line before it is a
record of the environment, the generated argv of every job, its digest and
the per-repetition samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
REFERENCE = BENCH_DIR / "reference.json"
TRACED_JOB = BENCH_DIR / "traced_job.py"
LAUNCHER = BENCH_DIR / "launcher.py"
CALIBRATE = BENCH_DIR / "calibrate.py"

DEFAULT_SEED = 0
MIN_REPS = 3
SETUP_PER_REP = 3
RUN_DEADLINE_S = 170.0

# Reference wall and CPU time of the perfbench/calibrate.py kernel: a round
# figure within the 0.16-0.25 s it took on the 2-vCPU host (Python 3.11.7)
# the benchmark was written on.  A fixed unit, never re-measured, so that
# calibrated times of two commits compare.
CAL_REF_WALL_S = 0.2
CAL_REF_CPU_S = 0.2

WORKLOADS = ("gram-gaiotto", "bmt", "universal")

# Job sizes; "tiny" exists for perfbench/selftest.py only.
SIZES = {
    "full": {
        "gram_level": 12,
        "gaiotto": ((1, 12), (2, 11)),
        "bmt": ((4, 10), (5, 10)),
        "search": ((5, 9), (6, 6)),
        "lemmas": (
            (2, ["--samples", "400", "--max-level", "10", "--max-length", "6"]),
            (3, ["--samples", "300"]),
        ),
    },
    "tiny": {
        "gram_level": 4,
        "gaiotto": ((1, 4), (2, 4)),
        "bmt": ((4, 4), (5, 4)),
        "search": ((5, 3), (6, 2)),
        "lemmas": ((2, ["--samples", "5"]), (3, ["--samples", "5"])),
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

# Per-layer metric -> unit.  A ratio's unit names its numerator and base.
PER_LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "forms.act_on_form.calls": "count",
    "forms.act_on_form.self_s": "s",
    "forms.convert_form.calls": "count",
    "forms.convert_form.self_s": "s",
    "forms.raise_indices.self_s": "s",
    "forms.verify_whittaker_form.self_s": "s",
    "forms.verify_whittaker_state.self_s": "s",
    "forms.build.self_s": "s",
    "shapovalov.gram.calls": "count",
    "shapovalov.gram.self_s": "s",
    "shapovalov.gram.reuse_ratio": "reused/calls",
    "shapovalov.gram.max_dim": "rows",
    "shapovalov.solve.calls": "count",
    "shapovalov.solve.self_s": "s",
    "verma.act.calls": "count",
    "verma.act.self_s": "s",
    "verma.basis_change.calls": "count",
    "verma.basis_change.self_s": "s",
    "verma.act_monomial.hit_ratio": "hits/lookups",
    "virasoro.normal_order.calls": "count",
    "virasoro.normal_order.self_s": "s",
    "virasoro.normal_order.hit_ratio": "hits/lookups",
    "linalg.bareiss_solve.calls": "count",
    "linalg.bareiss_solve.self_s": "s",
    "linalg.bareiss_solve.distinct_ratio": "distinct/calls",
    "linalg.bareiss_solve.max_bits": "bits",
    "linalg.nullspace.calls": "count",
    "linalg.nullspace.self_s": "s",
    "linalg.nullspace.cells": "cells",
    "universal.apply_word.calls": "count",
    "universal.apply_word.self_s": "s",
    "universal.search_whittaker.self_s": "s",
    "universal.check_lemma_bounds.calls": "count",
    "universal.check_lemma_bounds.self_s": "s",
    "universal.rewrite.memo_entries": "entries",
    "trace.overhead_ratio": "traced/untraced",
}

# Span names whose self time is summed into forms.build.self_s.
BUILD_SPANS = ("forms.gaiotto_form", "forms.bmt_form", "forms.bmt_special_form")


class RunTimeout(Exception):
    pass


@dataclass
class Job:
    id: str
    kind: str  # gram, gaiotto, bmt, verify, search or lemmas
    args: list[str]  # arguments after ``python -m virwhit.cli``
    out: Path


@dataclass
class JobRun:
    wall_s: float
    cpu_s: float
    rss_kb: int
    exit_code: int
    digest: str = ""
    # The calibration kernel's times around this run (see Launcher.timed).
    cal_wall_s: float = CAL_REF_WALL_S
    cal_cpu_s: float = CAL_REF_CPU_S

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * CAL_REF_WALL_S / self.cal_wall_s

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * CAL_REF_CPU_S / self.cal_cpu_s


# ---------------------------------------------------------------------------
# Seeded inputs


def _rational(rng: random.Random) -> Fraction:
    """A rational of fixed height: a 4-bit prime over a 3-bit prime, either sign.

    Coefficient bit size drives the cost (time and memory) of exact
    arithmetic, so a fixed height keeps the work of different seeds
    comparable; primes keep the reduced height fixed.
    """
    return Fraction(rng.choice((-1, 1)) * rng.choice((11, 13)), rng.choice((5, 7)))


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    return all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


def _context(rng: random.Random, max_level: int) -> tuple[Fraction, Fraction]:
    """(c, Delta) off the Kac table up to ``max_level``.

    When t + 1/t = (13 - c)/6 has irrational t, the only rational degenerate
    weights are Delta_{r,r} = (1 - r^2)(c - 1)/24 with r^2 <= level, so
    rejecting those keeps every Gram matrix up to ``max_level`` regular.
    """
    while True:
        c = _rational(rng)
        if _is_rational_square(((13 - c) / 6) ** 2 - 4):
            continue
        delta = _rational(rng)
        degenerate = {
            (1 - r * r) * (c - 1) / 24 for r in range(1, math.isqrt(max_level) + 1)
        }
        if delta not in degenerate:
            return c, delta


def _opt(name: str, value) -> str:
    # "--opt=value": argparse reads "--c -7/5" as a missing value.
    if isinstance(value, list):
        value = ",".join(str(v) for v in value)
    return f"--{name}={value}"


def make_jobs(workload: str, seed: int, work: Path, size: str = "full") -> list[Job]:
    """The workload's job list for ``seed``; same seed, same argv."""
    rng = random.Random(f"{workload}/{seed}")
    sz = SIZES[size]
    jobs: list[Job] = []
    states: list[Job] = []  # documents that get a ``verify`` job

    def add(job_id: str, kind: str, args: list[str]) -> Job:
        job = Job(job_id, kind, args, work / f"{job_id}.json")
        jobs.append(job)
        return job

    def draws(count: int) -> list[Fraction]:
        return [_rational(rng) for _ in range(count)]

    if workload == "gram-gaiotto":
        c, delta = _context(rng, sz["gram_level"])
        ctx = [_opt("c", c), _opt("delta", delta)]
        add("gram", "gram", ["gram", *ctx, f"--level={sz['gram_level']}"])
        for r, cutoff in sz["gaiotto"]:
            states.append(
                add(
                    f"gaiotto-r{r}",
                    "gaiotto",
                    ["gaiotto", f"--r={r}", _opt("mu", draws(r + 1)), *ctx, f"--cutoff={cutoff}"],
                )
            )
    elif workload == "bmt":
        c, delta = _context(rng, max(cutoff for _, cutoff in sz["bmt"]))
        ctx = [_opt("c", c), _opt("delta", delta)]
        for n, cutoff in sz["bmt"]:
            nu1, nun = draws(2)
            states.append(
                add(
                    f"bmt-n{n}",
                    "bmt",
                    [
                        "bmt",
                        f"--n={n}",
                        _opt("nu1", nu1),
                        _opt("nun", nun),
                        *ctx,
                        f"--cutoff={cutoff}",
                        _opt("lambdas", draws(n - 2)),
                    ],
                )
            )
    elif workload == "universal":
        c = _rational(rng)
        for n, length in sz["search"]:
            nu1, nun = draws(2)
            add(
                f"search-n{n}",
                "search",
                [
                    "universal",
                    "search",
                    f"--n={n}",
                    _opt("nu1", nu1),
                    _opt("nun", nun),
                    _opt("c", c),
                    f"--length={length}",
                ],
            )
        for r, extra in sz["lemmas"]:
            add(
                f"lemmas-r{r}",
                "lemmas",
                [
                    "check-lemmas",
                    f"--r={r}",
                    _opt("mu", draws(r + 1)),
                    _opt("c", c),
                    *extra,
                    f"--seed={rng.randrange(1, 1 << 31)}",
                ],
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for state in states:
        add(f"verify-{state.id}", "verify", ["verify", f"--input={state.out}"])
    return jobs


# ---------------------------------------------------------------------------
# Running jobs


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


class Launcher:
    """Runs jobs through perfbench/launcher.py, one at a time.

    Jobs see ``src`` on PYTHONPATH.  A job still running RUN_DEADLINE_S
    after the launcher started is killed and RunTimeout is raised.
    ``timed`` brackets its commands with runs of the calibration kernel,
    whose output goes under ``work``.
    """

    def __init__(self, work: Path):
        self.work = work
        self.calibration: tuple[float, float] | None = None
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=job_env(),
            text=True,
        )

    def run(self, argv: list[str], stdout_path: Path) -> JobRun:
        request = {
            "argv": argv,
            "stdout": str(stdout_path),
            "timeout": self.deadline - time.monotonic(),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply.get("timeout"):
            raise RunTimeout(f"{argv[1:]} did not finish before the run deadline")
        return JobRun(**reply)

    def calibrate(self) -> tuple[float, float]:
        """Wall and CPU time of the perfbench/calibrate.py kernel, in a fresh process."""
        out = self.work / "calibrate.out"
        run = self.run([sys.executable, str(CALIBRATE)], out)
        if run.exit_code != 0:
            raise RuntimeError(f"{CALIBRATE.name} exited with code {run.exit_code}")
        times = json.loads(out.read_text())
        return times["wall_s"], times["cpu_s"]

    def timed(self, argv: list[str], stdout_path: Path, times: int = 1) -> list[JobRun]:
        """Run ``argv`` ``times`` times, then the calibration kernel.

        Each run is scaled by the mean of the kernel's times just before
        the batch (the previous batch's closing run) and just after it.
        """
        before = self.calibration or self.calibrate()
        runs = [self.run(argv, stdout_path) for _ in range(times)]
        after = self.calibration = self.calibrate()
        for run in runs:
            run.cal_wall_s = (before[0] + after[0]) / 2
            run.cal_cpu_s = (before[1] + after[1]) / 2
        return runs

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _cli_argv(job: Job, spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "virwhit.cli", *job.args]
    return [sys.executable, str(TRACED_JOB), str(spans), job.id, *job.args]


def run_job(job: Job, launcher: Launcher, spans_dir: Path | None = None) -> JobRun:
    spans = None if spans_dir is None else spans_dir / f"{job.id}.spans.json"
    (run,) = launcher.timed(_cli_argv(job, spans), job.out)
    run.digest = digest(job.out)
    return run


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_rep(
    jobs: list[Job], launcher: Launcher, spans_dir: Path | None = None
) -> tuple[float, list[JobRun]]:
    """One pass over the job list; its wall time is the sum of the scaled job walls."""
    runs = [run_job(job, launcher, spans_dir) for job in jobs]
    return sum(run.scaled_wall_s for run in runs), runs


def measure_setup(launcher: Launcher, work: Path) -> list[float]:
    """SETUP_PER_REP scaled wall times of a fresh ``import virwhit.cli``."""
    argv = [sys.executable, "-c", "import virwhit.cli"]
    runs = launcher.timed(argv, work / "setup.out", SETUP_PER_REP)
    return [run.scaled_wall_s for run in runs]


# ---------------------------------------------------------------------------
# Output checks (outside the timed region)


def _all_passed(node) -> bool:
    if isinstance(node, dict):
        if node.get("passed", True) is not True:
            return False
        return all(_all_passed(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_passed(v) for v in node)
    return True


def _check_gram(doc: dict) -> str | None:
    from virwhit.virasoro import normal_order

    c = Fraction(doc["central_charge"])
    delta = Fraction(doc["conformal_weight"])
    for block in doc["levels"]:
        parts = [tuple(p) for p in block["partitions"]]
        entries = [[Fraction(v) for v in row] for row in block["entries"]]
        size = len(parts)
        if len(entries) != size or any(len(row) != size for row in entries):
            return f"level {block['level']}: matrix shape"
        for i in range(size):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    return f"level {block['level']}: not symmetric at {parts[i]}, {parts[j]}"
        if block["level"] > 3:
            continue
        for i, lam in enumerate(parts):
            for j, mu in enumerate(parts):
                # Full-word normal ordering, then highest-weight rules.
                word = tuple(reversed(lam)) + tuple(-p for p in mu)
                expected = sum(
                    (
                        coeff * delta ** len(mono)
                        for mono, coeff in normal_order(word, c).terms.items()
                        if all(letter == 0 for letter in mono)
                    ),
                    Fraction(0),
                )
                if entries[i][j] != expected:
                    return f"level {block['level']}: oracle mismatch at {lam}, {mu}"
    return None


def _check_search(doc: dict) -> str | None:
    from virwhit.universal import UniversalVector, verify_whittaker_vector
    from virwhit.whittaker import WhittakerType1N

    params = doc["parameters"]
    psi = WhittakerType1N(
        int(params["n"]), Fraction(params["nu1"]), Fraction(params["nun"])
    )
    c = Fraction(params["central_charge"])
    if len(doc["basis"]) != doc["nullspace_dimension"]:
        return "basis size differs from nullspace_dimension"
    for index, vec in enumerate(doc["basis"]):
        terms = {}
        for term in vec["terms"]:
            word = []
            for count in term["pseudo_partition"]["counts"]:
                word.extend([count["index"]] * count["multiplicity"])
            terms[tuple(word)] = Fraction(term["coefficient"])
        vector = UniversalVector(psi, c, terms)
        if vector.is_zero() or not verify_whittaker_vector(vector, psi).passed:
            return f"basis vector {index} is not a Whittaker vector"
    return None


def check_document(job: Job, data: bytes) -> str | None:
    """Why the job's stdout is wrong, or None."""
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if not _all_passed(doc):
        return "a 'passed' field is not true"
    try:
        if job.kind == "gram":
            return _check_gram(doc)
        if job.kind == "search":
            return _check_search(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed document: {exc!r}"
    return None


def load_reference(workload: str, seed: int) -> dict[str, str]:
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(REFERENCE.read_text())["digests"][workload]


def check_reps(
    jobs: list[Job], reps: list[list[JobRun]], reference: dict[str, str]
) -> list[str]:
    """Failure reasons, one per failed job execution.

    The documents left by the last repetition get the deep checks; every
    execution must exit 0 and reproduce those bytes (and the reference
    digest, when there is one).
    """
    last = reps[-1]
    deep = {
        job.id: check_document(job, job.out.read_bytes()) if run.exit_code == 0 else None
        for job, run in zip(jobs, last)
    }
    failures = []
    for rep_index, runs in enumerate(reps):
        for job, run, final in zip(jobs, runs, last):
            why = None
            if run.exit_code != 0:
                why = f"exit code {run.exit_code}"
            elif job.id in reference and run.digest != reference[job.id]:
                why = "stdout differs from the reference digest"
            elif run.digest != final.digest:
                why = "stdout differs between repetitions"
            elif deep[job.id]:
                why = deep[job.id]
            if why:
                failures.append(f"rep {rep_index} {job.id}: {why}")
    return failures


# ---------------------------------------------------------------------------
# Traced spans -> per-layer metrics


def _job_layers(path: Path) -> dict:
    """Calls and self time per span name, plus the job's counters."""
    trace = json.loads(path.read_text())
    names = trace["names"]
    name_ids, parents, starts, ends, excl = (
        trace["name"],
        trace["parent"],
        trace["start"],
        trace["end"],
        trace["excluded"],
    )
    count = len(name_ids)
    child = [0] * count
    for i in range(count):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for i in range(count):
        name = names[name_ids[i]]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + ends[i] - starts[i] - child[i] - excl[i]
    return {
        "calls": calls,
        "self_ns": self_ns,
        "stats": trace["stats"],
        "counters": trace["counters"],
    }


def _ratio(numerator, base) -> float:
    return numerator / base if base else 0.0


def _cache_ratio(jobs: list[dict], counter: str) -> float | None:
    infos = [job["counters"].get(counter) for job in jobs]
    if any(info is None for info in infos):
        return None
    hits = sum(info["hits"] for info in infos)
    return _ratio(hits, hits + sum(info["misses"] for info in infos))


def layer_metrics(span_files: list[Path]) -> dict[str, float | None]:
    """Per-layer metrics of one traced repetition.

    Calls, self times and cells are summed over the repetition's jobs, cache
    hit ratios pool the jobs' lookups, and max_dim, max_bits and
    memo_entries take the largest job.  A ratio with no calls is 0.
    """
    jobs = [_job_layers(p) for p in span_files]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for job in jobs:
        for name, n in job["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, ns in job["self_ns"].items():
            self_s[name] = self_s.get(name, 0.0) + ns / 1e9

    def stat(key: str):
        return [job["stats"][key] for job in jobs]

    memo = [job["counters"].get("rewrite_memo_entries") for job in jobs]
    gram_calls = calls.get("shapovalov.gram", 0)
    solve_calls = calls.get("linalg.bareiss_solve", 0)
    out: dict[str, float | None] = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "self_s" and layer != "forms.build":
            out[metric] = self_s.get(layer, 0.0)
    out["forms.build.self_s"] = sum(self_s.get(name, 0.0) for name in BUILD_SPANS)
    out["shapovalov.gram.reuse_ratio"] = _ratio(sum(stat("gram_reused")), gram_calls)
    out["shapovalov.gram.max_dim"] = max(stat("gram_max_dim"))
    out["verma.act_monomial.hit_ratio"] = _cache_ratio(jobs, "act_monomial")
    out["virasoro.normal_order.hit_ratio"] = _cache_ratio(jobs, "normal_order")
    out["linalg.bareiss_solve.distinct_ratio"] = _ratio(
        sum(stat("solve_distinct")), solve_calls
    )
    out["linalg.bareiss_solve.max_bits"] = max(stat("solve_max_bits"))
    out["linalg.nullspace.cells"] = sum(stat("nullspace_cells"))
    out["universal.rewrite.memo_entries"] = (
        None if any(m is None for m in memo) else max(memo)
    )
    return out


# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "virwhit").glob("*.py"))
    )
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_virwhit_lines": src_lines,
    }


def _median(values):
    # median_low: a count stays a count; None (an absent counter) wins.
    return None if None in values else statistics.median_low(values)


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one measurement; returns the detail record including the result."""
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Launcher(work) as launcher:
            return _measure(workload, seed, seconds, trace, size, work, launcher)
    finally:
        remove_work(work)


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run is still using it
        pass


def _measure(
    workload: str, seed: int, seconds: float, trace: bool, size: str, work: Path, launcher: Launcher
) -> dict:
    jobs = make_jobs(workload, seed, work, size)
    reference = load_reference(workload, seed) if size == "full" else {}
    setup: list[float] = []
    plain: list[tuple[float, list[JobRun]]] = []
    traced: list[tuple[float, list[JobRun]]] = []
    layers: list[dict] = []
    start = time.monotonic()
    # Stop before a repetition that would end past ``seconds``.
    while len(plain) < (1 if trace else MIN_REPS) or (
        (time.monotonic() - start) * (len(plain) + 1) / len(plain) <= seconds
    ):
        if not trace:
            # Spread over the run, so that one burst of load moves few samples.
            setup += measure_setup(launcher, work)
        plain.append(run_rep(jobs, launcher))
        if trace:
            spans_dir = work / f"spans-{len(traced)}"
            spans_dir.mkdir()
            traced.append(run_rep(jobs, launcher, spans_dir))
            layers.append(
                layer_metrics([spans_dir / f"{job.id}.spans.json" for job in jobs])
            )
    reps = [runs for _, runs in plain + traced]
    failures = check_reps(jobs, reps, reference)
    attempted = len(jobs) * len(reps)
    if trace:
        values = {m: _median([layer[m] for layer in layers]) for m in layers[0]}
        values["trace.overhead_ratio"] = statistics.median(
            w for w, _ in traced
        ) / statistics.median(w for w, _ in plain)
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(w for w, _ in plain),
            "cpu_s": statistics.median(
                sum(r.scaled_cpu_s for r in runs) for _, runs in plain
            ),
            "peak_rss_mb": statistics.median(
                max(r.rss_kb for r in runs) / 1024 for _, runs in plain
            ),
            "ok_ratio": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "jobs": [
            {"id": j.id, "argv": ["-m", "virwhit.cli", *j.args], "digest": r.digest}
            for j, r in zip(jobs, reps[-1])
        ],
        "samples": {
            "setup_s": setup,
            "wall_s": [w for w, _ in plain],
            "traced_wall_s": [w for w, _ in traced],
            "raw_wall_s": [sum(r.wall_s for r in runs) for _, runs in plain],
            "raw_cpu_s": [sum(r.cpu_s for r in runs) for _, runs in plain],
            "job_wall_s": {
                j.id: [runs[i].wall_s for runs in reps] for i, j in enumerate(jobs)
            },
            "calibration_wall_s": {
                j.id: [runs[i].cal_wall_s for runs in reps] for i, j in enumerate(jobs)
            },
        },
        "failures": failures,
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "virwhit" / "cli.py").is_file():
        print(f"error: no virwhit sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    result = record.pop("result")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
