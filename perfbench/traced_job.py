"""Run one virwhit CLI call with a span around every public layer call.

Usage: python3 perfbench/traced_job.py SPANS_FILE JOB_ID CLI_ARG...

Each function in TRACED is replaced by a wrapper at every module binding
that refers to it: ``forms`` and ``shapovalov`` import ``verma.act`` by
name, ``forms`` imports ``gram``/``solve``/``basis_change`` by name and
``cli`` imports ``gram`` by name, so rebinding the defining module alone
would miss those calls.  A span records its name, start, end and parent
span; SPANS_FILE holds one job's spans under its JOB_ID.  Spans stay in
memory and are written once, after the call returns; stdout is the CLI's
own document, byte for byte.

Some spans also feed counters, computed after the call and excluded from
every span's self time: Gram-matrix reuse and size, distinct Bareiss
coefficient matrices and solution bit size, and nullspace cells.  At job
end the private memo caches are read (``cache_info()`` and the rewriter
memo); a counter whose cache no longer exists is written as null.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

TRACED = {
    "cli": ("main",),
    "forms": (
        "act_on_form",
        "convert_form",
        "raise_indices",
        "verify_whittaker_form",
        "verify_whittaker_state",
        "gaiotto_form",
        "bmt_form",
        "bmt_special_form",
    ),
    "shapovalov": ("gram", "solve"),
    "verma": ("act", "basis_change"),
    "virasoro": ("normal_order",),
    "linalg": ("bareiss_solve", "nullspace"),
    "universal": ("apply_word", "search_whittaker", "check_lemma_bounds"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.excluded = array("q")  # counter time spent in direct children
        self.stack = [-1]
        self.gram_seen: set = set()
        self.solve_seen: set[int] = set()
        self.stats = {
            "gram_reused": 0,
            "gram_max_dim": 0,
            "solve_distinct": 0,
            "solve_max_bits": 0,
            "nullspace_cells": 0,
        }

    def wrap(self, label: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(label)
        clock = time.perf_counter_ns
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(parent)
            self.excluded.append(0)
            self.end.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if after is not None:
                begin = clock()
                after(args, kwargs, result)
                if parent >= 0:
                    self.excluded[parent] += clock() - begin
            return result

        return wrapper

    # Counters, called after the wrapped function returns.

    def after_gram(self, args, kwargs, result) -> None:
        key = (args[0], args[1])
        if key in self.gram_seen:
            self.stats["gram_reused"] += 1
        self.gram_seen.add(key)
        self.stats["gram_max_dim"] = max(self.stats["gram_max_dim"], len(result.partitions))

    def after_solve(self, args, kwargs, result) -> None:
        key = hash(tuple(tuple(row) for row in args[0]))
        if key not in self.solve_seen:
            self.solve_seen.add(key)
            self.stats["solve_distinct"] += 1
        bits = max(
            (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in result),
            default=0,
        )
        self.stats["solve_max_bits"] = max(self.stats["solve_max_bits"], bits)

    def after_nullspace(self, args, kwargs, result) -> None:
        matrix = args[0]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        if ncols is None:
            ncols = len(matrix[0])
        self.stats["nullspace_cells"] += len(matrix) * ncols

    def install(self) -> None:
        modules = {name: importlib.import_module(f"virwhit.{name}") for name in TRACED}
        package = importlib.import_module("virwhit")
        bindings = [package, *modules.values()]
        hooks = {
            "shapovalov.gram": self.after_gram,
            "linalg.bareiss_solve": self.after_solve,
            "linalg.nullspace": self.after_nullspace,
        }
        for module_name, functions in TRACED.items():
            for fn_name in functions:
                label = f"{module_name}.{fn_name}"
                original = getattr(modules[module_name], fn_name)
                wrapper = self.wrap(label, original, hooks.get(label))
                for module in bindings:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def _cache_counter(module_name: str, attr: str):
    fn = getattr(importlib.import_module(f"virwhit.{module_name}"), attr, None)
    if fn is None or not hasattr(fn, "cache_info"):
        return None
    info = fn.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def _memo_entries():
    rewriters = getattr(importlib.import_module("virwhit.universal"), "_REWRITERS", None)
    if rewriters is None:
        return None
    try:
        return sum(len(r._cache) for r in rewriters.values())
    except AttributeError:
        return None


def main(argv: list[str]) -> int:
    spans_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("virwhit.cli")
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        trace = {
            "job": job_id,
            "names": tracer.names,
            "name": tracer.name.tolist(),
            "parent": tracer.parent.tolist(),
            "start": tracer.start.tolist(),
            "end": tracer.end.tolist(),
            "excluded": tracer.excluded.tolist(),
            "stats": tracer.stats,
            "counters": {
                "act_monomial": _cache_counter("verma", "_act_monomial"),
                "normal_order": _cache_counter("virasoro", "_normal_order"),
                "rewrite_memo_entries": _memo_entries(),
            },
        }
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
