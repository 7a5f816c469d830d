"""Command-line interface with exact-rational JSON I/O.

Rationals cross this boundary as "p/q" strings, never floats; orderings are
fixed everywhere, so identical configs produce byte-identical output.  A
command returns its document body and whether it passed; ``main`` alone
adds {"schema": "virwhit/1", "command": ...}, streams the document to
stdout and --out and picks the exit code.

Each call builds the root parser and only the subparser of the command
its argv names (the whole tree from COMMANDS when it names none) and
imports only that command's module: cli_verma, cli_verify or cli_universal.

Exit codes: 0 all requested verifications pass, 1 a verification failed,
2 unusable configuration or output, 3 degenerate Shapovalov form at some level.
Output is unusable when --out cannot be opened or written, and when stdout
cannot be written: its reader left, its device failed (/dev/full), or the
process started with it closed (``>&-``).  Stdout then gets nothing more,
--out still gets the whole document, and stderr gets one line.  A stderr
that cannot be written loses its line, never the exit code.

Run as ``python -m virwhit.cli``, the process ends once its output is
flushed, by os._exit: the interpreter's teardown, which frees the job's
tables and every imported module and writes nothing, is skipped (~10 ms
of a gram --level 12 job).  A profiler or tracer that writes its data at a
normal exit (cProfile, coverage, a debugger) keeps sys.exit, and so do
argparse's exits and uncaught exceptions.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction
from functools import partial
from importlib import import_module
from itertools import chain, islice

from .cli_common import LIMITS, SCHEMA, bounded, parameter
from .linalg import SingularGramError
from .rational import parse_rational

# Encoder chunks joined into one write of a document.  The text is never
# built whole, and an unbuffered stdout (PYTHONUNBUFFERED=1) makes one system
# call per batch, not per chunk.  gram --level 12 (0.38 MB, ~16,000 chunks)
# then traces 0.17 MB above building its body, against 1.6 MB for one
# json.dumps string (0.06 MB with 256-chunk batches, 0.53 MB with 4,096).
WRITE_BATCH = 1024

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3


def _rat(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rat_list(text: str) -> list[Fraction]:
    return [_rat(part) for part in text.split(",")]


# Option groups: each option's flag and add_argument keywords.
INT, RATIONAL = {"type": int, "required": True}, {"type": _rat, "required": True}
CHARGE, OUT = {"--c": RATIONAL}, {"--out": {}}
CONTEXT = {**CHARGE, "--delta": RATIONAL}
ORDER = {"--r": INT, "--mu": {"type": _rat_list, "required": True, "help": "mu_r,...,mu_2r"}}
PAIR = {"--n": INT, "--nu1": RATIONAL, "--nun": RATIONAL}
UNIVERSAL = {**PAIR, "--c": {"type": _rat, "default": Fraction(0)}}  # c = 0 by default here
STATE = {**CONTEXT, "--cutoff": INT, "--coeffs": {"help": "JSON list of {exponents, coefficient}"}}
LAMBDAS = "lambda_2,...,lambda_{n-1}"
FAMILIES = ["w-l-2", "w-l-2-n", "w-1-l-n", "example-n5-w11-23", "example-n5-w2-2"]


def _default(value, kind=int) -> dict:
    return {"type": kind, "default": value}


# Each command: its --help line, the module cli_<family> whose cmd_<name>
# runs it, and its options in --help order: option groups, --out, its own.
# "universal search" is universal's subcommand search; its document is
# "universal-search".
COMMANDS = {
    "gram": ("Shapovalov Gram matrices for levels 0..N", "verma",
             {**CONTEXT, **OUT, "--level": INT}),
    "gaiotto": ("build, raise and verify a Gaiotto state", "verma", {**ORDER, **STATE, **OUT}),
    "bmt": ("build, raise and verify a BMT state", "verma",
            {**PAIR, **STATE, **OUT, "--lambdas": {"type": _rat_list, "help": LAMBDAS}}),
    "verify": ("re-verify a serialized state or form", "verify",
               {**OUT, "--input": {"required": True}}),
    "universal family": ("construct and verify a family vector", "universal",
                         {**UNIVERSAL, **OUT, "--family": {"required": True, "choices": FAMILIES},
                          "--l": _default(1), "--alpha0": _default(Fraction(1), _rat)}),
    "universal search": ("exact Whittaker-vector search", "universal",
                         {**UNIVERSAL, **OUT, "--length": INT}),
    "check-lemmas": ("randomized commutator bound checks", "universal",
                     {**ORDER, **CHARGE, **OUT, "--samples": _default(100), "--seed": _default(0),
                      "--max-level": _default(8), "--max-length": _default(5)}),
    "check-l0-li": ("closed-form L_0 and L_i identities", "verma",
                    {**ORDER, **CONTEXT, **OUT, "--cutoff": _default(5)}),
}
SUBCOMMANDS = {"universal": "universal Whittaker modules"}  # the --help line of each group


def _run(family: str, name: str, args):
    """Run command ``name`` by cmd_<name> of the module cli_<family>."""
    module = import_module(f".cli_{family}", __package__)
    return getattr(module, "cmd_" + name.replace(" ", "_").replace("-", "_"))(args)


def _add_commands(parser, dest: str, prefix: list[str], argv) -> None:
    """The subparsers of the commands under ``prefix``: only the one that
    the next word of ``argv`` names, or every one when it names none (or
    argv is None).  Listing every name as the metavar keeps the usage of
    the one-command tree the same as the whole tree's."""
    depth = len(prefix)
    names = dict.fromkeys(n.split()[depth] for n in COMMANDS if n.split()[:depth] == prefix)
    word = argv[depth] if argv is not None and len(argv) > depth else None
    if word not in names:
        word = argv = None
    metavar = "{" + ",".join(names) + "}" if word else None
    sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name in [word] if word else names:
        path = [*prefix, name]
        if name in SUBCOMMANDS:
            _add_commands(sub.add_parser(name, help=SUBCOMMANDS[name]), "subcommand", path, argv)
            continue
        command = " ".join(path)
        help_line, family, options = COMMANDS[command]
        p = sub.add_parser(name, help=help_line)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=partial(_run, family, command), document="-".join(path))


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command, or, for an ``argv`` that names one,
    of that command alone."""
    parser = argparse.ArgumentParser(
        prog="virwhit",
        description=(
            "Exact Virasoro computations: Shapovalov Gram matrices, Gaiotto "
            "and BMT states, universal Whittaker modules."
        ),
    )
    _add_commands(parser, "command", [], argv)
    return parser


def _write_document(document: dict, path: str | None) -> OSError | None:
    """Write json.dumps(document, indent=2) + "\\n" to stdout and, if a path
    is given, to that file; return the first OSError the file raised.

    The file is opened before anything goes to stdout, so an unwritable path
    leaves stdout empty; once open, stdout gets the whole document whatever
    the file does, and the file gets it whatever stdout does: an OSError
    from stdout is raised only after the file is closed.  A stdout that is
    None (the process started with it closed) fails like one that raises
    EBADF.
    json.dumps with an indent runs the same pure-Python iterencode, so the
    bytes are the same; the chunks go out WRITE_BATCH at a time.
    """
    try:
        out = open(path, "w", encoding="utf-8", newline="\n") if path else None
    except OSError as exc:
        return exc
    chunks = json.JSONEncoder(indent=2).iterencode(document)
    failure = broken = None
    try:
        # iterencode yields no empty chunk, so only exhaustion joins to ""
        for batch in chain(iter(lambda: "".join(islice(chunks, WRITE_BATCH)), ""), ["\n"]):
            if broken is None:
                try:
                    if sys.stdout is None:
                        raise OSError(errno.EBADF, "stdout is closed")
                    sys.stdout.write(batch)
                except OSError as exc:
                    if out is None:
                        raise
                    broken = exc
            if out is not None and failure is None:
                try:
                    out.write(batch)
                except OSError as exc:
                    failure = exc
    finally:
        if out is not None:
            try:
                out.close()
            except OSError as exc:
                failure = failure or exc
    if broken is not None:
        raise broken
    return failure


def _discard(stream) -> None:
    """Point a failed stream at devnull, so that its exit flush cannot raise."""
    if stream is not None:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _error(message) -> None:
    """One ``error:`` line on stderr, lost (not raised) if stderr fails."""
    try:
        if sys.stderr is not None:  # print(file=None) would write to stdout
            print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:
        _discard(sys.stderr)


def main(argv=None) -> int:
    args = build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    try:
        for name, value in vars(args).items():
            if name in LIMITS:
                bounded(value, name, "--" + name.replace("_", "-"))
            for x in value if isinstance(value, list) else [value]:
                if isinstance(x, Fraction):
                    parameter(x, f"--{name}")
        body, passed = args.func(args)
    except SingularGramError as exc:
        _error(exc)
        return EXIT_SINGULAR
    except ValueError as exc:  # ConfigError and the library's own checks
        _error(exc)
        return EXIT_CONFIG
    try:
        failure = _write_document({"schema": SCHEMA, "command": args.document, **body}, args.out)
        sys.stdout.flush()
    except OSError as exc:  # every OSError here is stdout's
        _discard(sys.stdout)
        _error(f"cannot write stdout: {exc}")
        return EXIT_CONFIG
    if failure is not None:
        _error(f"cannot write --out: {failure}")
        return EXIT_CONFIG
    return EXIT_OK if passed else EXIT_VERIFICATION


if __name__ == "__main__":
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # 3.12+, where cProfile is tool 2
    if sys.gettrace() or sys.getprofile() or monitoring and any(map(monitoring.get_tool, range(6))):
        sys.exit(code)  # the attached tool writes its data at a normal exit
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)
