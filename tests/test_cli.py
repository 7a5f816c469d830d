import argparse
import hashlib
import json
import os
import pstats
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import islice
from math import prod
from pathlib import Path

import pytest

from virwhit import cli, cli_universal, families, formops, forms, padic, universal, verma
from virwhit.cli import LIMITS, build_parser, main
from virwhit.cli_common import MAX_PARAMETER_BITS
from virwhit.whittaker import WhittakerTypeR

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_gram_document(capsys):
    code, out = run_cli(
        capsys, "gram", "--c", "11/3", "--delta", "2/7", "--level", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "virwhit/1"
    level2 = doc["levels"][2]
    assert level2["partitions"] == [[2], [1, 1]]
    c, d = Fraction(11, 3), Fraction(2, 7)
    assert level2["entries"][0][0] == str(4 * d + c / 2)
    assert level2["entries"][0][1] == str(6 * d)
    assert level2["entries"][1][1] == str(4 * d * (2 * d + 1))


def test_gaiotto_verify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "state.json"
    code, out = run_cli(
        capsys,
        "gaiotto",
        "--r", "1",
        "--mu", "3/2,0",
        "--delta", "2/7",
        "--c", "11/3",
        "--cutoff", "6",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    state = {tuple(t["partition"]): t["coefficient"] for t in doc["state"]["terms"]}
    assert state[(1,)] == "21/8"  # mu_1 / (2 Delta)
    assert doc["verification"]["passed"]

    code_verify, verify_out = run_cli(capsys, "verify", "--input", str(out_path))
    assert code_verify == 0
    assert json.loads(verify_out)["passed"]


def test_gaiotto_byte_identical_reruns(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _ = run_cli(
            capsys,
            "gaiotto",
            "--r", "2",
            "--mu", "2,-1/3,7",
            "--delta", "2/7",
            "--c", "11/3",
            "--cutoff", "4",
            "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_bmt_lambdas_and_verify(tmp_path, capsys):
    out_path = tmp_path / "bmt.json"
    code, out = run_cli(
        capsys,
        "bmt",
        "--n", "4",
        "--nu1", "2/5",
        "--nun", "-3",
        "--c", "11/3",
        "--delta", "2/7",
        "--cutoff", "5",
        "--lambdas", "1,1/2",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["form"]["basis_side"] == "increasing"
    code_verify, _ = run_cli(capsys, "verify", "--input", str(out_path))
    assert code_verify == 0


def test_commands_leave_the_generic_verma_memo_empty(tmp_path, capsys):
    # The Gram, form and check layers read verma's context tables; only
    # verma.act, the reference, builds a highest-weight straightener.
    verma._act_monomial.clear()
    ctx = ["--c=-11/5", "--delta", "11/7"]
    gaiotto, bmt = tmp_path / "gaiotto.json", tmp_path / "bmt.json"
    commands = [
        ["gram", *ctx, "--level", "12"],
        ["gaiotto", "--r", "1", "--mu", "1,0", *ctx, "--cutoff", "12", "--out", str(gaiotto)],
        ["bmt", "--n", "5", "--nu1", "1", "--nun", "2", *ctx, "--cutoff", "10", "--out", str(bmt)],
        ["verify", "--input", str(gaiotto)],
        ["verify", "--input", str(bmt)],
    ]
    for argv in commands:
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert (Fraction(-11, 5), Fraction(11, 7)) in verma._TABLES
    assert not verma._act_monomial


def test_verify_rejects_tampered_state(tmp_path, capsys):
    out_path = tmp_path / "doc.json"
    run_cli(
        capsys,
        "gaiotto",
        "--r", "1",
        "--mu", "3/2,0",
        "--delta", "2/7",
        "--c", "11/3",
        "--cutoff", "4",
        "--out", str(out_path),
    )
    doc = json.loads(out_path.read_text())
    doc["state"]["terms"][1]["coefficient"] = "99"
    out_path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--input", str(out_path))
    assert code == 1
    assert not json.loads(out)["raise_roundtrip"]["passed"]


def test_universal_search_document(capsys):
    code, out = run_cli(
        capsys,
        "universal", "search",
        "--n", "3",
        "--nu1", "1",
        "--nun", "2",
        "--length", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nullspace_dimension"] == 0


def test_oversized_universal_search_exits_2_before_building(capsys, monkeypatch):
    # 28 letters, lengths 1..12: sum_k C(27 + k, k) = C(40, 12) - 1 words.
    def no_words(*args):
        raise AssertionError("ansatz built before the size check")

    monkeypatch.setattr(universal, "level0_words", no_words)
    code = main(
        ["universal", "search", "--n", "30", "--nu1", "1", "--nun", "2", "--length", "12"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "5586853479 words" in err
    assert err.count("\n") == 1


def test_universal_family_document(capsys):
    code, out = run_cli(
        capsys,
        "universal", "family",
        "--family", "w-l-2",
        "--n", "4",
        "--nu1", "2/5",
        "--nun", "-3",
        "--l", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["passed"]
    counts = doc["vector"]["terms"][0]["pseudo_partition"]["counts"]
    assert counts == [{"index": 2, "multiplicity": 2}]


def test_family_choices_are_the_family_builders():
    assert cli.FAMILIES == list(cli_universal.FAMILIES)


def test_check_lemmas_exit(capsys):
    code, out = run_cli(
        capsys,
        "check-lemmas",
        "--r", "2",
        "--mu", "2,-1/3,7",
        "--c", "11/3",
        "--samples", "10",
        "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_check_lemmas_memo_accounting(capsys, monkeypatch):
    # The seed-0 r = 2 check-lemmas job of perfbench's universal workload:
    # its memo hits and entries are what universal.rewrite.memo_entries and
    # the rewriter's cache_info() report for that job.
    monkeypatch.setattr(universal, "_REWRITERS", universal.Straighteners(universal._psi_rule))
    code, out = run_cli(
        capsys,
        "check-lemmas",
        "--r=2",
        "--mu=13/7,-13/5,-11/7",
        "--c=-13/7",
        "--samples", "400",
        "--max-level", "10",
        "--max-length", "6",
        "--seed=1207258441",
    )
    assert code == 0
    digest = "726906b5f03f10ca0602bee29668482e4250cac923c9ccee4d86cb36950d2639"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    info = universal._REWRITERS.cache_info()
    assert (info.hits, info.currsize) == (3938, 2512)


class _NonzeroStraightener:
    """Stub whose every product L_m u is one long word, so that no commutator vanishes."""

    scale = 1

    def times(self, m, word):
        return [((0,) * 7, 1)]


def test_check_lemmas_lists_each_failing_check_once(capsys, monkeypatch):
    # Seed 0 draws (-4, -1, -1, 1, 1, 1, 1): three checks, each failing its
    # raising and its lowering clause against the stub.
    psi, c = WhittakerTypeR(2, (Fraction(1), Fraction(2), Fraction(3))), Fraction(1)
    monkeypatch.setattr(universal, "_REWRITERS", {(psi, c): _NonzeroStraightener()})
    code, out = run_cli(capsys, "check-lemmas", "--r=2", "--mu=1,2,3", "--c=1", "--samples=1")
    assert code == 1
    failures = json.loads(out)["failures"]
    checks = [(entry["operator_index"], tuple(entry["word"])) for entry in failures]
    assert len(checks) == len(set(checks)) == 3
    for entry, (m, word) in zip(failures, checks):
        report = universal.check_lemma_bounds(m, word, psi, c)
        assert entry == cli_universal._lemma_report_json(report)
        assert sum(not clause["passed"] for clause in entry["clauses"]) >= 2


@pytest.mark.parametrize(
    "option, value",
    [
        ("--samples", "-5"),
        ("--samples", "1001"),
        ("--max-level", "-1"),
        ("--max-length", "1500"),
    ],
    ids=["negative-samples", "samples-over-cap", "negative-max-level", "deep-max-length"],
)
def test_check_lemmas_limits_exit_2(capsys, option, value):
    argv = ["check-lemmas", "--r", "2", "--mu", "1,2,3", "--c", "1"]
    argv += ["--samples", "3", "--max-level", "0", "--max-length", "0"]
    code = main(argv + [option, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must lie in ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["-1", "13", "60"])
def test_universal_family_l_limit_exits_2_before_building(capsys, monkeypatch, value):
    def no_family(*args):
        raise AssertionError("family built before the limit check")

    monkeypatch.setattr(families, "family_w_l_2", no_family)
    code = main(
        ["universal", "family", "--family", "w-l-2", "--n", "4"]
        + ["--nu1", "2/5", "--nun", "-3", "--l", value]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --l must lie in 0..12, got {value}\n"


@pytest.mark.parametrize(
    "command, value",
    [
        (["family", "--family", "w-1-l-n", "--l", "2"], "2"),
        (["family", "--family", "w-1-l-n", "--l", "2"], "101"),
        (["search", "--length", "1"], "101"),  # 98 words, under the ansatz limit
    ],
    ids=["2", "101", "search-101"],
)
def test_universal_family_n_limit_exits_2_before_building(capsys, monkeypatch, command, value):
    def no_family(*args):
        raise AssertionError("family built before the limit check")

    monkeypatch.setattr(families, "family_w_1_l_n", no_family)
    monkeypatch.setattr(universal, "level0_words", no_family)
    code = main(["universal", *command, "--n", value, "--nu1", "1", "--nun", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --n must lie in 3..100, got {value}\n"


@pytest.mark.parametrize("r", [0, 13, 20])
def test_check_lemmas_r_limit_exits_2_before_sampling(capsys, monkeypatch, r):
    def no_check(*args):
        raise AssertionError("sample checked before the limit check")

    monkeypatch.setattr(universal, "lemma_clauses", no_check)
    mu = ",".join(["1"] * (r + 1))
    code = main(["check-lemmas", "--r", str(r), "--mu", mu, "--c", "1", "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --r must lie in 1..12, got {r}\n"


@pytest.mark.parametrize(
    "command, r",
    [
        (["check-l0-li"], 0),
        (["check-l0-li"], 13),
        (["check-l0-li"], 20),
        (["gaiotto", "--cutoff", "2"], 13),
    ],
    ids=["0", "13", "20", "gaiotto-13"],
)
def test_check_l0_li_r_limit_exits_2_before_checking(capsys, monkeypatch, command, r):
    def no_check(*args):
        raise AssertionError("identities checked before the limit check")

    monkeypatch.setattr(formops, "check_L0_Li_on_basic", no_check)
    monkeypatch.setattr(forms, "gaiotto_form", no_check)
    mu = ",".join(["1"] * (r + 1))
    code = main([*command, "--r", str(r), "--mu", mu, "--c", "1", "--delta", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --r must lie in 1..12, got {r}\n"


DEEP_JSON = "[" * 100_000  # past the decoder's recursion limit


@pytest.mark.parametrize("command", ["verify", "gaiotto"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    argv = ["verify", "--input", str(path)]
    if command == "gaiotto":
        argv = ["gaiotto", "--r", "2", "--mu", "1,0,0", "--c", "1", "--delta", "1"]
        argv += ["--cutoff", "2", "--coeffs", DEEP_JSON]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_gram_divisible_by_the_first_primes_solves(tmp_path, capsys):
    # G_1 = 2 Delta = the product of the first five primes of the modular
    # solve: the LU finds no pivot modulo any of them.
    big = prod(islice(padic.primes(), 5))
    out_path = tmp_path / "state.json"
    code, _ = run_cli(
        capsys,
        "gaiotto",
        "--r=1",
        "--mu=1,0",
        "--c=1",
        f"--delta={big}/2",
        "--cutoff=2",
        f"--out={out_path}",
    )
    assert code == 0
    code, out = run_cli(capsys, "verify", "--input", str(out_path))
    assert code == 0
    assert json.loads(out)["passed"]


def test_check_l0_li_exit(capsys):
    code, out = run_cli(
        capsys,
        "check-l0-li",
        "--r", "2",
        "--mu", "2,-1/3,7",
        "--c", "11/3",
        "--delta", "2/7",
        "--cutoff", "4",
    )
    assert code == 0
    assert json.loads(out)["verification"]["passed"]


def test_parse_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gram", "--c", "oops", "--delta", "2/7", "--level", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gaiotto", "--r", "1", "--mu", "1,,0", "--cutoff", "2"],
        ["bmt", "--n", "3", "--nu1", "1", "--nun", "2", "--lambdas", "1,", "--cutoff", "2"],
    ],
    ids=["mu-empty-item", "lambdas-trailing-comma"],
)
def test_empty_list_item_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--c", "1", "--delta", "1"])
    assert info.value.code == 2
    assert "not a rational literal: ''" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code = main(["gram", "--c", "1", "--delta", "1", "--level", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out: ")
    assert captured.err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_failed_out_write_exits_2(capsys):
    argv = ["gram", "--c", "1", "--delta", "1", "--level", "3"]
    code, document = run_cli(capsys, *argv)
    assert code == 0
    code = main([*argv, "--out", "/dev/full"])  # opens, then every write fails
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == document
    assert captured.err.startswith("error: cannot write --out: ")
    assert captured.err.count("\n") == 1


GRAM_12 = ["gram", "--c", "11/3", "--delta", "2/7", "--level", "12"]


def test_out_file_equals_stdout(tmp_path, capsys):
    path = tmp_path / "gram.json"
    code, out = run_cli(capsys, *GRAM_12, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_document_is_streamed(tmp_path, monkeypatch):
    """Writing the document costs less traced memory than its own length."""
    path = tmp_path / "gram.json"
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)  # a captured stdout is traced too
        assert main([*GRAM_12, "--out", str(path)]) == 0  # computes the context
        args = build_parser().parse_args(GRAM_12)
        body = _traced_peak(lambda: args.func(args))
        streamed = _traced_peak(lambda: main(GRAM_12))
    assert streamed - body < path.stat().st_size


def _module_env(*path) -> dict[str, str]:
    """The environment of a fresh ``python -m virwhit.cli``: buffered, with
    the directories ``path`` and then src first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    paths = [*path, SRC, env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths if p)
    return env


def _close_stdout_early(unbuffered, *options):
    # Runs GRAM_12 (0.38 MB, past any pipe buffer) and reads 10 bytes of it.
    env = _module_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "virwhit.cli", *GRAM_12, *options]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()  # the reader leaves, as `| head -c 10` does
        err = proc.stderr.read().decode()
        return proc.wait(timeout=60), err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_2(unbuffered):
    code, err = _close_stdout_early(unbuffered)
    assert code == 2
    assert err.startswith("error: cannot write stdout: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_still_writes_out(tmp_path, capsys, unbuffered):
    path = tmp_path / "f.json"
    code, err = _close_stdout_early(unbuffered, "--out", str(path))
    assert code == 2
    assert err.startswith("error: cannot write stdout: ")
    assert err.count("\n") == 1
    assert path.read_bytes() == run_cli(capsys, *GRAM_12)[1].encode()


def _int_options(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                yield from _int_options(subparser)
        elif action.type is int:
            yield action


def test_every_int_option_has_a_limit():
    options = {a.dest: a.option_strings for a in _int_options(build_parser())}
    assert set(options) - {"seed"} == set(LIMITS)
    for dest, strings in options.items():  # main names the option from its dest
        assert strings == ["--" + dest.replace("_", "-")]


# A command line of each command, of universal alone, of no command, of an
# unknown command and of the top-level --help, before the inputs below.
PARSER_PREFIXES = {
    "gram": "gram --c 1 --delta 1 --level 2",
    "gaiotto": "gaiotto --r 1 --mu 1,0 --c 1 --delta 1 --cutoff 2",
    "bmt": "bmt --n 3 --nu1 1 --nun 1 --c 1 --delta 1 --cutoff 2",
    "verify": "verify --input state.json",
    "universal family": "universal family --family w-l-2 --n 4 --nu1 1 --nun 2",
    "universal search": "universal search --n 5 --nu1 1 --nun 2 --length 2",
    "check-lemmas": "check-lemmas --r 2 --mu 1,2,3 --c 1",
    "check-l0-li": "check-l0-li --r 1 --mu 1,1 --c 1 --delta 1",
    "universal": "universal",
    "none": "",
    "unknown": "no-such-command",
    "top-level help": "--help",
}
# Inputs after the prefix: help, a missing required option (the prefix
# loses its last option), an unknown option and a bad --family choice.
PARSER_INPUTS = {
    "help": lambda argv: [*argv, "--help"],
    "missing": lambda argv: argv[:-2] if len(argv) > 2 else argv,
    "unknown option": lambda argv: [*argv, "--no-such-option", "1"],
    "bad family": lambda argv: [*argv, "--family", "no-such-family"],
}


def _parse_outcome(parser, argv, capsys):
    try:
        parser.parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _commands(parser) -> dict:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("case", list(PARSER_INPUTS))
@pytest.mark.parametrize("prefix", list(PARSER_PREFIXES))
def test_argv_parser_matches_the_whole_tree(prefix, case, capsys, monkeypatch):
    # main builds only the subparser its argv names; every text it prints
    # and every exit code must be the whole tree's.
    monkeypatch.setenv("COLUMNS", "80")
    argv = PARSER_INPUTS[case](PARSER_PREFIXES[prefix].split())
    whole, built = build_parser(), build_parser(argv)
    assert _parse_outcome(built, argv, capsys) == _parse_outcome(whole, argv, capsys)
    named = bool(argv) and argv[0] in _commands(whole)
    assert len(_commands(built)) == (1 if named else len(_commands(whole)))


def test_cutoff_limit_exits_2(capsys):
    code, _ = run_cli(
        capsys,
        "gaiotto",
        "--r", "1",
        "--mu", "3/2,0",
        "--delta", "2/7",
        "--c", "11/3",
        "--cutoff", "99",
    )
    assert code == 2


def test_singular_gram_exits_3(capsys):
    # Kac zeros (c, Delta, first singular level, (r, s)): Delta_{1,2} at c = 1;
    # Delta_{1,2} = -1/8 and Delta_{2,1} = 1 at c = -2; Delta_{2,3} at b = 3/2
    # (c = 13 - 6(b^2 + b^-2)), where levels 0-5 have full rank; and Delta_{3,4}
    # at b^2 = -25/16, first singular at level 12.
    for c, delta, mu, level, kac in [
        ("1", "1/4", "3/2,0", 2, "1,2"),
        ("-2", "-1/8", "1,0", 2, "1,2"),
        ("-2", "1", "1,0", 2, "1,2"),
        ("-19/6", "11/144", "1,0", 6, "2,3"),
        ("5243/200", "-441/40", "1,0", 12, "3,4"),
    ]:
        args = ["gaiotto", "--r", "1", "--mu", mu, f"--delta={delta}", f"--c={c}"]
        assert main([*args, "--cutoff", str(level)]) == 3
        err = capsys.readouterr().err
        assert f"level {level}" in err and f"Delta_{{{kac}}}" in err, err
        assert main([*args, "--cutoff", str(level - 1)]) == 0


def test_verify_form_only_document(tmp_path, capsys):
    # A document without a state section verifies just the form residuals.
    out_path = tmp_path / "doc.json"
    run_cli(
        capsys,
        "gaiotto",
        "--r", "1",
        "--mu", "3/2,0",
        "--delta", "2/7",
        "--c", "11/3",
        "--cutoff", "4",
        "--out", str(out_path),
    )
    doc = json.loads(out_path.read_text())
    del doc["state"], doc["command"]
    out_path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--input", str(out_path))
    assert code == 0
    result = json.loads(out)
    assert result["passed"]
    assert "raise_roundtrip" not in result
    assert result["input"] == "unknown"


def test_invalid_type_exits_2(capsys):
    code, _ = run_cli(
        capsys,
        "bmt",
        "--n", "4",
        "--nu1", "0",
        "--nun", "-3",
        "--c", "11/3",
        "--delta", "2/7",
        "--cutoff", "3",
    )
    assert code == 2


def _drop_coefficient(doc):
    del doc["state"]["terms"][0]["coefficient"]


def _term_above_cutoff(doc):
    doc["state"]["terms"].append({"partition": [5], "coefficient": "1"})


def _non_partition_label(doc):
    doc["state"]["terms"].append({"partition": [1, 2], "coefficient": "1"})


def _form_level_above_cutoff(doc):
    doc["form"]["levels"].append(
        {
            "level": 7,
            "terms": [{"exponents": [1, 0, 0, 0, 0, 0, 0], "coefficient": "1"}],
        }
    )


def _not_an_object(doc):
    return [1, 2]


def _negative_exponent(doc):
    # [-1, 2] would otherwise read as the level-2 label of [0, 2].
    (block,) = [b for b in doc["form"]["levels"] if b["level"] == 2]
    block["terms"][0]["exponents"] = [-1, 2]


def _numeric_coefficient(doc):
    doc["form"]["levels"][0]["terms"][0]["coefficient"] = 1


def _repeated_form_label(doc):
    (block,) = [b for b in doc["form"]["levels"] if b["level"] == 2]
    block["terms"].append(dict(block["terms"][0], coefficient="5"))


def _repeated_label_across_blocks(doc):
    (block,) = [b for b in doc["form"]["levels"] if b["level"] == 2]
    doc["form"]["levels"].append(dict(block))


def _repeated_state_partition(doc):
    doc["state"]["terms"].append(dict(doc["state"]["terms"][0], coefficient="5"))


def _non_integral_r(doc):
    doc["parameters"]["r"] = 1.7


def _non_integral_cutoff(doc):
    doc["form"]["cutoff"] += 0.2


def _non_integral_level(doc):
    (block,) = [b for b in doc["form"]["levels"] if b["level"] == 2]
    block["level"] = 2.5


def _string_level(doc):
    (block,) = [b for b in doc["form"]["levels"] if b["level"] == 2]
    block["level"] = "2"


def _float_partition_part(doc):
    (term,) = [t for t in doc["state"]["terms"] if t["partition"] == [2]]
    term["partition"] = [2.0]


def _boolean_exponent(doc):
    (block,) = [b for b in doc["form"]["levels"] if b["level"] == 1]
    block["terms"][0]["exponents"] = [True]


def _huge_exponent(doc):
    # Rejected by its level before a partition of 2^61 parts is built.
    (block,) = [b for b in doc["form"]["levels"] if b["level"] == 1]
    block["terms"][0]["exponents"] = [2**61]


def _list_state(doc):
    doc["state"] = []


def _string_state(doc):
    doc["state"] = "x"


def _number_state(doc):
    doc["state"] = 3


def _list_command(doc):
    doc["command"] = [1]


@pytest.mark.parametrize(
    "tamper",
    [
        _drop_coefficient,
        _term_above_cutoff,
        _non_partition_label,
        _form_level_above_cutoff,
        _not_an_object,
        _negative_exponent,
        _numeric_coefficient,
        _repeated_form_label,
        _repeated_label_across_blocks,
        _repeated_state_partition,
        _non_integral_r,
        _non_integral_cutoff,
        _non_integral_level,
        _string_level,
        _float_partition_part,
        _boolean_exponent,
        _huge_exponent,
        _list_state,
        _string_state,
        _number_state,
        _list_command,
    ],
    ids=[
        "missing-coefficient",
        "term-above-cutoff",
        "non-partition",
        "form-level-above-cutoff",
        "not-an-object",
        "negative-exponent",
        "numeric-coefficient",
        "repeated-form-label",
        "repeated-label-across-blocks",
        "repeated-state-partition",
        "non-integral-r",
        "non-integral-cutoff",
        "non-integral-level",
        "string-level",
        "float-partition-part",
        "boolean-exponent",
        "huge-exponent",
        "list-state",
        "string-state",
        "number-state",
        "list-command",
    ],
)
def test_verify_rejects_malformed_document(tmp_path, capsys, tamper):
    out_path = tmp_path / "doc.json"
    run_cli(
        capsys,
        "gaiotto",
        "--r", "1",
        "--mu", "3/2,0",
        "--delta", "2/7",
        "--c", "11/3",
        "--cutoff", "4",
        "--out", str(out_path),
    )
    doc = json.loads(out_path.read_text())
    replaced = tamper(doc)  # edits doc in place or returns a replacement
    out_path.write_text(json.dumps(doc if replaced is None else replaced))
    code = main(["verify", "--input", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: malformed document: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["gaiotto", "--r", "3", "--mu", "1,2,3,4"],
        ["bmt", "--n", "4", "--nu1", "2/5", "--nun", "-3"],
    ],
    ids=["gaiotto", "bmt"],
)
@pytest.mark.parametrize(
    "coeffs",
    [
        "[{}]",
        "[1]",
        '[{"exponents": [0, 0]}]',
        '[{"exponents": [0, 0], "coefficient": 1}]',
        '[{"exponents": [0, 0], "coefficient": "1"},'
        ' {"exponents": [0, 0], "coefficient": "5"}]',
        '[{"exponents": [0.9, 0], "coefficient": "1"}]',
        '[{"exponents": [true, 0], "coefficient": "1"}]',
        '[{"exponents": ["1", 0], "coefficient": "1"}]',
    ],
    ids=[
        "empty-entry",
        "not-an-entry",
        "missing-coefficient",
        "numeric-coefficient",
        "repeated-exponents",
        "float-exponent",
        "boolean-exponent",
        "string-exponent",
    ],
)
def test_malformed_coeffs_exit_2(capsys, command, coeffs):
    code = main(
        [*command, "--c", "11/3", "--delta", "2/7", "--cutoff", "3", "--coeffs", coeffs]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: malformed coefficients entry ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("lambdas", [False, True], ids=["coefficients", "lambdas"])
def test_bmt_n_limit_exits_2_before_building(capsys, monkeypatch, lambdas):
    def no_form(*args):
        raise AssertionError("form built before the limit check")

    monkeypatch.setattr(forms, "bmt_form", no_form)
    monkeypatch.setattr(forms, "bmt_special_form", no_form)
    argv = ["bmt", "--n", "101", "--nu1", "1", "--nun", "2"]
    argv += ["--c", "11/3", "--delta", "2/7", "--cutoff", "4"]
    if lambdas:
        argv += ["--lambdas", ",".join(["0"] * 99)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --n must lie in 3..100, got 101\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--lambdas", "1,2,3", "expected 2 lambda values (lambda_2..lambda_3)"),
        (
            "--coeffs",
            '[{"exponents": [0, 0], "coefficient": "1/0"}]',
            "zero denominator in '1/0'",
        ),
        # The CLI's own length message, for a zero coefficient too.
        (
            "--coeffs",
            '[{"exponents": [0], "coefficient": "0"}]',
            "coefficients exponent tuples must have length 2",
        ),
    ],
    ids=["lambdas-length", "zero-denominator", "zero-coefficient-length"],
)
def test_bmt_bad_coefficients_exit_2(capsys, option, value, message):
    argv = ["bmt", "--n", "4", "--nu1", "2/5", "--nun", "-3"]
    code = main(argv + ["--c", "11/3", "--delta", "2/7", "--cutoff", "3", option, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, coeffs",
    [
        (
            ["gaiotto", "--r", "2", "--mu", "1,2,3"],
            '[{"exponents": [-1], "coefficient": "0"}, {"exponents": [0], "coefficient": "1"}]',
        ),
        (
            ["bmt", "--n", "4", "--nu1", "2/5", "--nun", "-3"],
            '[{"exponents": [0, -1], "coefficient": "0"},'
            ' {"exponents": [0, 0], "coefficient": "1"}]',
        ),
    ],
    ids=["gaiotto", "bmt"],
)
def test_negative_exponents_with_zero_coefficient_exit_2(capsys, command, coeffs):
    # A zero coefficient adds nothing to the form, but its exponents are checked.
    code = main([*command, "--c", "1", "--delta", "1/3", "--cutoff", "2", "--coeffs", coeffs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: exponents must be nonnegative\n"


@pytest.mark.parametrize(
    "command, coeffs",
    [
        (["gaiotto", "--r", "1", "--mu", "1,0"], "[]"),
        (["gaiotto", "--r", "1", "--mu", "1,0"], '[{"exponents": [], "coefficient": "0"}]'),
        (["bmt", "--n", "4", "--nu1", "2/5", "--nun", "-3"], "[]"),
        (
            ["bmt", "--n", "4", "--nu1", "2/5", "--nun", "-3"],
            '[{"exponents": [0, 0], "coefficient": "0"},'
            ' {"exponents": [1, 0], "coefficient": "0/7"}]',
        ),
    ],
    ids=["gaiotto-empty", "gaiotto-zeros", "bmt-empty", "bmt-zeros"],
)
def test_zero_coefficients_exit_2(capsys, command, coeffs):
    # The zero form would be reported as a passing state.
    code = main([*command, "--c", "1", "--delta", "1", "--cutoff", "2", "--coeffs", coeffs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --coeffs has no nonzero coefficient: the form would be zero\n"


@pytest.mark.parametrize(
    "command, message",
    [
        (["gaiotto", "--r", "1", "--mu", "1,0"], "error: bad coefficients JSON: "),
        (["bmt", "--n", "4", "--nu1", "2/5", "--nun", "-3"], "error: bad coefficients JSON: "),
        (
            ["bmt", "--n", "4", "--nu1", "2/5", "--nun", "-3", "--lambdas", "1,2"],
            "error: give either --coeffs or --lambdas, not both\n",
        ),
    ],
    ids=["gaiotto", "bmt", "bmt-lambdas"],
)
def test_empty_coeffs_exit_2(capsys, command, message):
    # An empty --coeffs is a malformed value, not an absent one.
    code = main([*command, "--c", "1", "--delta", "1", "--cutoff", "2", "--coeffs", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


GAIOTTO_R2 = ["gaiotto", "--r", "2", "--mu", "2,-1/3,7", "--c", "11/3", "--delta", "2/7"]
GAIOTTO_COEFFS = (
    '[{"exponents": [0], "coefficient": "1"}, {"exponents": [2], "coefficient": "-1/3"}]'
)
BMT_N4 = ["bmt", "--n", "4", "--nu1", "2/5", "--nun", "-3"]
BMT_N4 += ["--c", "11/3", "--delta", "2/7"]
BMT_COEFFS = (
    '[{"exponents": [0, 0], "coefficient": "1"},'
    ' {"exponents": [1, 0], "coefficient": "-2/3"}]'
)
FAMILY = ["universal", "family", "--nu1", "2/5", "--nun", "-3", "--c", "11/3", "--l", "2"]
CHECK_R2 = ["--r", "2", "--mu", "2,-1/3,7", "--c", "11/3"]

# SHA-256 of the stdout document of one small call per command, family and
# coefficient kind, recorded before the codecs and the envelope were shared.
DOCUMENT_DIGESTS = {
    "gram": (
        ["gram", "--c", "11/3", "--delta", "2/7", "--level", "3"],
        "92f4395180aa853dfa87636b9739e0504593c734628d4f11e97905edd1fbee71",
    ),
    "gaiotto-coeffs": (
        [*GAIOTTO_R2, "--cutoff", "4", "--coeffs", GAIOTTO_COEFFS],
        "4f05b8c15716e97af35faba7a86b6f33000198637590eb7d79306ea38e5aab40",
    ),
    "bmt-lambdas": (
        [*BMT_N4, "--cutoff", "4", "--lambdas", "1,1/2"],
        "99075139b19ef6ce9ba6893cfc6304a51297e4172d5d0424bee673a8c2d79413",
    ),
    "bmt-coeffs": (
        [*BMT_N4, "--cutoff", "4", "--coeffs", BMT_COEFFS],
        "e495e28de69689e9fc9f6185de0cf62299c073a2f8d2ba1dccdfd475f042ca08",
    ),
    "verify": (  # of the gaiotto-coeffs document
        ["verify", "--input", "state.json"],
        "6596d0f347e2375f2bfcc4c916176344629ee4d6479a8131f043a61c44a08242",
    ),
    "family-w-l-2": (
        [*FAMILY, "--family", "w-l-2", "--n", "4"],
        "90c190fb16c40e35578b27e9298a129287b444067c3fb061108c8d47005f3598",
    ),
    "family-w-l-2-n": (
        [*FAMILY, "--family", "w-l-2-n", "--n", "5"],
        "6eed3e67162ed0739a136986afa73d7e272040fa46e51d5d03015be00c5fcf0d",
    ),
    "family-w-1-l-n": (
        [*FAMILY, "--family", "w-1-l-n", "--n", "5"],
        "25fd3982e40e96fe5b925bf00116926bb819c1ff0c84053c2ffb90ec8528c00f",
    ),
    "family-example-n5-w11-23": (
        [*FAMILY, "--family", "example-n5-w11-23", "--n", "5"],
        "4e7a4c252dd9fbfd6478be3b1f29ad5d25d59b289180cb78aaa00a980ceaebe3",
    ),
    "family-example-n5-w2-2": (
        [*FAMILY, "--family", "example-n5-w2-2", "--n", "5"],
        "7e56414894876510df23a93ca67e0beff75c8012fea110eb27995edf59a40d1d",
    ),
    "universal-search": (
        ["universal", "search", "--n", "4", "--nu1", "1", "--nun", "2"]
        + ["--c", "11/3", "--length", "4"],
        "2588a03d81e8042d8670776bf461ca0a987900357158842ececf4d593a9523ae",
    ),
    "universal-search-454-words": (  # n = 5, dimension 24, near MAX_ANSATZ_WORDS
        ["universal", "search", "--n", "5", "--nu1", "1", "--nun", "2"]
        + ["--c", "11/3", "--length", "12"],
        "8926e23a774979c9144321474ee44159efaa566ea6dc8ed998331a78a881169f",
    ),
    "check-lemmas": (
        ["check-lemmas", *CHECK_R2, "--samples", "10", "--seed", "3"],
        "16d71df8b9f75d9d7084264a46c18ec8b679d93d1a3850e2d77771101602deef",
    ),
    "check-l0-li": (
        ["check-l0-li", *CHECK_R2, "--delta", "2/7", "--cutoff", "4"],
        "ff3a9a191e75c6dfe00ad0fcace21b0f85b30a63de812ac565cc440a1f62d8cf",
    ),
}


@pytest.mark.parametrize("name", list(DOCUMENT_DIGESTS))
def test_document_digests(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    argv, digest = DOCUMENT_DIGESTS[name]
    if name == "verify":
        state_argv = DOCUMENT_DIGESTS["gaiotto-coeffs"][0]
        assert run_cli(capsys, *state_argv, "--out", "state.json")[0] == 0
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _readme_cli_calls() -> list[list[str]]:
    """The ``virwhit ...`` lines of README's CLI block, continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    calls = [line for line in lines if line.startswith("virwhit ")]
    return [shlex.split(line, comments=True)[1:] for line in calls]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the block writes and reads state.json
    calls = _readme_cli_calls()
    assert len(calls) == 9
    for argv in calls:
        code, _ = run_cli(capsys, *argv)
        assert code == 0, argv


AT_BOUND = f"1/{2**MAX_PARAMETER_BITS - 1}"  # a denominator of exactly the limit
OVER_BOUND = f"{2**MAX_PARAMETER_BITS}/3"  # a numerator one bit over it
COEFFS = '[{{"exponents": [], "coefficient": "{x}"}}]'
LITERAL_COMMANDS = [  # (the name in the error, the command with the literal as {x})
    ("--c", "gram --c {x} --delta 1 --level 2"),
    ("--delta", "gram --c 1 --delta {x} --level 2"),
    ("--mu", "gaiotto --r 1 --mu 1,{x} --c 1 --delta 1 --cutoff 2"),
    ("--nu1", "universal search --n 4 --nu1 {x} --nun 1 --length 2"),
    ("--nun", "universal search --n 4 --nu1 1 --nun {x} --length 2"),
    ("--c", "universal search --n 4 --nu1 1 --nun 1 --c {x} --length 2"),
    ("--lambdas", "bmt --n 4 --nu1 1 --nun 1 --c 1 --delta 1 --cutoff 2 --lambdas {x},1"),
    ("--alpha0", "universal family --family w-l-2 --n 4 --nu1 1 --nun 1 --alpha0 {x}"),
    (
        "--coeffs coefficient",
        f"gaiotto --r 1 --mu 1,1 --c 1 --delta 1 --cutoff 2 --coeffs '{COEFFS}'",
    ),
]


@pytest.mark.parametrize("name, command", LITERAL_COMMANDS)
def test_parameter_literal_bits_are_bounded(capsys, name, command):
    code, _ = run_cli(capsys, *shlex.split(command.format(x=AT_BOUND)))
    assert code == 0
    code = main(shlex.split(command.format(x=OVER_BOUND)))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: {name} has {MAX_PARAMETER_BITS + 1} bits, more than the limit "
        f"{MAX_PARAMETER_BITS}\n"
    )


@pytest.mark.parametrize("key", ["central_charge", "conformal_weight", "mu"])
def test_verify_document_parameters_are_bounded(tmp_path, capsys, key):
    out_path = tmp_path / "state.json"
    argv = ["gaiotto", "--r", "1", "--mu", f"1,{AT_BOUND}", "--c", AT_BOUND]
    argv += ["--delta", AT_BOUND, "--cutoff", "2", f"--out={out_path}"]
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, "verify", "--input", str(out_path))[0] == 0
    doc = json.loads(out_path.read_text())
    if key == "mu":
        doc["parameters"]["mu"][1] = OVER_BOUND
    else:
        doc["parameters"][key] = OVER_BOUND
    out_path.write_text(json.dumps(doc))
    code = main(["verify", "--input", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: malformed document: {key} has {MAX_PARAMETER_BITS + 1} bits, "
        f"more than the limit {MAX_PARAMETER_BITS}\n"
    )


def test_cutoff_limit_of_an_option_and_of_a_document(tmp_path, capsys):
    assert main([*GAIOTTO_R2, "--cutoff", "13"]) == 2
    assert capsys.readouterr().err == "error: --cutoff must lie in 0..12, got 13\n"
    path = tmp_path / "doc.json"
    assert run_cli(capsys, *GAIOTTO_R2, "--cutoff", "2", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["form"]["cutoff"] = 13
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed document: cutoff must lie in 0..12, got 13\n"


# The real exit path: ``python -m virwhit.cli`` in a fresh process, which ends
# by os._exit unless a profiler or tracer is attached.


def _run_module(*args, python=(), env=None, **kwargs) -> subprocess.CompletedProcess:
    """``python [python...] -m virwhit.cli args``, stderr (and by default
    stdout) captured."""
    argv = [sys.executable, *python, "-m", "virwhit.cli", *args]
    kwargs.setdefault("stdout", subprocess.PIPE)
    env = env or _module_env()
    return subprocess.run(argv, env=env, stderr=subprocess.PIPE, timeout=120, **kwargs)


def test_module_exit_0_writes_the_in_process_document(tmp_path, capsys):
    argv, digest = DOCUMENT_DIGESTS["bmt-lambdas"]
    path = tmp_path / "doc.json"
    proc = _run_module(*argv, "--out", str(path))
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == path.read_bytes() == run_cli(capsys, *argv)[1].encode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_module_exit_1_on_a_tampered_state(tmp_path):
    path = tmp_path / "doc.json"
    assert _run_module(*GAIOTTO_R2, "--cutoff", "4", "--out", str(path)).returncode == 0
    doc = json.loads(path.read_text())
    doc["state"]["terms"][1]["coefficient"] = "99"
    path.write_text(json.dumps(doc))
    proc = _run_module("verify", "--input", str(path))
    assert proc.returncode == 1 and proc.stderr == b""
    assert not json.loads(proc.stdout)["raise_roundtrip"]["passed"]


ERROR_EXITS = pytest.mark.parametrize(
    "argv, code",
    [
        (["gram", "--c", "1", "--delta", "1", "--level", "13"], 2),  # a LIMITS error
        (["gaiotto", "--r", "1", "--mu", "1,0", "--c", "5243/200", "--delta=-441/40",
          "--cutoff", "12"], 3),  # Kac zero Delta_{3,4}, first at level 12
    ],
    ids=["limit", "kac"],
)


@ERROR_EXITS
def test_module_error_exit_writes_one_stderr_line(argv, code):
    proc = _run_module(*argv)
    assert proc.returncode == code
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


# The installed virwhit script runs this, and ends by sys.exit, with its
# flush of stdout and stderr at the interpreter's teardown.
CONSOLE_SCRIPT = "import sys; from virwhit.cli import main; sys.exit(main())"


@ERROR_EXITS
@pytest.mark.parametrize("stderr", ["full", "closed"])
@pytest.mark.parametrize("python", [["-m", "virwhit.cli"], ["-c", CONSOLE_SCRIPT]],
                         ids=["module", "script"])
def test_unwritable_stderr_keeps_the_exit_code(argv, code, stderr, python):
    if stderr == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs a device that is always full")
    run = partial(subprocess.run, [sys.executable, *python, *argv], env=_module_env(),
                  stdout=subprocess.PIPE, timeout=120)
    if stderr == "full":
        with open("/dev/full", "w") as full:
            proc = run(stderr=full)
    else:  # started with fd 2 closed, as `2>&-` does
        proc = run(preexec_fn=lambda: os.close(2))
    assert proc.returncode == code
    assert proc.stdout == b""


# Buffered, the level-1 document (0.4 KB) fails at main's flush and the
# level-7 one (12 KB, past the 8 KiB buffer) at a write.
@pytest.mark.parametrize("stdout, level", [("full", 1), ("full", 7), ("closed", 3)])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "stdout-and-out"])
def test_module_unwritable_stdout_exits_2(tmp_path, capsys, stdout, level, out):
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs a device that is always full")
    argv = ["gram", "--c", "1", "--delta", "1", "--level", str(level)]
    path = tmp_path / "doc.json"
    options = ["--out", str(path)] if out else []
    if stdout == "full":
        with open("/dev/full", "w") as full:
            proc = _run_module(*argv, *options, stdout=full)
        message = b"error: cannot write stdout: [Errno 28] "
    else:  # started with fd 1 closed, as `>&-` does
        proc = _run_module(*argv, *options, stdout=None, preexec_fn=lambda: os.close(1))
        message = b"error: cannot write stdout: [Errno 9] "
    assert proc.returncode == 2
    assert proc.stderr.startswith(message) and proc.stderr.count(b"\n") == 1
    assert b"Traceback" not in proc.stderr
    if out:
        assert path.read_bytes() == run_cli(capsys, *argv)[1].encode()


def test_module_run_skips_teardown_unless_a_tool_is_attached(tmp_path, capsys):
    """An atexit handler, registered by a sitecustomize, runs only when the
    process ends by sys.exit: on an argparse error and under cProfile, which
    writes its file after the profiled code ends by SystemExit (the tool is
    sys.getprofile() on 3.10 and 3.11, sys.monitoring tool 2 on 3.12+)."""
    marker = tmp_path / "teardown"
    (tmp_path / "sitecustomize.py").write_text(
        f"import atexit\natexit.register(open, {str(marker)!r}, 'a')\n"
    )
    env = _module_env(tmp_path)
    gram = ["gram", "--c", "1", "--delta", "1", "--level", "4"]
    assert _run_module(*gram, env=env).returncode == 0
    assert not marker.exists()
    assert _run_module(*gram[:-1], env=env).returncode == 2  # argparse: --level needs a value
    assert marker.exists()
    marker.unlink()
    path = tmp_path / "profile"
    proc = _run_module(*gram, python=["-m", "cProfile", "-o", str(path)], env=env)
    assert proc.returncode == 0 and marker.exists()
    assert proc.stdout == run_cli(capsys, *gram)[1].encode()
    functions = pstats.Stats(str(path)).stats
    assert any(name == "main" and file.endswith("cli.py") for file, _, name in functions)
