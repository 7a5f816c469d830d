import json
from fractions import Fraction

import pytest

from virwhit import universal
from virwhit.cli import main


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
    # level-2 Kac zero: c = 1, Delta = 1/4
    code, _ = run_cli(
        capsys,
        "gaiotto",
        "--r", "1",
        "--mu", "3/2,0",
        "--delta", "1/4",
        "--c", "1",
        "--cutoff", "3",
    )
    assert code == 3


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
    del doc["state"]
    out_path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", "--input", str(out_path))
    assert code == 0
    result = json.loads(out)
    assert result["passed"]
    assert "raise_roundtrip" not in result


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
