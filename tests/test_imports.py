"""Start-up contract: each command imports only the modules it runs.

Each CLI call runs in a fresh interpreter at a tiny size, and the modules
it added to ``sys.modules`` are read at its end.  ``import virwhit`` loads
no submodule, yet every name the package exports still resolves.  Each
name has one home, the module that defines it; only the three names the
benchmark's tracer wraps also resolve on another module.
"""

import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import FunctionType

import pytest

import virwhit
from virwhit.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Runs the CLI arguments given after -c and prints its exit code and the
# modules it loaded.
RUNNER = """
import contextlib, io, json, sys
before = set(sys.modules)
from virwhit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

# A Verma command straightens nothing in U(Vir): only verma.act, which no
# command calls, loads virasoro.  The square solve (padic), the sparse
# elimination, formops and families hold code that only some commands run.
UNIVERSAL_SIDE = {"virwhit.universal", "virwhit.virasoro", "virwhit.cli_universal"}
VERMA_SIDE = {
    "virwhit.verma",
    "virwhit.shapovalov",
    "virwhit.forms",
    "virwhit.cli_verma",
    "virwhit.cli_verify",
}
SOLVE, ELIMINATION = "virwhit.padic", "virwhit.elimination"
FORMOPS, FAMILIES = "virwhit.formops", "virwhit.families"
COMMANDS = {
    "gram": (
        ["gram", "--c", "1", "--delta", "1", "--level", "2"],
        {"virwhit.forms", "virwhit.cli_verify", SOLVE, ELIMINATION, *UNIVERSAL_SIDE},
    ),
    "gaiotto": (
        ["gaiotto", "--r", "1", "--mu", "1,0", "--c", "1", "--delta", "1", "--cutoff", "2"],
        {"virwhit.cli_verify", FORMOPS, ELIMINATION, *UNIVERSAL_SIDE},
    ),
    "bmt": (
        ["bmt", "--n", "3", "--nu1", "1", "--nun", "1", "--c", "1", "--delta", "1"]
        + ["--cutoff", "2"],
        {"virwhit.cli_verify", FORMOPS, ELIMINATION, *UNIVERSAL_SIDE},
    ),
    "verify": (
        ["verify", "--input", "{state}"],
        {"virwhit.cli_verma", FORMOPS, SOLVE, ELIMINATION, *UNIVERSAL_SIDE},
    ),
    "check-l0-li": (
        ["check-l0-li", "--r", "1", "--mu", "1,1", "--c", "1", "--delta", "1", "--cutoff", "2"],
        {"virwhit.cli_verify", SOLVE, ELIMINATION, *UNIVERSAL_SIDE},
    ),
    "universal search": (
        ["universal", "search", "--n", "5", "--nu1", "1", "--nun", "2", "--length", "2"],
        {SOLVE, FAMILIES, "random", *VERMA_SIDE},
    ),
    "universal family": (
        ["universal", "family", "--family", "w-l-2", "--n", "4", "--nu1", "1", "--nun", "2"],
        {SOLVE, ELIMINATION, *VERMA_SIDE},
    ),
    "check-lemmas": (
        ["check-lemmas", "--r", "2", "--mu", "1,2,3", "--c", "1", "--samples", "3"],
        {SOLVE, ELIMINATION, FAMILIES, *VERMA_SIDE},
    ),
}

# Every name the package exported when its __init__ imported them all, by
# the module that defines it.
EXPORTED = {
    "rational": "format_rational parse_rational",
    "linalg": "ContextMismatchError SingularGramError",
    "virasoro": "EnvelopingElement Word bracket commutator generator multiply normal_order unit",
    "verma": "Partition VermaContext VermaVector act basis_change basis_vector "
    "enumerate_partitions highest_weight_vector partition_exponents",
    "shapovalov": "GramMatrix gram solve",
    "whittaker": "IndexOutsideSubalgebraError ResidualCheck VerificationReport "
    "WhittakerType1N WhittakerTypeR",
    "forms": "DualForm bmt_form bmt_special_form convert_form gaiotto_form raise_indices "
    "verify_whittaker_form verify_whittaker_state",
    "formops": "CutoffExceededError act_on_form check_L0_Li_on_basic eval_form "
    "gaiotto_basic_form whittaker_form_nullspace",
    "universal": "PseudoPartition SearchResult UniversalVector act_universal "
    "check_lemma_bounds search_whittaker verify_whittaker_vector",
    "families": "NotClassifiedError dot_act example_n5 family_w_1_l_n family_w_l_2 "
    "family_w_l_2_n nilpotency_index whittaker_subspace_level0",
}

# The names the benchmark's tracer wraps on a module other than their home:
# (module, name): home.  The package calls them there.
KEPT_ALIASES = {
    ("linalg", "bareiss_solve"): "padic",
    ("linalg", "nullspace"): "elimination",
    ("forms", "act_on_form"): "formops",
}

# Names that resolved on a module other than their home, and no longer do.
REMOVED_ALIASES = {
    "linalg": "SingularMatrixError primes",
    "forms": "CutoffExceededError bmt_basic_form check_L0_Li_on_basic eval_form form_combine "
    "gaiotto_basic_form restrict_form whittaker_form_nullspace zero_form",
    "universal": "NotClassifiedError dot_act dot_nilpotency_bound example_n5 family_w_1_l_n "
    "family_w_l_2 family_w_l_2_n nilpotency_index restricted_type whittaker_subspace_level0",
    "virasoro": "ContextMismatchError MAX_CONTEXTS",
}


def _python(*args: str, stderr: bool = False) -> str:
    """The stdout, or with ``stderr`` the stderr, of a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stderr if stderr else done.stdout


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_loads_only_what_it_runs(name, tmp_path, capsys):
    argv, unloaded = COMMANDS[name]
    state = tmp_path / "state.json"
    if name == "verify":
        assert main([*COMMANDS["gaiotto"][0], "--out", str(state)]) == 0
        capsys.readouterr()
    argv = [arg.format(state=state) for arg in argv]
    # -S: site may import modules itself (an installed .pth file can import
    # random), which would hide them from the snapshot the runner takes.
    code, loaded = json.loads(_python("-S", "-c", RUNNER, *argv))
    assert code == 0
    assert "virwhit.cli" in loaded
    assert "dataclasses" not in loaded
    assert not unloaded & set(loaded), sorted(unloaded & set(loaded))


@pytest.mark.parametrize("name", ["gram", "bmt", "universal search", "check-lemmas"])
def test_command_under_dash_m_imports_each_module_once(name):
    # Under -m the cli module runs as __main__, so importing it by name
    # would compile it twice.  -X importtime prints a line per module
    # imported through the interpreter's import statement; -v prints one
    # per module loaded by any route, importlib.import_module and the
    # "from . import name" of a package included.
    argv, unloaded = COMMANDS[name]
    err = _python("-X", "importtime", "-v", "-m", "virwhit.cli", *argv, stderr=True)
    timed = [line.split("|")[-1].strip() for line in err.splitlines() if "import time:" in line]
    loaded = [line.split("'")[1] for line in err.splitlines() if line.startswith("import '")]
    timed = [module for module in timed if module.startswith("virwhit")]
    loaded = [module for module in loaded if module.startswith("virwhit")]
    assert len(timed) == len(set(timed)) and len(loaded) == len(set(loaded)), loaded
    assert set(timed) <= set(loaded)
    assert "virwhit.cli" not in loaded
    assert {"virwhit.linalg", "virwhit.rational"} <= set(loaded)
    assert not unloaded & set(loaded), sorted(unloaded & set(loaded))


def test_import_cli_loads_no_command_module():
    out = _python("-c", "import sys, virwhit.cli; print(*sorted(sys.modules))")
    loaded = set(out.split())
    assert "virwhit.cli" in loaded
    assert not {"virwhit.cli_verma", "virwhit.cli_verify", "virwhit.cli_universal"} & loaded
    assert not {SOLVE, ELIMINATION} & loaded


def test_import_package_loads_no_submodule():
    out = _python("-c", "import sys, virwhit; print(*(m for m in sys.modules if 'virwhit' in m))")
    assert out.split() == ["virwhit"]


def test_every_former_export_resolves():
    names = dir(virwhit)
    for module, exported in EXPORTED.items():
        source = getattr(virwhit, module)
        assert source.__name__ == f"virwhit.{module}" and module in names
        for name in exported.split():
            assert getattr(virwhit, name) is getattr(source, name)
            assert name in names and name in virwhit.__all__
    assert "linalg" in names and virwhit.linalg.__name__ == "virwhit.linalg"
    with pytest.raises(AttributeError):
        virwhit.no_such_name


def test_every_export_is_defined_by_its_home_module():
    for module, exported in EXPORTED.items():
        home = import_module(f"virwhit.{module}")
        for name in exported.split():
            value = getattr(virwhit, name)
            assert value is vars(home)[name], name
            if isinstance(value, (type, FunctionType)):
                assert value.__module__ == home.__name__, name


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in REMOVED_ALIASES.items() for n in names.split()]
)
def test_removed_alias_raises_attribute_error(module, name):
    for home in ("padic", "formops", "families"):  # loaded, so no lazy import can hide it
        import_module(f"virwhit.{home}")
    old = import_module(f"virwhit.{module}")
    with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
        getattr(old, name)
    assert name not in dir(old)


@pytest.mark.parametrize("module, name", list(KEPT_ALIASES))
def test_kept_alias_is_its_home_object(module, name):
    home = import_module(f"virwhit.{KEPT_ALIASES[module, name]}")
    assert getattr(import_module(f"virwhit.{module}"), name) is vars(home)[name]


def test_only_linalg_and_forms_resolve_names_of_other_modules():
    modules = sorted(p.stem for p in (SRC / "virwhit").glob("*.py") if p.stem != "__init__")
    hooked = [m for m in modules if "__getattr__" in vars(import_module(f"virwhit.{m}"))]
    assert hooked == ["forms", "linalg"]


def test_readme_library_example_runs_in_a_fresh_interpreter():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from virwhit import (" in code
    _python("-c", code)
