"""Each command loads only the modules it runs; `import polyadic` resolves names lazily.

`import polyadic.cli` registers `finite`, `groups` and `tables` in
sys.modules but executes them only when a command reads one of their
attributes.  A registered module not yet executed is still of the lazy
loader's own module type, so the probes below tell the two apart by
`type(module)`, which does not trigger the load.

Every check runs in a fresh interpreter, since the test process may have
imported any module already.
"""

import json
import os
import subprocess
import sys

import pytest

import polyadic

RUN_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
PRINT_MODULES = (
    "import json, sys, types\n"
    "print(json.dumps({name: type(module) is types.ModuleType\n"
    "                  for name, module in sys.modules.items()}), file=sys.stderr)\n")
LAZY = {"finite", "groups", "tables"}


def modules_after(script: str) -> dict[str, bool]:
    """Each module in sys.modules once `script` has run, and whether it was executed."""
    proc = subprocess.run([sys.executable, "-c", script + "\n" + PRINT_MODULES],
                          capture_output=True, text=True, env=RUN_ENV, check=True)
    return json.loads(proc.stderr.splitlines()[-1])


def loaded_after(script: str) -> set[str]:
    """Names of the polyadic submodules in sys.modules once `script` has run."""
    return {name.removeprefix("polyadic.") for name in modules_after(script)
            if name.startswith("polyadic.")}


def run_script(script: str) -> str:
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=RUN_ENV, check=True).stdout


def test_cli_loads_neither_arithmetic_nor_reference():
    loaded = loaded_after("import polyadic.cli")
    assert {"ring", "finite", "groups", "tables"} <= loaded
    assert not loaded & {"arithmetic", "reference", "oracle"}


def test_group_command_loads_neither_arithmetic_nor_reference():
    loaded = loaded_after("from polyadic.cli import main\n"
                          "assert main(['group', '--a', '2', '--b', '3', '--q', '5']) == 0")
    assert {"ring", "finite", "groups", "tables"} <= loaded
    assert not loaded & {"arithmetic", "reference", "oracle"}


def main_script(*argv: str) -> str:
    return f"from polyadic.cli import main\nassert main({list(argv)!r}) == 0"


ABQ = ("--a", "2", "--b", "3", "--q", "5")


@pytest.mark.parametrize("argv, runs", [
    (("arity", "--a", "3", "--b", "4"), set()),
    (("primes", "--a", "1", "--b", "2", "--kmax", "5"), set()),
    (("finite", *ABQ), {"finite"}),
    (("group", *ABQ), {"finite", "groups"}),
    (("scan", "--bmax", "4", "--qmax", "4"), {"finite", "groups"}),
    (("appendix", *ABQ), LAZY),
    (("table", "--out", "{out}"), LAZY),
], ids=["arity", "primes", "finite", "group", "scan", "appendix", "table-out"])
def test_each_command_executes_only_the_modules_it_runs(argv, runs, tmp_path):
    modules = modules_after(main_script(*[arg.format(out=tmp_path) for arg in argv]))
    assert {name for name in LAZY if modules[f"polyadic.{name}"]} == runs
    # csv is imported by the body of `tables` alone.
    assert ("csv" in modules) == ("tables" in runs)


def test_cli_uses_a_module_imported_before_it():
    # One copy of each module: the CLI neither re-executes nor replaces it,
    # so a patch of the module is what the commands call.
    out = run_script(
        "import types\n"
        "import polyadic.finite as f\n"
        "import polyadic.cli as c\n"
        "assert c.finite is f and type(f) is types.ModuleType\n"
        "seen = []\n"
        "report = f.structure_report\n"
        "f.structure_report = lambda fr: seen.append(fr.q) or report(fr)\n"
        "assert c.main(['group', '--a', '2', '--b', '3', '--q', '5']) == 0\n"
        "print(seen)\n")
    assert out.endswith("[5]\n")


def test_a_registered_module_is_the_one_later_imports_get():
    out = run_script(
        "import types\n"
        "import polyadic.cli as c\n"
        "import polyadic\n"
        "assert type(c.__dict__['tables']) is not types.ModuleType\n"
        "import polyadic.tables as t\n"
        "from polyadic import groups\n"
        "assert t is c.tables is polyadic.tables and groups is c.groups\n"
        "assert t.grid_pairs is c.grid_pairs\n"
        "print(type(t).__name__)\n")
    assert out == "module\n"


def test_ring_loads_only_errors_and_factor():
    assert loaded_after("import polyadic.ring") == {"ring", "errors", "factor"}


def test_arithmetic_loads_no_table_code():
    loaded = loaded_after("import polyadic.arithmetic")
    assert "arithmetic" in loaded
    assert not loaded & {"finite", "groups", "tables", "reference"}


def test_every_exported_name_is_its_submodule_object():
    out = run_script(
        "import sys, polyadic\n"
        "for name in polyadic.__all__:\n"
        "    value = getattr(polyadic, name)\n"
        "    home = sys.modules[value.__module__]\n"
        "    assert home.__name__.startswith('polyadic.'), name\n"
        "    assert getattr(home, name) is value, name\n"
        "print(len(polyadic.__all__))\n")
    assert int(out) == len(polyadic.__all__) > 0


def test_unknown_name_raises_attribute_error():
    out = run_script(
        "import polyadic\n"
        "for name in ('no_such_name', 'reference'):\n"
        "    try:\n"
        "        getattr(polyadic, name)\n"
        "    except AttributeError:\n"
        "        print('AttributeError', name)\n"
        "from polyadic import reference\n"
        "print(polyadic.reference is reference)\n")
    assert out == "AttributeError no_such_name\nAttributeError reference\nTrue\n"


# Importing `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, 8-12 ms
# of start-up in every process; records are NamedTuples instead.
@pytest.mark.parametrize("script", [
    "import polyadic.cli",
    "from polyadic.cli import main\n"
    "assert main(['group', '--a', '2', '--b', '3', '--q', '5']) == 0",
    "from polyadic.cli import main\n"
    "assert main(['table', '--out', {out!r}]) == 0",
    "import polyadic.arithmetic",
], ids=["import-cli", "group", "table-out", "import-arithmetic"])
def test_start_up_loads_neither_dataclasses_nor_inspect(script, tmp_path):
    loaded = modules_after(script.format(out=str(tmp_path)))
    assert not loaded.keys() & {"dataclasses", "inspect"}
