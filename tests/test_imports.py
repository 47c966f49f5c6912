"""Each command loads only the modules it runs; `import polyadic` resolves names lazily.

Every check runs in a fresh interpreter, since the test process may have
imported any module already.
"""

import json
import os
import subprocess
import sys

import polyadic

RUN_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
PRINT_LOADED = ("import json, sys\n"
                "loaded = sorted(m for m in sys.modules if m.startswith('polyadic.'))\n"
                "print(json.dumps(loaded), file=sys.stderr)\n")


def loaded_after(script: str) -> set[str]:
    """Names of the polyadic submodules in sys.modules once `script` has run."""
    proc = subprocess.run([sys.executable, "-c", script + "\n" + PRINT_LOADED],
                          capture_output=True, text=True, env=RUN_ENV, check=True)
    return {name.removeprefix("polyadic.")
            for name in json.loads(proc.stderr.splitlines()[-1])}


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
