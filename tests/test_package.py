"""The package's lazy exports: each public name is its submodule's binding."""

import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import weakch


def test_every_export_is_its_submodule_binding():
    assert weakch.__all__[-1] == "__version__"
    for name in weakch.__all__[:-1]:
        module = importlib.import_module(f"weakch.{weakch._EXPORTS[name]}")
        assert getattr(weakch, name) is getattr(module, name), name


def test_exports_are_looked_up_on_every_access(monkeypatch):
    from weakch import common_cause

    assert weakch.validate_loc is common_cause.validate_loc
    assert "validate_loc" not in vars(weakch)  # nothing is cached here
    monkeypatch.setattr(common_cause, "validate_loc", sentinel := object())
    assert weakch.validate_loc is sentinel


def test_star_import_binds_every_export():
    namespace = {}
    exec("from weakch import *", namespace)
    for name in weakch.__all__:
        assert namespace[name] is getattr(weakch, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weakch.no_such_name
    assert not hasattr(weakch, "cli_main")


def test_moved_names_are_still_reexported():
    # the tests import WeakChError from spaces; the benchmark tracer
    # wraps common_cause.ch_atom_oracle.
    import weakch.common_cause as cc
    from weakch import inequalities
    from weakch.spaces import WeakChError

    assert WeakChError is inequalities.WeakChError is weakch.WeakChError
    for name in ("ch_atom_oracle", "OracleResult", "UnnormalizedInput", "_NEGATIVE_ATOMS"):
        assert getattr(cc, name) is getattr(inequalities, name), name
    assert issubclass(cc.UnnormalizedInput, WeakChError)


def test_bare_import_loads_no_numpy_and_reaches_submodules():
    code = (
        "import sys, weakch\n"
        "print('numpy' in sys.modules, weakch.weak_ch_bounds(0.0), 'numpy' in sys.modules)\n"
        "print(weakch.simulate.sample_runs is weakch.sample_runs, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False (-1.0, 0.0) False", "True True"]


def test_base_error_and_oracle_load_no_numpy():
    # both are defined in the numpy-free inequalities
    code = "import sys, weakch\nweakch.WeakChError, weakch.ch_atom_oracle\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_readme_library_quick_start_runs(capsys):
    # the section's one python block: an API change that breaks it fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    checks, validators = capsys.readouterr().out.splitlines()
    assert checks == "True"
    max_abs, joint_ok = validators.split()
    assert float(max_abs) <= 1e-9 and joint_ok == "True"


def test_readme_command_lines_parse():
    # Each weakch line of the Command line block, comments stripped and
    # continuations joined, is parsed but not run: a flag that the CLI no
    # longer has fails here.
    from weakch.cli import _HANDLERS, _build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```\n(.*?)```", section, re.S)
    lines = (line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines())
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("weakch ")]
    assert {argv[0] for argv in commands} == set(_HANDLERS)
    for argv in commands:
        _build_parser().parse_args(argv)


def test_console_script_is_the_cli_main():
    # CI runs the installed weakch script; this ties its entry point to main
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    import weakch.cli

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["weakch"]
    module, _, attr = entry.partition(":")
    assert (module, attr) == ("weakch.cli", "main")
    assert getattr(importlib.import_module(module), attr) is weakch.cli.main
