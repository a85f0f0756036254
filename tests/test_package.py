"""The package's lazy exports: each public name is its submodule's binding."""

import importlib
import subprocess
import sys

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
    # tests/helpers.py imports WeakChError from spaces; the benchmark tracer
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
