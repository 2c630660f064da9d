import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import isingchi

_RE_EXPORTED = ("elliptic", "couplings", "correlations", "frustrated",
                "quasiperiodic", "chi")
_PACKAGE_DIR = Path(isingchi.__file__).parent


def _exports():
    """{name: the object its module binds} over the re-exported modules."""
    modules = [importlib.import_module("isingchi." + m) for m in _RE_EXPORTED]
    return {name: getattr(module, name)
            for module in modules for name in module.__all__}


def _module_names():
    return sorted(n for module in _RE_EXPORTED for n in
                  importlib.import_module("isingchi." + module).__all__)


def test_all_is_the_union_of_the_modules_lists():
    names = _module_names()
    assert len(names) == len(set(names)) == 31
    assert isingchi.__all__ == names


def test_star_import_binds_every_name():
    namespace = {}
    exec("from isingchi import *", namespace)
    for name, value in _exports().items():
        assert namespace[name] is value


def test_dir_lists_every_name():
    assert set(_exports()) <= set(dir(isingchi))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        isingchi.no_such_name
    assert not hasattr(isingchi, "no_such_name")


def _heavy_modules_loaded_by(module):
    """numpy, mpmath and scipy, those a fresh `import module` loads."""
    code = ("import sys, %s\n"
            "print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'numpy', 'mpmath', 'scipy'}))" % module)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_neither_numpy_nor_mpmath():
    assert _heavy_modules_loaded_by("isingchi") == "[]\n"


def test_verify_import_loads_no_numpy():
    # its suites import numpy, the oracle and isingchi.chi when they run,
    # so a module-level import would make `verify elliptic` pay for numpy
    assert _heavy_modules_loaded_by("isingchi.verify") == "[]\n"


def test_no_module_imports_mpmath():
    # every module runs on the standard library and numpy; tests may still
    # use mpmath as a reference
    for path in sorted(_PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            assert "mpmath" not in roots, "%s:%d" % (path.name, node.lineno)


# every module of the package but the `python -m` entry point, which runs
# the CLI when imported
@pytest.mark.parametrize("module", ["isingchi"] + sorted(
    "isingchi." + p.stem for p in _PACKAGE_DIR.glob("*.py")
    if not p.stem.startswith("__")))
def test_module_imports_alone(module):
    # lazy imports can hide a cycle until one module is imported first;
    # import each on its own in a fresh interpreter and resolve its names
    code = ("import importlib, sys\n"
            "module = importlib.import_module(sys.argv[1])\n"
            "for name in getattr(module, '__all__', ()):\n"
            "    getattr(module, name)\n")
    proc = subprocess.run([sys.executable, "-c", code, module],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
