import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isingchi
from isingchi.chi import ChiGrid, Peak
from isingchi.correlations import CorrelationTable, build_table
from isingchi.frustrated import FrustratedModel
from isingchi.oracle import CylinderSpec, FiniteLatticeSpec
from isingchi.quasiperiodic import FibonacciSpec
from isingchi.verify import IdentityCheck, VerificationReport

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
    assert len(names) == len(set(names)) == 30
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


def test_package_stays_within_the_line_ceiling():
    # the round's ceiling: src/ is to end it below the 2,796 lines it began at
    lines = sum(len(p.read_text().splitlines())
                for p in _PACKAGE_DIR.glob("*.py"))
    assert lines <= 2796, lines


def test_no_module_imports_mpmath():
    # every module runs on the standard library and numpy; tests may still
    # use mpmath as a reference.  Records are namedtuples: dataclasses and
    # the inspect module it loads would cost every command ~10 ms to start
    banned = {"mpmath", "dataclasses", "inspect"}
    for path in sorted(_PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            assert not banned & set(roots), "%s:%d" % (path.name, node.lineno)


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


_Q = np.linspace(-np.pi, np.pi, 512, endpoint=False)
# each record with one value per field, in field order
_RECORDS = [
    (CorrelationTable, dict(radius=2, C=((1, 2), (2, 1)), C_bar=((1,),),
                            precision_bits=64, k_requested=0.5)),
    (FrustratedModel, dict(S=1.0, version="a")),
    (IdentityCheck, dict(identity="quadratic", location="(1 2)",
                         residual=1e-12, tolerance=1e-9, passed=True)),
    (VerificationReport, dict(rows=())),
    (ChiGrid, dict(nx=512, ny=512, qx=_Q, qy=_Q, values=np.ones((512, 512)),
                   window_radius=16, tail_bound=1e-9, source="uniform")),
    (Peak, dict(qx=0.0, qy=np.pi, value=2.5, commensurate=True)),
    (FibonacciSpec, dict(j=1, gamma=0.25)),
    (FiniteLatticeSpec, dict(width=2, height=1, bonds=((0, 1, 0.3),))),
    (CylinderSpec, dict(W=4, K=0.3, ring_mode="columnar")),
]


@pytest.mark.parametrize("cls, fields", _RECORDS,
                         ids=[cls.__name__ for cls, _ in _RECORDS])
def test_record_behaviour(cls, fields):
    # the records are namedtuples: positional and keyword construction,
    # field order and read-only fields as the frozen dataclasses had them
    record = cls(**fields)
    assert type(record) is cls and record._fields == tuple(fields)
    assert record == cls(*fields.values())
    for name, value in fields.items():
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)


def test_record_defaults():
    assert FibonacciSpec(j=0).gamma == 0.0
    assert CylinderSpec(4, 0.3).ring_mode == "uniform"


@pytest.mark.parametrize("record, bad, good", [
    (CylinderSpec(4, 0.3), dict(W=40), dict(W=6, ring_mode="columnar")),
    (FrustratedModel(1.0, "a"), dict(version="z"), dict(S=2.0)),
    (FibonacciSpec(1), dict(gamma=5.0), dict(gamma=0.5)),
], ids=["CylinderSpec", "FrustratedModel", "FibonacciSpec"])
def test_replace_validates_like_the_constructor(record, bad, good):
    # _replace builds through _make, which these records route through
    # __new__, so it refuses what the constructor refuses, in its words
    fields = dict(record._asdict(), **bad)
    with pytest.raises(ValueError) as built:
        type(record)(**fields)
    with pytest.raises(type(built.value), match="^%s$" % re.escape(
            str(built.value))):
        record._replace(**bad)
    replaced = record._replace(**good)
    assert type(replaced) is type(record)
    assert replaced == type(record)(**dict(record._asdict(), **good))


def test_chi_grid_repr_leaves_out_the_arrays():
    grid = ChiGrid(**_RECORDS[4][1])
    assert repr(grid) == ("ChiGrid(nx=512, ny=512, window_radius=16, "
                          "tail_bound=1e-09, source='uniform')")


def test_table_floats_and_residual_report_are_cached():
    # the stored floats cannot be assigned; the report is scanned once, kept
    table = build_table(0.5, 4)
    for fam in (table.C, table.C_bar):
        assert type(fam[2][3]) is float and fam[2][3] == fam[3][2]
        with pytest.raises(TypeError):
            fam[2][3] = 0.0
        with pytest.raises(TypeError):
            fam[2] = fam[3]
    report = table.residual_report
    assert vars(table)["residual_report"] is report is table.residual_report
