"""The record types: immutable named tuples whose validated kinds re-check
every field on ``_replace``, and no dataclass anywhere in the library."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import unital_otto
from unital_otto import (
    ControlSpec,
    CycleParams,
    LZParams,
    MeasurementChannel,
)
from unital_otto.qstate import _Checked

from references import DensityMatrix

LAYERS = ("qstate", "formulas", "trajectory", "cumulants", "analysis", "landauzener")
SRC = Path(__file__).resolve().parents[1] / "src" / "unital_otto"

# every public tuple type a layer defines, exported or not, and the tests'
# own validated type, DensityMatrix
RECORDS = sorted(
    [
        value
        for module in (importlib.import_module(f"unital_otto.{layer}") for layer in LAYERS)
        for name, value in vars(module).items()
        if not name.startswith("_") and isinstance(value, type) and issubclass(value, tuple)
        and value.__module__ == module.__name__
    ] + [DensityMatrix],
    key=lambda cls: cls.__name__,
)

# each validated type: a valid instance, and one field set outside its checks
VALIDATED = {
    CycleParams: (CycleParams(0.7, 1.0, 2.0, 0.1, 0.2), "delta", 5.0),
    DensityMatrix: (DensityMatrix(np.diag([0.3, 0.7]), gap=2.0), "mat", np.diag([0.3, 0.8])),
    MeasurementChannel: (MeasurementChannel(1.0, 0.1), "alpha_m", 4.0),
    ControlSpec: (ControlSpec(0.3, "plus"), "branch", "both"),
    LZParams: (LZParams.build(0.5, 1.0, 2.0, 0.1), "delta", 0.2),
}


def _error(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_every_record_type_is_listed():
    assert len(RECORDS) == 12
    # a type that wraps the constructor namedtuple generates in checks of
    # its own needs a _replace case below
    custom = {cls for cls in RECORDS if "__new__" in vars(cls) and tuple not in cls.__bases__}
    assert custom == set(VALIDATED)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    if cls in VALIDATED:
        record, field, bad = VALIDATED[cls]
    else:
        record = cls._make([0.0] * len(cls._fields))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], record[0])
    # no instance dictionary: no attribute can be added either
    with pytest.raises(AttributeError):
        record.extra = 1.0
    if cls in VALIDATED:
        fields = record._asdict() | {field: bad}
        built = _error(lambda: cls(**fields))
        assert built is not None
        assert _error(lambda: record._replace(**{field: bad})) == built
        assert _error(lambda: cls._make(fields.values())) == built


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # frozen dataclasses generate their methods with exec at import time,
    # which was most of the package's import cost
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported


@pytest.mark.parametrize(
    "build, arrays",
    [
        (DensityMatrix, [np.diag([0.3, 0.7]).astype(complex)]),
    ],
    ids=["DensityMatrix"],
)
def test_read_only_fields_leave_the_callers_arrays_writable(build, arrays):
    record = build(*arrays)
    assert all(arr.flags.writeable for arr in arrays)
    fields = [field for field in record if isinstance(field, np.ndarray)]
    assert fields and not any(field.flags.writeable for field in fields)


def test_readme_lists_the_validated_types():
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"validated types \(([^)]*)\)", readme).group(1)
    # __all__, as the array layer's names are imported on first access
    exported = {
        name for name in unital_otto.__all__
        if isinstance(getattr(unital_otto, name), type)
        and issubclass(getattr(unital_otto, name), _Checked)
    }
    assert set(re.findall(r"`(\w+)`", listed)) == exported
