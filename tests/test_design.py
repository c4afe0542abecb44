"""Design rules of the package that a refactor could quietly undo.

The field owns the vector representation: only ``splfr.field`` may branch
on the kind of a field.  Every other module checks, packs, splits and
negates vectors through ``FieldContext`` methods, which behave alike over
GF(p) and GF(2^m), so each of them has one path for every field.

The audit's affine model owns the differencing: ``file_models`` takes the
differences against the offset once, when a model is built, and the
certificates only read its parts.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "splfr"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "field.py")


def test_the_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"engine.py", "audit.py", "cli.py"} <= names and "field.py" not in names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_field_reads_the_field_kind(path):
    reads = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "kind"
    ]
    assert reads == [], f"{path.name} reads a kind attribute on lines {reads}"


def test_the_certificates_take_no_differences():
    tree = ast.parse((PACKAGE / "audit.py").read_text())
    certificates = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_certificate")
    ]
    differences = {
        cert.name: [
            node.lineno
            for node in ast.walk(cert)
            if (isinstance(node, ast.Name) and node.id == "_sub")
            or (isinstance(node, ast.Attribute) and node.attr == "sub")
        ]
        for cert in certificates
    }
    assert len(differences) == 3
    assert not any(differences.values()), f"certificates take differences: {differences}"
