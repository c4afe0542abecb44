"""Design rules of the package that a refactor could quietly undo.

The field owns the vector representation: only ``splfr.field`` may branch
on the kind of a field.  Every other module checks, packs, splits and
negates vectors through ``FieldContext`` methods, which behave alike over
GF(p) and GF(2^m), so each of them has one path for every field.

The audit's model is one formal run of the engine: only ``_formal_run``
refers to ``place``, ``deliver`` or ``decode``, so no certificate and no
``enumerate_*`` function calls the engine, and no engine call per probe
point or per atom comes back.  That run's context, ``audit._Formal``,
defines every context method that ``engine.py`` calls, but the ones the
run never reaches, and nothing more: each name it defines is read off the
formal context in ``engine.py`` or ``audit.py``.  The certificates read the run's
coefficients and take no differences: the decoding errors are taken once,
in the run.

Over GF(2^m) the kernel multiplies through window tables: only
``field._build_rows``, the scalar product table, calls ``translate``.
The kernel has one pick rule: in ``field.py`` only ``_gather`` indexes a
pick, so ``gather`` and every layer of ``gathered`` refuse the same picks.
A GF(2^m) vector is its bytes alone: ``field.Packed`` subclasses no
built-in sequence, so no kernel output builds a tuple that nothing reads,
and no module but ``field.py`` calls a ``Packed`` constructor.

The audit has one eliminator: only ``audit._eliminate`` calls a context's
``inv``, so every rank test and coset name goes through it, and
``FieldContext`` defines no dense ``echelon`` or ``reduce``; the dense
elimination is the tests' reference (``tests/oracle.py``).

The t-subset curve has one general expansion: ``tradeoff._man_pieces``
builds every piece outside the fused loop ``_man_forms``, and
``_reduced`` alone reduces one.  No per-end helper (``_man_corner``,
``_man_point``, ``_theta_form``) or ``_man_segments`` is left; the generic
pieces of the hull are the tests' reference (``tests/oracle.py``).

``Randomness`` owns the layout of the randomness r: the audit builds every
value of r through ``Randomness.of``, never through the constructor.
``Randomness.effective`` owns the masking of r by mode: the audit reads no
mode's key flags, and its walk follows the run, in which a symbol of r that
the mode masks has no slot.

The command line has one report path: in ``cli.py`` only ``main`` emits a
report or writes to stderr, so each subcommand returns its report and
summary and none prints them itself.

No code in the package serves only the tests: every name a module defines
is referenced from another line of the package or of the benchmark.
"""

import ast
import re
from pathlib import Path

import pytest

from splfr.field import Packed

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splfr"
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


def test_only_the_formal_run_runs_the_engine():
    # so no certificate and no enumerate_* function calls the engine
    engine = ("place", "deliver", "decode")
    callers = [
        getattr(node, "name", f"line {node.lineno}")
        for node in ast.parse((PACKAGE / "audit.py").read_text()).body
        if any(
            (isinstance(inner, ast.Name) and inner.id in engine)
            or (isinstance(inner, ast.Attribute) and inner.attr in engine)
            for inner in ast.walk(node)
        )
    ]
    assert callers == ["_formal_run"], callers


def callers(node, attr, inside=None):
    """The name of the function around each call of an ``attr`` attribute under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            yield from callers(child, attr, getattr(child, "name", inside))
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == attr):
            yield inside or f"line {child.lineno}"
        yield from callers(child, attr, inside)


def test_one_eliminator():
    assert set(callers(ast.parse((PACKAGE / "audit.py").read_text()), "inv")) == {"_eliminate"}
    field = next(
        node
        for node in ast.parse((PACKAGE / "field.py").read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "FieldContext"
    )
    methods = {item.name for item in field.body if isinstance(item, ast.FunctionDef)}
    assert not methods & {"echelon", "reduce"}, "FieldContext eliminates again"


def test_one_expansion_of_the_t_subset_pieces():
    tree = ast.parse((PACKAGE / "tradeoff.py").read_text())
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"_man_pieces", "_reduced"} <= names
    assert not names & {"_man_segments", "_man_point", "_man_corner", "_theta_form"}


def test_only_the_product_table_translates_bytes():
    # the GF(2^m) kernel reads window tables; bytes.translate builds the
    # product rows of scalar mul and inv, and no per-term path beside the kernel
    translating = {
        path.name: set(callers(ast.parse(path.read_text()), "translate"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: where for name, where in translating.items() if where} == {
        "field.py": {"_build_rows"}
    }


#: the names that ``field.py`` gives a sequence of picks: ``gather``'s
#: ``picks`` and each ``layer`` of ``gathered``
PICK_SEQUENCES = {"picks", "layer"}


def pick_readers(tree):
    """The functions of ``tree`` that index a pick or unpack one: a target of
    a loop or comprehension over a name of ``PICK_SEQUENCES``."""
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        targets = [
            node.target
            for node in ast.walk(function)
            if isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Name)
            and node.iter.id in PICK_SEQUENCES
        ]
        picks = {target.id for target in targets if isinstance(target, ast.Name)}
        if len(picks) < len(targets) or any(
            isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in picks
            for node in ast.walk(function)
        ):
            yield function.name


def test_only_the_gather_helper_reads_a_pick():
    readers = set(pick_readers(ast.parse((PACKAGE / "field.py").read_text())))
    assert readers == {"_gather"}, f"{sorted(readers - {'_gather'})} read picks beside _gather"


def test_a_packed_vector_is_its_bytes_alone():
    assert not issubclass(Packed, (tuple, list, bytes, bytearray))
    # a context's own subclass is ``_packed``; only the field constructs either
    constructing = {
        path.name: [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("Packed", "_packed")
        ]
        for path in MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    }
    assert {name: lines for name, lines in constructing.items() if lines} == {}


#: context methods that ``engine.py`` calls outside the formal run: drawing
#: random vectors, and scaling the demands of a refresh
UNREACHED_BY_THE_FORMAL_RUN = {"random_vector", "vec_scale"}


def on_a_context(node):
    return (isinstance(node, ast.Name) and node.id == "ctx") or (
        isinstance(node, ast.Attribute) and node.attr == "ctx"
    )


def read_off(root, context=on_a_context):
    """The attribute names read off a context anywhere under ``root``."""
    return {
        node.attr
        for node in ast.walk(root)
        if isinstance(node, ast.Attribute) and context(node.value)
    }


def test_the_formal_context_has_every_method_the_engine_calls():
    engine = ast.parse((PACKAGE / "engine.py").read_text())
    called = {
        node.func.attr
        for node in ast.walk(engine)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and on_a_context(node.func.value)
    }
    audit = ast.parse((PACKAGE / "audit.py").read_text())
    formal = next(
        node for node in audit.body if isinstance(node, ast.ClassDef) and node.name == "_Formal"
    )
    defined = {item.name for item in formal.body if isinstance(item, ast.FunctionDef)} | {
        target.id
        for item in formal.body
        if isinstance(item, ast.Assign)
        for target in item.targets
        if isinstance(target, ast.Name)
    }
    assert {"lincomb", "gathered", "gather", "join", "split", "pack"} <= called
    assert UNREACHED_BY_THE_FORMAL_RUN <= called - defined, "the exempt list is stale"
    missing = sorted(called - defined - UNREACHED_BY_THE_FORMAL_RUN)
    assert missing == [], f"engine.py calls context methods that _Formal lacks: {missing}"
    # the formal context in audit.py: ``self`` in _Formal, the ``ctx`` of the
    # run and the library's; elsewhere ``ctx`` is the audit's field
    def named(name):
        return lambda node: isinstance(node, ast.Name) and node.id == name

    run = next(node for node in audit.body if getattr(node, "name", None) == "_formal_run")
    read = read_off(engine) | read_off(run, named("ctx")) | read_off(formal, named("self"))
    read |= read_off(audit, lambda node: (
        getattr(node, "attr", None) == "ctx" and getattr(node.value, "attr", None) == "library"
    ))
    unread = sorted(name for name in defined - read if not name.startswith("__"))
    assert unread == [], f"_Formal defines names that no context read reaches: {unread}"


def test_the_audit_never_constructs_randomness():
    calls = [
        node.lineno
        for node in ast.walk(ast.parse((PACKAGE / "audit.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Randomness"
    ]
    assert calls == [], f"audit.py calls the Randomness constructor on lines {calls}"


def test_the_audit_reads_no_key_flags():
    reads = [
        node.lineno
        for node in ast.walk(ast.parse((PACKAGE / "audit.py").read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("security_keys_active", "privacy_keys_active")
    ]
    assert reads == [], f"audit.py reads a mode's key flags on lines {reads}"


def test_only_main_prints_reports_and_summaries():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )

    def prints(root):
        return {
            node
            for node in ast.walk(root)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "emit_report")
            or (isinstance(node, ast.Attribute) and node.attr == "stderr")
        }

    inside = prints(main)
    outside = sorted(node.lineno for node in prints(tree) - inside)
    assert inside, "main no longer emits the report or the summary"
    assert outside == [], f"cli.py emits a report or writes to stderr on lines {outside}"


def defined_names(path: Path):
    """(line, name) of each top-level name and each method that ``path`` defines."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            yield from (
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))


def test_every_defined_name_is_used_outside_the_tests():
    sources = {path: path.read_text().splitlines() for path in sorted(PACKAGE.glob("*.py"))}
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path in sources:
        for lineno, name in defined_names(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = (
                line
                for other, lines in sources.items()
                for i, line in enumerate(lines, 1)
                if (other, i) != (path, lineno)
            )
            if not word.search(bench) and not any(map(word.search, elsewhere)):
                unused.append(f"{path.name}:{lineno} {name}")
    assert unused == [], f"defined but used by no other line of src/ or perfbench/: {unused}"
