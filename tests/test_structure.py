"""Guards on the shape of the library: its source, checked with `ast`, its
public names, its error classes and the line rule its text formats share."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import parlorproofs
from parlorproofs import (InputError, load_rubric, parse_card, parse_graph,
                          parse_marks)
from parlorproofs.errors import QUOTE_LIMIT

SRC = Path(__file__).resolve().parent.parent / "src" / "parlorproofs"
MODULES = sorted(SRC.glob("*.py"))


# Every name `parlorproofs` exports.  A name joins only when the CLI, README
# or the benchmark calls it, and a deleted one cannot come back unnoticed.
EXPORTS = sorted("""
    AceRule Card CardParseError DeckSpec Hand InvalidDeckError STANDARD_DECK
    Wild binomial parse_card parse_hand
    InputError
    DegenerateGraphError Edge EulerianStatus GraphFormatError Multigraph
    Trail degree_map eulerian_status find_trail impossibility_proof
    odd_vertices parse_graph
    HandCategory Probability WildCardsUnsupportedError WinnerReport classify
    classify_with_wilds combinatorial_proof count_category determine_winner
    probability
    EnumerationCapError VerificationReport tally_all verify_closed_forms
    ProofDocument ProofStep StepKind
    MarkSheet MarkSheetError PointRubric RubricFormatError ScoreReport
    TraitRubric load_rubric parse_marks score
""".split())


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"hands.py", "oracle.py", "graphs.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "parlorproofs"
        if not internal:
            continue
        private = [a.name for a in node.names if a.name.startswith("_")]
        assert not private, f"{path.name}:{node.lineno} imports {private}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_lru_cache(path):
    for node in ast.walk(_tree(path)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None)
        assert name != "lru_cache", f"{path.name}:{node.lineno} uses lru_cache"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "errors.py"],
    ids=lambda p: p.name)
def test_only_errors_splits_lines(path):
    # The text formats read lines through errors.content_lines, the one
    # place that cuts comments, skips blank lines and counts lines.
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute):
            assert node.attr != "splitlines", \
                f"{path.name}:{node.lineno} calls splitlines"


def _spelled_names(node) -> list:
    """The module, imported, attribute or variable names that one node of
    a module's tree spells out."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return ([alias.name for alias in node.names]
                + [getattr(node, "module", None) or ""])
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [node.id] if isinstance(node, ast.Name) else []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "oracle.py"],
    ids=lambda p: p.name)
def test_only_the_oracle_sizes_a_process_pool(path):
    # tally_all alone decides, from the deck, whether a pool pays and how
    # many processes it has; no other module names a pool or a CPU count.
    for node in ast.walk(_tree(path)):
        for name in _spelled_names(node):
            assert name not in ("ProcessPoolExecutor", "cpu_count") \
                and not name.startswith("concurrent"), \
                f"{path.name}:{node.lineno} names {name}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("hands.py", "oracle.py")],
    ids=lambda p: p.name)
def test_only_the_closed_forms_and_oracle_check_printability(path):
    # hands._count_terms is the closed forms' one gate and tally_all checks
    # its own deck; no other module restates the rule.
    for node in ast.walk(_tree(path)):
        assert "require_printable" not in _spelled_names(node), \
            f"{path.name}:{node.lineno} names require_printable"


@pytest.mark.parametrize("parse, good", [
    (parse_graph, "vertex A"),
    (load_rubric, "rubric trait T"),
    (parse_marks, 'award "c" 1'),
], ids=["graph", "rubric", "marks"])
def test_text_formats_share_the_line_rule(parse, good):
    head = f"# heading\n\n  \t\n{good}  # note\n"
    parse(head)
    with pytest.raises(InputError, match=r"^line 5: .* 'bogus'$"):
        parse(head + "bogus  # note\n")


@pytest.mark.parametrize("parse, text, quoted", [
    (parse_graph, "vertex A\nedge A " + "B" * 5000, "undeclared vertex 'B"),
    (load_rubric, "rubric trait T\n" + "x" * 5000, "unrecognized line 'x"),
    (parse_marks, 'award "c" 1.1.' + "1" * 5000, "not a number: '1.1."),
    (parse_card, "Z" * 5000, "unrecognized card token 'Z"),
], ids=["graph", "rubric", "marks", "card"])
def test_errors_quote_oversized_input_briefly(parse, text, quoted):
    with pytest.raises(InputError) as caught:
        parse(text)
    message = str(caught.value)
    assert quoted in message and len(message) < 160
    cut = 5000 - QUOTE_LIMIT + (4 if parse is parse_marks else 0)
    assert message.endswith(f"'... ({cut} more characters)")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_substitution_product(path):
    # Wild hands are decided by rule; a product over the deck's cards would
    # bring back the (V*S)^k substitution search.
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            names = [a.name for a in node.names]
            assert "product" not in names, f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("name", ["classify_pairs", "best_completion"])
def test_classifiers_read_module_names(name):
    # The oracle calls these once per class: an attribute lookup on an Enum
    # class goes through EnumType.__getattr__, and a comprehension builds a
    # frame, so each returns and tests the module's names instead.
    tree = _tree(SRC / "hands.py")
    [func] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == name]
    for node in ast.walk(func):
        assert not isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                     ast.GeneratorExp)), \
            f"hands.py:{node.lineno} builds a comprehension"
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert node.value.id not in ("HandCategory", "AceRule"), \
                f"hands.py:{node.lineno} looks up {node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_value_error_or_exception_raised(path):
    # Rejected input raises an InputError subclass, which the CLI maps to
    # exit 2; a bare ValueError would escape it as a traceback.
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else None
            assert name not in ("ValueError", "Exception"), \
                f"{path.name}:{node.lineno} raises {name}"


def _fresh_python(script, cwd=None) -> str:
    """stdout of `python -c script` in a new process that finds the package."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


def test_cli_start_does_not_import_the_process_pool():
    # tally_all imports concurrent.futures only when it starts a pool.
    assert _fresh_python("import sys, parlorproofs.cli; "
                         "print('concurrent.futures' in sys.modules)") == "False\n"


# A command loads only the modules it runs: a graph command no deck or hand
# code, a poker command no graph or rubric code.  No command loads
# dataclasses, whose import brings inspect, ast and dis, a process pool, or
# fractions, which only the `fraction`, `total` and `maximum` properties
# import.
NEVER_LOADED = {"dataclasses", "inspect", "concurrent.futures", "fractions"}
TRAIT_RUBRIC = 'rubric trait T\ntrait "t"\n' + "".join(
    f'level {k} "l{k}"\n' for k in range(1, 6))


@pytest.mark.parametrize("argv, unwanted", [
    (["graph", "analyze", str(SRC / "data" / "konigsberg.graph")],
     {"parlorproofs.deck", "parlorproofs.hands", "parlorproofs.oracle",
      "parlorproofs.rubric"}),
    (["poker", "count", "full-house"],
     {"parlorproofs.graphs", "parlorproofs.rubric", "parlorproofs.oracle"}),
    (["poker", "winner", "A=flush", "B=pair"],
     {"parlorproofs.graphs", "parlorproofs.rubric", "parlorproofs.oracle"}),
    (["poker", "proof", "flush"],
     {"parlorproofs.graphs", "parlorproofs.rubric", "parlorproofs.oracle"}),
    (["poker", "verify", "--values", "5", "--suits", "2"],
     {"parlorproofs.graphs", "parlorproofs.rubric"}),
    (["rubric", "score", "RUBRIC", "MARKS"],
     {"parlorproofs.deck", "parlorproofs.hands", "parlorproofs.oracle",
      "parlorproofs.graphs"}),
], ids=["graph", "poker-count", "poker-winner", "poker-proof", "poker-verify",
        "rubric"])
def test_command_loads_only_its_modules(argv, unwanted, tmp_path):
    (tmp_path / "RUBRIC").write_text(TRAIT_RUBRIC)
    (tmp_path / "MARKS").write_text('level "t" 3\n')
    status, *loaded = _fresh_python(
        "import io, sys; from parlorproofs import cli; "
        f"status = cli.run({argv!r}, out=io.StringIO()); "
        "print(status, *sorted(sys.modules))", cwd=tmp_path).split()
    assert status == "0"
    assert not (NEVER_LOADED | unwanted) & set(loaded)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # Value types are NamedTuples or __slots__ classes; see NEVER_LOADED.
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert "dataclasses" not in names, f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("name", EXPORTS)
def test_export_imports_from_the_package(name):
    namespace = {}
    exec(f"from parlorproofs import {name}", namespace)
    assert namespace[name] is getattr(parlorproofs, name)


def test_exports_are_exactly_the_listed_names():
    # The package loads its exports on first use, so dir(), not vars(),
    # lists them.
    exported = {name for name in dir(parlorproofs)
                if not name.startswith("_")
                and not isinstance(getattr(parlorproofs, name),
                                   types.ModuleType)}
    assert exported == set(EXPORTS)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        parlorproofs.Nope
    with pytest.raises(ImportError):
        exec("from parlorproofs import Nope", {})


def _exception_classes():
    """Every exception class that a module of the package defines."""
    found = []
    for path in MODULES:
        module = importlib.import_module(
            "parlorproofs" if path.stem == "__init__" else
            f"parlorproofs.{path.stem}")
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    found.append(cls)
    return found


@pytest.mark.parametrize("cls", _exception_classes(),
                         ids=lambda cls: cls.__name__)
def test_rejections_are_input_errors(cls):
    assert issubclass(cls, InputError)
