"""The package's public surface: every name in `covmoments.__all__` is an
attribute of the package and is listed once, so an export that a deletion
leaves behind fails here rather than in `from covmoments import *`; no
brute-force check that lives in the test oracles is exported; and every
input check raises the one input-error type."""

import ast
from collections import Counter
from pathlib import Path

import covmoments
import oracles


def test_all_names_are_exported_once():
    repeated = sorted(name for name, count in Counter(covmoments.__all__).items() if count > 1)
    missing = sorted(name for name in covmoments.__all__ if not hasattr(covmoments, name))
    assert (repeated, missing) == ([], [])


def test_test_oracles_are_not_exported():
    defined = {name for name, obj in vars(oracles).items() if getattr(obj, "__module__", None) == "oracles"}
    assert "verify_containment" in defined
    assert sorted(defined & set(covmoments.__all__)) == []
    assert sorted(name for name in defined if hasattr(covmoments, name)) == []


def test_input_checks_raise_input_error():
    # `main` maps InputError, not ValueError, to exit 2, so an input check
    # that raised a bare ValueError would exit 1 as if the program were at
    # fault; ConfigError was the CLI's second name for the same thing
    found = []
    for path in sorted(Path(covmoments.__file__).parent.glob("*.py")):
        text = path.read_text()
        if "ConfigError" in text:
            found.append(f"{path.name}: ConfigError")
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(raised, ast.Name) and raised.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}: raise ValueError")
    assert found == []
    assert issubclass(covmoments.InputError, ValueError)
