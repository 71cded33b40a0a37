"""The package's public surface: every name in `covmoments.__all__` is an
attribute of the package and is listed once, so an export that a deletion
leaves behind fails here rather than in `from covmoments import *`; no
brute-force check that lives in the test oracles is exported; every input
check raises the one input-error type; README's config schema lists the
keys a config may hold; and README's library example runs."""

import ast
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import covmoments
import oracles
import pytest
from covmoments import cli, ensembles


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


def test_readme_config_keys_match_the_schema():
    # every key of README's "Simulation configs" block, commented ones too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Simulation configs", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r"^(?:# )?(\w+) *=", block, flags=re.MULTILINE))
    # the one field table, with c_seq spelled c2 and c4, plus the run's K and bins
    schema = ensembles._FIELDS.keys() - {"c_seq"} | {"c2", "c4", "K", "bins"}
    assert documented == schema
    # and config_to_ensemble takes each of them: only the added key is unknown
    with pytest.raises(covmoments.InputError, match=r"^unknown config keys: \['bogus'\]$"):
        cli.config_to_ensemble(dict.fromkeys([*documented, "bogus"], 1))


def test_readme_library_surface_runs():
    # README's "Library surface" block runs as written, and two of its
    # statements give the values their comments state
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library surface", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        code = ast.unparse(node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert values["cm.mp_moment(3, Fraction(1, 2))"] == Fraction(11, 4)
    assert len(values["cm.enumerate_ss_words(4)"]) == 57
