"""The benchmark's workloads call covmoments by name; a rename must show here,
not only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

import pytest

from covmoments.cli import config_to_ensemble, load_config
from covmoments.ensembles import entry_second_moment

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def covmoments_names(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for every covmoments attribute the source reads."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> module path
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("covmoments"):
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(path)
                except ImportError:
                    names.add((node.module, alias.name))  # a name, not a submodule
                else:
                    modules[alias.asname or alias.name] = path
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def test_workloads_read_existing_names():
    names = covmoments_names(WORKLOADS.read_text())
    # the parse itself must find the calls the quadrature and exact workloads make
    assert {
        ("covmoments.moments", "moment_profile"),
        ("covmoments.moments", "word_structure"),
        ("covmoments.hypergraphs", "enumerate_ss_words"),
        ("covmoments.cli", "main"),
    } <= names
    missing = sorted(
        f"{module}.{attr}" for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    )
    assert not missing, f"perfbench/workloads.py reads names covmoments lacks: {missing}"


def test_a_renamed_name_is_reported():
    names = covmoments_names("from covmoments import moments\nmoments.no_such_name(1)\n")
    assert names == {("covmoments.moments", "no_such_name")}
    assert not hasattr(importlib.import_module("covmoments.moments"), "no_such_name")


@pytest.mark.parametrize("name", ["fig1", "fig2", "mp"])
def test_shipped_configs_sum_the_second_moment(name):
    # the simulate gate reads entry_second_moment(cfg).sum() for each shipped config
    cfg, _ = config_to_ensemble(load_config(str(ROOT / "configs" / f"{name}.cfg")))
    total = entry_second_moment(cfg)
    assert total.sum() == total
    assert total.sum() / cfg.p > 0
