"""The package's public surface: every name in `covmoments.__all__` is an
attribute of the package and is listed once, so an export that a deletion
leaves behind fails here rather than in `from covmoments import *`; and no
brute-force check that lives in the test oracles is exported."""

from collections import Counter

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
