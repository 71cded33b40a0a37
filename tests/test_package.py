"""The package's public surface: every name in `covmoments.__all__` is an
attribute of the package and is listed once, so an export that a deletion
leaves behind fails here rather than in `from covmoments import *`."""

from collections import Counter

import covmoments


def test_all_names_are_exported_once():
    repeated = sorted(name for name, count in Counter(covmoments.__all__).items() if count > 1)
    missing = sorted(name for name in covmoments.__all__ if not hasattr(covmoments, name))
    assert (repeated, missing) == ([], [])
