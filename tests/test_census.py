"""The committed census list (``tests/census_unreached.txt``) stays
true to ``src/``: every entry names a function that exists, gives one
of the allowed reasons, and the list is sorted.  One test per entry, so
a failure names the entry.  Re-running the census itself
(``python tests/census.py --check``) is the nightly job's."""

import pytest

from census import REASONS, defined, load_list

ENTRIES = load_list()


@pytest.fixture(scope="module")
def names():
    return set(defined().values())


@pytest.mark.parametrize("name, why", ENTRIES, ids=[n for n, _ in ENTRIES])
def test_every_listed_function_exists_with_an_allowed_reason(names, name, why):
    assert name in names
    assert why in REASONS


def test_the_list_is_sorted_without_duplicates():
    names = [name for name, _ in ENTRIES]
    assert names == sorted(set(names))
