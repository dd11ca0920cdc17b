"""The randomized identities of tests/identities.py, 200 seeded trials each."""

import pytest

from identities import ALL_CHECKS, first_failure


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_identity_holds_on_random_instances(name):
    assert first_failure(name, seed=1, trials=200) is None
