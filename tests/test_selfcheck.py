"""The trial loop of the randomized identity checks."""

import random

from logfol import selfcheck
from logfol.selfcheck import CheckResult


def test_run_all_stops_each_check_at_its_first_failure(monkeypatch):
    draws = {}

    def passing(rng):
        draws.setdefault("passing", []).append(rng.random())

    def failing(rng):
        draws.setdefault("failing", []).append(rng.random())
        if len(draws["failing"]) == 3:
            return "broken"

    monkeypatch.setattr(selfcheck, "ALL_CHECKS", (("a", passing), ("b", failing)))
    assert selfcheck.run_all(seed=5, trials=10) == [
        CheckResult("a", True, 10), CheckResult("b", False, 3, "broken")]
    # each check draws its trials, one after another, from its own stream
    for name, key, count in (("a", "passing", 10), ("b", "failing", 3)):
        rng = random.Random("5:%s" % name)
        assert draws[key] == [rng.random() for _ in range(count)]


def test_an_internal_error_fails_its_check(monkeypatch):
    def crash(fol):
        raise RuntimeError("flat unit certificate failed")

    monkeypatch.setattr(selfcheck.semistability, "find_flat_unit", crash)
    results = {r.name: r for r in selfcheck.run_all(seed=0, trials=5)}
    assert results["flat-unit"] == CheckResult("flat-unit", False, 1,
                                               "flat unit certificate failed")
    assert all(r.ok for name, r in results.items() if name != "flat-unit")
