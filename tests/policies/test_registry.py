"""Registry hardening: duplicate rejection, deterministic name order."""

import pytest

from repro.errors import PolicyError
from repro.policies import LRU
from repro.policies.registry import (
    _FACTORIES,
    PolicyContext,
    make_policy,
    policy_names,
    register_policy,
)


class TestRegisterPolicy:
    def test_duplicate_name_rejected(self):
        with pytest.raises(PolicyError, match="already registered"):
            register_policy("LRU")(lambda ctx: LRU())
        # The original factory survives the failed registration.
        assert isinstance(make_policy("LRU", PolicyContext()), LRU)

    def test_new_name_registers(self, monkeypatch):
        monkeypatch.setattr(
            "repro.policies.registry._FACTORIES", dict(_FACTORIES)
        )
        register_policy("Test-Only")(lambda ctx: LRU())
        assert "Test-Only" in policy_names()


class TestPolicyNames:
    def test_sorted_and_duplicate_free(self):
        names = policy_names()
        assert names == sorted(set(names))

    def test_unknown_name_lists_choices(self):
        with pytest.raises(PolicyError, match="unknown policy"):
            make_policy("No-Such-Policy", PolicyContext())
