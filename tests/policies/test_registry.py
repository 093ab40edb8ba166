"""Registry and policy contract: every registered name builds a policy
reporting that name, every public policy class is reachable from the
registry, the class contract is enforced at definition, and the
paper's policies keep their replay kernels."""

import importlib
import pkgutil
from collections import defaultdict, deque

import numpy as np
import pytest

import repro.policies
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.errors import PolicyError
from repro.policies import LRU, ReplacementPolicy
from repro.policies.registry import (
    _FACTORIES,
    PolicyContext,
    make_policy,
    policy_names,
    register_policy,
)
from repro.popt.policy import POPT
from repro.popt.topt import TOPT
from repro.sim.kernels import KERNEL_TABLE


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


def synthetic_context():
    """A context every registered factory can build from: oracle
    policies get a one-element next-use array, GRASP token ranges."""
    return PolicyContext(
        next_use=np.zeros(1, np.int64), hot_range=(0, 1), warm_range=(1, 2)
    )


def public_policy_classes():
    """Every public ReplacementPolicy subclass under repro.policies."""
    for module in pkgutil.iter_modules(repro.policies.__path__):
        importlib.import_module(f"repro.policies.{module.name}")
    found, pending = set(), [ReplacementPolicy]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro.policies.") and not (
                sub.__name__.startswith("_")
            ):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__qualname__)


class TestRegisteredPolicies:
    @pytest.mark.parametrize("name", policy_names())
    def test_builds_a_policy_under_its_key(self, name):
        policy = make_policy(name, synthetic_context())
        assert isinstance(policy, ReplacementPolicy)
        assert policy.name == name

    def test_every_public_policy_class_is_built_by_some_factory(self):
        built = set()
        for name in policy_names():
            built.update(type(make_policy(name, synthetic_context())).__mro__)
        classes = public_policy_classes()
        assert classes
        assert [cls for cls in classes if cls not in built] == []

    def test_name_other_than_key_rejected(self, monkeypatch):
        monkeypatch.setattr(
            "repro.policies.registry._FACTORIES", dict(_FACTORIES)
        )
        register_policy("LRU-Alias")(lambda ctx: LRU())
        with pytest.raises(PolicyError, match="reports name 'LRU'"):
            make_policy("LRU-Alias", PolicyContext())


class TestPolicyContract:
    """The contract is checked when a policy class is defined."""

    def test_missing_name_rejected(self):
        with pytest.raises(PolicyError, match="`name`"):
            class Nameless(ReplacementPolicy):
                def choose_victim(self, set_idx, ctx):
                    return 0

    def test_missing_choose_victim_rejected(self):
        with pytest.raises(PolicyError, match="choose_victim"):
            class Victimless(ReplacementPolicy):
                name = "Victimless"

    @pytest.mark.parametrize(
        "value", [[], {}, set(), deque(), defaultdict(list)],
        ids=["list", "dict", "set", "deque", "defaultdict"],
    )
    def test_mutable_class_value_rejected(self, value):
        with pytest.raises(PolicyError, match="Shared.table is a mutable"):
            class Shared(LRU):
                table = value

    def test_mutable_value_in_abstract_base_rejected(self):
        with pytest.raises(PolicyError, match="mutable"):
            class _Base(ReplacementPolicy):
                table = []

    def test_abstract_base_defers_name_and_victim(self):
        class _Base(ReplacementPolicy):
            WAYS = (0, 1)

        class Concrete(_Base):
            name = "Concrete"

            def choose_victim(self, set_idx, ctx):
                return self.WAYS[0]

        assert Concrete().name == "Concrete"

    def test_inherited_name_and_victim_accepted(self):
        class Refined(LRU):
            pass

        assert Refined().name == "LRU"

    def test_init_reading_geometry_raises(self):
        class Eager(LRU):
            def __init__(self):
                super().__init__()
                self.table = [0] * self.num_sets

        with pytest.raises(AttributeError, match="num_sets"):
            Eager()

    def test_bind_sets_geometry(self):
        policy = LRU()
        SetAssociativeCache(
            CacheConfig("LLC", num_sets=4, num_ways=2), policy
        )
        assert (policy.num_sets, policy.num_ways) == (4, 2)


class TestKernelTable:
    def test_next_ref_policies_have_kernels(self):
        assert KERNEL_TABLE[TOPT][0] == "t-opt"
        assert KERNEL_TABLE[POPT][0] == "p-opt"

    def test_entries_are_named_callables(self):
        for policy_type, (name, fn) in KERNEL_TABLE.items():
            assert issubclass(policy_type, ReplacementPolicy)
            assert isinstance(name, str) and callable(fn)
