"""Property tests for the consistent-hash membership ring.

The three contracts runtime membership stands on, plus determinism:

* **minimal movement** — adding a member moves values only *to* it;
  removing a member moves only *its* values;
* **balance** — vnode replication keeps per-member load within a
  constant factor of the mean;
* **determinism** — placement derives from keyed seed streams, so it
  is identical across processes and ``PYTHONHASHSEED`` values (Python's
  salted ``hash`` must never leak into routing).
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.weakset.ring import (
    DEFAULT_REPLICAS,
    HashRing,
    RING_SPACE,
    ring_for_shards,
)

pytestmark = pytest.mark.membership

member_sets = st.sets(
    st.integers(min_value=0, max_value=200), min_size=1, max_size=12
)

value_lists = st.lists(
    st.one_of(
        st.text(max_size=16),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.tuples(st.text(max_size=6), st.integers(min_value=0, max_value=99)),
    ),
    max_size=40,
)


class TestMinimalMovement:
    @given(members=member_sets, values=value_lists, data=st.data())
    @settings(max_examples=120)
    def test_join_moves_values_only_to_the_new_member(
        self, members, values, data
    ):
        newcomer = data.draw(
            st.integers(min_value=0, max_value=300).filter(
                lambda m: m not in members
            )
        )
        before = HashRing(members)
        after = before.with_member(newcomer)
        for value in values:
            old_owner, new_owner = before.owner(value), after.owner(value)
            if new_owner != old_owner:
                assert new_owner == newcomer
            else:
                assert new_owner in members

    @given(members=member_sets, values=value_lists, data=st.data())
    @settings(max_examples=120)
    def test_leave_moves_only_the_leavers_values(self, members, values, data):
        if len(members) < 2:
            members = members | {max(members) + 1}
        leaver = data.draw(st.sampled_from(sorted(members)))
        before = HashRing(members)
        after = before.without_member(leaver)
        for value in values:
            old_owner, new_owner = before.owner(value), after.owner(value)
            if old_owner == leaver:
                assert new_owner != leaver
            else:
                assert new_owner == old_owner

    @given(members=member_sets, data=st.data())
    @settings(max_examples=60)
    def test_join_then_leave_is_identity(self, members, data):
        newcomer = data.draw(
            st.integers(min_value=0, max_value=300).filter(
                lambda m: m not in members
            )
        )
        ring = HashRing(members)
        assert ring.with_member(newcomer).without_member(newcomer) == ring


class TestBalance:
    def test_load_stays_within_a_constant_factor_of_the_mean(self):
        """With 64 vnodes/member the max/mean spread stays under ~1.6
        on a fixed 4000-value population for every small member count
        (deterministic: keyed placement, fixed values — no flake)."""
        values = [f"value-{i}" for i in range(4000)]
        for shards in (2, 3, 4, 6, 8):
            load = ring_for_shards(shards).load(values)
            mean = len(values) / shards
            assert max(load.values()) <= 1.6 * mean, (shards, load)
            assert min(load.values()) >= 0.4 * mean, (shards, load)

    def test_every_member_appears_in_load(self):
        load = HashRing([3, 17, 99]).load(["only-one-value"])
        assert set(load) == {3, 17, 99}
        assert sum(load.values()) == 1


class TestDeterminism:
    @given(members=member_sets, values=value_lists)
    @settings(max_examples=60)
    def test_rebuilt_rings_place_identically(self, members, values):
        first, second = HashRing(members), HashRing(sorted(members))
        assert first == second
        assert hash(first) == hash(second)
        for value in values:
            assert first.owner(value) == second.owner(value)

    def test_placement_is_stable_across_hash_seeds_and_processes(self):
        """The cross-process pin: a child interpreter with a different
        PYTHONHASHSEED must compute the identical owner table (routing
        may never touch Python's salted ``hash``)."""
        values = [f"v-{i}" for i in range(64)] + [("pair", 3), 12345]
        local = [HashRing([0, 2, 5]).owner(value) for value in values]
        script = (
            "from repro.weakset.ring import HashRing\n"
            "values = [f'v-{i}' for i in range(64)] + [('pair', 3), 12345]\n"
            "print([HashRing([0, 2, 5]).owner(v) for v in values])\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert output == repr(local)

    def test_ring_for_shards_matches_explicit_construction(self):
        """``shard_of`` routes through this memoized ring, so a grown
        cluster at members [0..K-1] routes like a constructed one."""
        for shards in (1, 2, 3, 5):
            memoized = ring_for_shards(shards)
            assert memoized is ring_for_shards(shards)  # cached
            explicit = HashRing(range(shards))
            for value in ("a", "b", ("c", 1), 7):
                assert memoized.owner(value) == explicit.owner(value)


class TestValidation:
    def test_rejects_empty_duplicate_and_negative_members(self):
        with pytest.raises(ValueError, match="at least one member"):
            HashRing([])
        with pytest.raises(ValueError, match="duplicate"):
            HashRing([1, 1])
        with pytest.raises(ValueError, match="non-negative"):
            HashRing([-1, 2])
        with pytest.raises(ValueError, match="replicas"):
            HashRing([0], replicas=0)

    def test_with_and_without_member_validate(self):
        ring = HashRing([0, 1])
        with pytest.raises(ValueError, match="already"):
            ring.with_member(1)
        with pytest.raises(ValueError, match="not on the ring"):
            ring.without_member(7)

    def test_points_stay_inside_the_ring_space(self):
        ring = HashRing(range(6))
        assert all(0 <= point < RING_SPACE for point in ring._points)
        assert len(ring._points) == 6 * DEFAULT_REPLICAS
