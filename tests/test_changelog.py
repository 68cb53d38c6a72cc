"""Unit + property tests for changelogs and the stream/table duality."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.changelog import (
    Change,
    ChangeKind,
    Changelog,
    UpsertKind,
    diff_bags,
    to_upserts,
    upserts_to_changes,
)
from repro.core.errors import ExecutionError
from repro.core.schema import Schema, int_col, string_col


def ins(values, ptime):
    return Change(ChangeKind.INSERT, values, ptime)


def rm(values, ptime):
    return Change(ChangeKind.RETRACT, values, ptime)


class TestChange:
    def test_delta(self):
        assert ins(("a",), 1).delta == 1
        assert rm(("a",), 1).delta == -1

    def test_inverted(self):
        change = ins(("a",), 5)
        assert change.inverted() == rm(("a",), 5)
        assert change.inverted().inverted() == change

    def test_restamp(self):
        assert ins(("a",), 5).at(9).ptime == 9


class TestChangelog:
    def test_ptime_monotonic(self):
        log = Changelog([ins(("a",), 5)])
        with pytest.raises(ExecutionError):
            log.append(ins(("b",), 4))

    def test_bag_at_respects_ptime(self):
        log = Changelog([ins(("a",), 1), ins(("b",), 2), rm(("a",), 3)])
        assert log.bag_at(1) == Counter({("a",): 1})
        assert log.bag_at(2) == Counter({("a",): 1, ("b",): 1})
        assert log.bag_at(3) == Counter({("b",): 1})

    def test_negative_multiplicity_detected(self):
        log = Changelog([rm(("ghost",), 1)])
        with pytest.raises(ExecutionError, match="never inserted"):
            log.bag_at(1)

    def test_snapshot(self):
        schema = Schema([string_col("x")])
        log = Changelog([ins(("a",), 1), ins(("a",), 2)])
        rel = log.snapshot_at(schema, 5)
        assert len(rel) == 2

    def test_changes_between(self):
        log = Changelog([ins(("a",), 1), ins(("b",), 3), ins(("c",), 5)])
        assert [c.values for c in log.changes_between(1, 5)] == [("b",), ("c",)]


class TestDiffBags:
    def test_retracts_before_inserts(self):
        before = Counter({("old",): 1})
        after = Counter({("new",): 1})
        changes = diff_bags(before, after, 7)
        assert [c.kind for c in changes] == [ChangeKind.RETRACT, ChangeKind.INSERT]
        assert all(c.ptime == 7 for c in changes)

    def test_multiplicity(self):
        changes = diff_bags(Counter({("x",): 1}), Counter({("x",): 3}), 0)
        assert len(changes) == 2
        assert all(c.is_insert for c in changes)

    def test_no_diff(self):
        bag = Counter({("x",): 2})
        assert diff_bags(bag, Counter(bag), 0) == []

    @given(
        st.dictionaries(st.integers(0, 5), st.integers(1, 3)),
        st.dictionaries(st.integers(0, 5), st.integers(1, 3)),
    )
    def test_applying_diff_reaches_target(self, before_d, after_d):
        before = Counter({(k,): v for k, v in before_d.items()})
        after = Counter({(k,): v for k, v in after_d.items()})
        bag = Counter(before)
        for change in diff_bags(before, after, 0):
            bag[change.values] += change.delta
            assert bag[change.values] >= 0  # never transiently negative
        assert +bag == +after


class TestUpsertEncoding:
    def test_update_fuses_to_single_upsert(self):
        # retract+insert with the same key at the same instant = UPDATE
        changes = [
            ins((1, "a"), 1),
            rm((1, "a"), 2),
            ins((1, "b"), 2),
        ]
        upserts = to_upserts(changes, key_indices=[0])
        assert [u.kind for u in upserts] == [UpsertKind.UPSERT, UpsertKind.UPSERT]
        assert upserts[1].values == (1, "b")

    def test_delete_survives(self):
        changes = [ins((1, "a"), 1), rm((1, "a"), 2)]
        upserts = to_upserts(changes, key_indices=[0])
        assert [u.kind for u in upserts] == [UpsertKind.UPSERT, UpsertKind.DELETE]

    def test_round_trip(self):
        changes = [
            ins((1, "a"), 1),
            ins((2, "x"), 1),
            rm((1, "a"), 3),
            ins((1, "b"), 3),
            rm((2, "x"), 4),
        ]
        decoded = upserts_to_changes(to_upserts(changes, key_indices=[0]))
        # final states agree
        final = Counter()
        for c in changes:
            final[c.values] += c.delta
        final_decoded = Counter()
        for c in decoded:
            final_decoded[c.values] += c.delta
        assert +final == +final_decoded

    def test_upserts_never_longer_than_retractions(self):
        changes = [
            ins((i % 3, i), i) for i in range(10)
        ]  # violates uniqueness -> error expected below on conflicting keys
        # use unique keys instead
        changes = []
        ptime = 0
        for version in range(5):
            if version:
                changes.append(rm((1, version - 1), ptime))
            changes.append(ins((1, version), ptime))
            ptime += 1
        upserts = to_upserts(changes, key_indices=[0])
        assert len(upserts) < len(changes)

    def test_duplicate_live_key_rejected(self):
        changes = [ins((1, "a"), 1), ins((1, "b"), 1), rm((1, "a"), 2), rm((1, "b"), 2)]
        with pytest.raises(ExecutionError):
            to_upserts(changes, key_indices=[0])

    def test_delete_unknown_key_rejected(self):
        from repro.core.changelog import Upsert

        with pytest.raises(ExecutionError):
            upserts_to_changes([Upsert(UpsertKind.DELETE, (1,), (1, "x"), 0)])


class TestChangeContract:
    """``Change`` is built once per emitted change, so its ``__init__``
    stores through the slot descriptors; everything else about it is the
    frozen dataclass it was — pinned here against that class's output."""

    CHANGE = (ChangeKind.RETRACT, (7, "x", None, 2.5), 1234)
    #: what the frozen dataclass printed and pickled for ``CHANGE``
    REPR = "Change(kind=<ChangeKind.RETRACT: '-'>, values=(7, 'x', None, 2.5), ptime=1234)"
    PICKLED = {
        2: b"\x80\x02crepro.core.changelog\nChange\nq\x00)\x81q\x01]q\x02(crepro"
           b".core.changelog\nChangeKind\nq\x03X\x01\x00\x00\x00-q\x04\x85q\x05R"
           b"q\x06(K\x07X\x01\x00\x00\x00xq\x07NG@\x04\x00\x00\x00\x00\x00\x00tq"
           b"\x08M\xd2\x04eb.",
        5: b"\x80\x05\x95Z\x00\x00\x00\x00\x00\x00\x00\x8c\x14repro.core.changelog"
           b"\x94\x8c\x06Change\x94\x93\x94)\x81\x94]\x94(h\x00\x8c\nChangeKind\x94"
           b"\x93\x94\x8c\x01-\x94\x85\x94R\x94(K\x07\x8c\x01x\x94NG@\x04\x00\x00"
           b"\x00\x00\x00\x00t\x94M\xd2\x04eb.",
    }

    def test_assignment_and_deletion_raise(self):
        import dataclasses

        change = Change(*self.CHANGE)
        for name in ("kind", "values", "ptime"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(change, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(change, name)
        assert (change.kind, change.values, change.ptime) == self.CHANGE

    def test_equality_is_by_fields_and_class(self):
        change = Change(*self.CHANGE)
        assert change == Change(*self.CHANGE)
        assert change != Change(ChangeKind.INSERT, *self.CHANGE[1:])
        assert change != self.CHANGE  # not a tuple
        assert change != list(self.CHANGE)
        assert hash(change) == hash(self.CHANGE)
        assert len({change, Change(*self.CHANGE)}) == 1

    def test_repr_and_pickle_are_the_dataclasses(self):
        import copy
        import pickle

        change = Change(*self.CHANGE)
        assert repr(change) == self.REPR
        for protocol, pickled in self.PICKLED.items():
            assert pickle.dumps(change, protocol) == pickled
            assert pickle.loads(pickled) == change
        assert copy.copy(change) == change and copy.deepcopy(change) == change
        assert not hasattr(change, "__dict__")
