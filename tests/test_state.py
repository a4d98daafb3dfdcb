import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from flowpipe import crypto
from flowpipe.challenges import ChallengeKind, SlashingChallenge, adjudicate_challenge
from flowpipe.encoding import canonical_json, hexify
from flowpipe.state import (
    NodeIdentity,
    ProtocolState,
    Role,
    Slash,
    StakeTable,
    StateUpdate,
    Tally,
    UpdateRejected,
    apply_updates,
    commit_state,
)


def node(i: int, role=Role.CONSENSUS, stake=10) -> NodeIdentity:
    return NodeIdentity(
        staking_public_key=bytes([i]) * 32,
        role=role,
        stake=stake,
        network_address=f"node-{i}",
    )


def slash(key: bytes, amount: int) -> StateUpdate:
    return StateUpdate(entries=(Slash(key, amount),))


def make_state(stakes=(10,) * 10, role=Role.CONSENSUS) -> ProtocolState:
    recs = [node(i + 1, role=role, stake=s) for i, s in enumerate(stakes)]
    return ProtocolState(records={r.staking_public_key: r for r in recs})


def voted(table: StakeTable, voters) -> Tally:
    """A tally of `table` that has counted each of `voters` it admits."""
    tally = Tally(table)
    for v in voters:
        tally.add(v, b"sig:" + v)
    return tally


def signed_by(key: bytes, signed: bytes) -> bool:
    """The stand-in signature check that `voted` satisfies."""
    return signed == b"sig:" + key


class TestEffectiveVotes:
    """The staked fraction of a group voting in favor, read through the one
    quorum count, `Tally`."""

    def test_equal_stakes(self):
        group = [node(i) for i in range(1, 11)]
        voters = [g.staking_public_key for g in group[:7]]
        assert voted(StakeTable(group), voters).quorum  # 7/10
        assert not voted(StakeTable(group), voters[:6]).quorum  # 6/10

    def test_weighted(self):
        group = [node(1, stake=5), node(2, stake=3), node(3, stake=2)]
        voters = [group[0].staking_public_key, group[1].staking_public_key]
        assert voted(StakeTable(group), voters).quorum  # 8/10
        # 5/10 and 7/10: the weights count, not the heads
        assert not voted(StakeTable(group), [group[0].staking_public_key]).quorum
        assert voted(StakeTable(group), [group[0].staking_public_key, group[2].staking_public_key]).quorum
        assert voted(StakeTable(group), voters).weight == 8
        assert StakeTable(group).total == 10
        assert StakeTable(group).stake == {g.staking_public_key: g.stake for g in group}

    def test_full_group(self):
        group = [node(i, stake=i) for i in range(1, 5)]
        assert voted(StakeTable(group), [g.staking_public_key for g in group]).quorum

    def test_zero_total_stake(self):
        """A group with no stake reaches no quorum, and certifies nothing."""
        group = [node(1, stake=0)]
        key = group[0].staking_public_key
        for table, voters in ((StakeTable(group), []), (StakeTable(group), [key]), (StakeTable([]), [])):
            assert not voted(table, voters).quorum
            assert not table.certifies(voters, [b"sig"] * len(voters), lambda k, s: True)

    def test_voters_outside_group(self):
        """An outsider is not admitted: it adds no weight and no entry, and
        a certificate listing it fails before any signature is checked."""
        group = [node(1)]
        outsider = node(2).staking_public_key
        tally = Tally(StakeTable(group))
        assert not tally.admits(outsider) and not tally.add(outsider, b"sig")
        assert tally == {} and tally.weight == 0
        # however much stake the members hold
        table = StakeTable([node(1), node(3)])
        checked = []
        signers = [node(1).staking_public_key, outsider]
        assert not table.certifies(signers, [b"a", b"b"], lambda k, s: checked.append(k) or True)
        assert checked == []

    def test_duplicate_voters_counted_once(self):
        """A repeat signer is counted once, with what it signed first."""
        group = [node(1, stake=7), node(2, stake=3)]
        k2 = group[1].staking_public_key
        tally = voted(StakeTable(group), [k2])
        assert not tally.admits(k2) and not tally.add(k2, b"second")
        assert tally == {k2: b"sig:" + k2} and tally.weight == 3 and not tally.quorum
        assert not StakeTable(group).certifies([k2, k2, k2], [b"s"] * 3, lambda k, s: True)

    def test_members_sorted_and_keys_unique(self):
        group = [node(3), node(1, stake=4), node(2, stake=0)]
        t = StakeTable(group)
        assert [m.staking_public_key for m in t.members] == [bytes([i]) * 32 for i in (1, 2, 3)]
        assert t.keys == {g.staking_public_key for g in group}
        with pytest.raises(ValueError):
            StakeTable([node(1), node(1, stake=3)])

    def test_compares_by_identity(self):
        group = [node(1), node(2)]
        assert StakeTable(group) != StakeTable(group)
        t = StakeTable(group)
        assert t == t and {t: 1}[t] == 1


class TestSupermajority:
    """Strictly more than 2/3 of the stake. Each case names a fraction
    w/total and checks it on a group whose voters hold w of total."""

    @staticmethod
    def holds(w: int, total: int) -> bool:
        """`Tally.quorum` on a two-member group of stakes (w, total - w)
        with only the first voting."""
        group = [node(1, stake=w), node(2, stake=total - w)]
        return voted(StakeTable(group), [group[0].staking_public_key]).quorum

    def test_exactly_two_thirds_is_not_enough(self):
        assert not self.holds(2, 3)
        assert not self.holds(20, 30)

    def test_above(self):
        assert self.holds(7, 10)

    def test_zero(self):
        assert not self.holds(0, 5)
        assert not Tally(StakeTable([node(1)])).quorum

    def test_strictness_at_group_granularity(self):
        n = 30
        group = [node(i, stake=1) for i in range(1, n + 1)]
        keys = [g.staking_public_key for g in group]
        table = StakeTable(group)
        for m, passes in ((20, False), (21, True)):  # 2/3, then 2/3 + 1/n
            assert voted(table, keys[:m]).quorum is passes
            assert table.certifies(keys[:m], [b"sig:" + k for k in keys[:m]], signed_by) is passes

    def test_integer_check_agrees_with_fraction_comparison(self):
        for d in range(1, 41):
            for n in range(d + 1):
                assert self.holds(n, d) == (Fraction(n, d) > Fraction(2, 3)), (n, d)

    def test_every_small_group_and_voter_subset(self):
        """Every stake vector of 1 to 5 members with stakes 0 to 4, over
        every voter subset, against the `Fraction` comparison; a group with
        no stake reaches no quorum."""
        checked = 0
        for size in range(1, 6):
            group = [node(i) for i in range(1, size + 1)]
            keys = [g.staking_public_key for g in group]
            for stakes in itertools.product(range(5), repeat=size):
                t = StakeTable(dataclasses.replace(g, stake=s) for g, s in zip(group, stakes))
                total = sum(stakes)
                for mask in range(1 << size):
                    voters = [k for i, k in enumerate(keys) if mask >> i & 1]
                    if total == 0:
                        assert not voted(t, voters).quorum
                        continue
                    w = sum(s for i, s in enumerate(stakes) if mask >> i & 1)
                    assert voted(t, voters).quorum == (Fraction(w, total) > Fraction(2, 3)), (
                        stakes,
                        mask,
                    )
                    checked += 1
        assert checked == sum((5**k - 1) * 2**k for k in range(1, 6))


class TestTally:
    """The one count behind every quorum certificate, guarantee and seal."""

    def group(self, n):
        return StakeTable(node(i, stake=1) for i in range(1, n + 1))

    def test_certificate_in_key_order(self):
        table = self.group(5)
        keys = [m.staking_public_key for m in table.members]
        tally = voted(table, reversed(keys))
        signers, signed = tally.certificate()
        assert signers == tuple(sorted(keys)) == tuple(keys)
        assert signed == tuple(b"sig:" + k for k in signers)

    def test_certifies_all_or_nothing(self):
        """One bad item, one item too few or too many, or a repeated signer
        fails the whole certificate."""
        table = self.group(4)
        keys = [m.staking_public_key for m in table.members]
        sigs = [b"sig:" + k for k in keys]
        assert table.certifies(keys, sigs, signed_by)
        assert not table.certifies(keys, sigs[:3] + [b"forged"], signed_by)
        assert not table.certifies(keys, sigs[:3], signed_by)
        assert not table.certifies(keys[:3], sigs, signed_by)
        assert not table.certifies(keys[:3] + keys[:1], sigs[:3] + sigs[:1], signed_by)

    def test_signatures_checked_only_for_a_quorum(self):
        table = self.group(4)
        keys = [m.staking_public_key for m in table.members]
        checked = []
        assert not table.certifies(keys[:2], [b"a", b"b"], lambda k, s: checked.append(k) or True)
        assert checked == []


class TestCommitment:
    def test_insertion_order_irrelevant(self):
        r1, r2 = node(1), node(2)
        a = ProtocolState(records={r1.staking_public_key: r1, r2.staking_public_key: r2})
        b = ProtocolState(records={r2.staking_public_key: r2, r1.staking_public_key: r1})
        assert commit_state(a) == commit_state(b)

    def test_stake_change_changes_commitment(self):
        a = make_state((10, 10))
        b = make_state((10, 11))
        assert commit_state(a) != commit_state(b)

    def test_empty_state_golden(self):
        # frozen from the canonical serialization definition
        st = ProtocolState()
        doc = {
            "records": [],
            "held": [],
            "epoch": {
                "index": 0,
                "start_height": 0,
                "length_blocks": 100_000,
                "staking_deadline_height": 80_000,
            },
            "total_slashed": 0,
            "total_released": 0,
        }
        assert commit_state(st) == crypto.hash("state", canonical_json(doc))

    def test_two_records_golden(self):
        # pins the per-record constants and `total_slashed`, which the
        # empty-state golden above cannot reach
        e = NodeIdentity(bytes([1]) * 32, Role.EXECUTION, 50, "e0")
        v = NodeIdentity(bytes([2]) * 32, Role.VERIFICATION, 30, "v0")
        before = ProtocolState(records={v.staking_public_key: v, e.staking_public_key: e})
        assert commit_state(before).hex() == (
            "62dbb227ed4a2fb04f46e5302363ea29fa50893b35b5d65a919f7b96bce9c677"
        )
        slashed = NodeIdentity(e.staking_public_key, Role.EXECUTION, 0, "e0")
        after = ProtocolState(
            records={v.staking_public_key: v, e.staking_public_key: slashed}, total_slashed=50
        )
        assert commit_state(after).hex() == (
            "eb371c69c0f89efecefbc02f6b49190d2735afd83fd70547b0306c03b06f07bb"
        )

    def test_randomized_soundness(self):
        rng = random.Random(7)
        for _ in range(30):
            stakes_a = tuple(rng.randrange(1, 100) for _ in range(5))
            stakes_b = tuple(rng.randrange(1, 100) for _ in range(5))
            a, b = make_state(stakes_a), make_state(stakes_b)
            assert (commit_state(a) == commit_state(b)) == (stakes_a == stakes_b)


class TestApplyUpdates:
    def test_empty_updates_keep_commitment(self):
        st = make_state()
        assert apply_updates(st, []).commitment == commit_state(st)

    def test_slash(self):
        st = make_state((50,))
        res = apply_updates(st, [slash(node(1).staking_public_key, 10)])
        assert res.records[node(1).staking_public_key].stake == 40
        assert res.total_slashed == 10

    def test_over_slash_clamps_with_event(self):
        # the stake stops at zero and only the cut counts as slashed
        st = make_state((50,))
        res = apply_updates(st, [slash(node(1).staking_public_key, 60)])
        assert res.records[node(1).staking_public_key].stake == 0
        assert res.total_slashed == 50

    def test_negative_stake_rejected(self):
        with pytest.raises(ValueError):
            node(1, stake=-1)

    def test_unknown_op_rejects_whole_batch(self):
        st = make_state((50, 50))
        records, before = dict(st.records), commit_state(st)
        # a slash is the only change; any other entry, such as this mint in
        # the dict form entries once took, is refused
        key = hexify(node(2).staking_public_key)
        bad = StateUpdate(entries=({"op": "mint", "key": key, "amount": 5},))
        with pytest.raises(UpdateRejected, match="not a well-formed slash"):
            apply_updates(st, [slash(node(1).staking_public_key, 10), bad])
        assert st.records == records and st.total_slashed == 0
        assert st.commitment == commit_state(st) == before

    @pytest.mark.parametrize(
        "entry",
        [
            # applied, a slash of -25 would mint stake: the stake-50 record
            # of node 1 would end at 75 and `total_slashed` at -25
            Slash(b"\x01" * 32, -25),
            # the dict form entries once took, with and without an op
            {"key": "01" * 32, "amount": 5},
            {"op": "slash", "key": "01" * 32, "amount": 5},
            Slash(None, 5),
            Slash(b"\x01" * 32, None),
            Slash("zz" * 32, 5),
            Slash("01" * 32, 5),
            Slash(b"\x01" * 32, 2.5),
            Slash(b"\x01" * 32, "5"),
            Slash(b"\x01" * 32, True),
        ],
        ids=[
            "negative-amount",
            "no-op",
            "dict-entry",
            "no-key",
            "no-amount",
            "non-hex-key",
            "hex-key",
            "float-amount",
            "str-amount",
            "bool-amount",
        ],
    )
    def test_malformed_slash_rejected(self, entry):
        st = make_state((50, 50))
        with pytest.raises(UpdateRejected):
            apply_updates(st, [StateUpdate(entries=(entry,))])

    def test_conservation_over_random_sequences(self):
        # slashes move stake into `total_slashed`; none is created or lost
        rng = random.Random(13)
        st = make_state(tuple(rng.randrange(10, 100) for _ in range(6)))
        initial = sum(r.stake for r in st.records.values())
        keys = sorted(st.records)
        for _ in range(200):
            updates = [slash(rng.choice(keys), rng.randrange(0, 40)) for _ in range(rng.randrange(3))]
            st = apply_updates(st, updates)
            assert sum(r.stake for r in st.records.values()) + st.total_slashed == initial


class TestStoredCommitment:
    """A state carries its commitment from construction on, and
    `apply_updates` hands an unchanged state back; every value equals a
    fresh commit."""

    @pytest.mark.parametrize("updates", [[], [StateUpdate(entries=())]])
    def test_no_entries_equal_fresh_commit(self, updates):
        st = make_state((10, 20, 30))
        snap = apply_updates(st, updates)
        assert snap is st
        assert snap.commitment == commit_state(st)
        again = apply_updates(snap, updates)
        assert again is snap
        assert again.commitment == commit_state(snap)

    def test_snapshot_stores_fresh_commitment(self):
        st = make_state((50, 50))
        snap = apply_updates(st, [slash(node(1).staking_public_key, 7)])
        assert snap.commitment == commit_state(snap)
        assert snap.commitment != commit_state(st)

    def test_every_state_carries_its_commitment(self):
        rng = random.Random(21)
        for _ in range(20):
            st = make_state(tuple(rng.randrange(0, 100) for _ in range(rng.randrange(6))))
            assert st.commitment == commit_state(st)
            keys = sorted(st.records) or [node(1).staking_public_key]
            for _ in range(5):
                st = apply_updates(st, [slash(rng.choice(keys), rng.randrange(0, 60))])
                assert st.commitment == commit_state(st)
        assert ProtocolState().commitment == commit_state(ProtocolState())


class TestFrozenState:
    """Chain contexts and blocks share one state by reference, so no holder
    can change it under another."""

    def test_fields_cannot_be_assigned(self):
        st = make_state((10, 20))
        for name, value in (("records", {}), ("total_slashed", 5), ("commitment", b"")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(st, name, value)

    def test_records_are_read_only(self):
        st = make_state((10, 20))
        rec = node(9, stake=5)
        with pytest.raises(TypeError):
            st.records[rec.staking_public_key] = rec
        with pytest.raises(TypeError):
            del st.records[node(1).staking_public_key]
        assert len(st.records) == 2

    def test_builder_dict_is_not_shared(self):
        rec = node(1)
        records = {rec.staking_public_key: rec}
        st = ProtocolState(records=records)
        before = st.commitment
        other = node(2)
        records[other.staking_public_key] = other
        assert list(st.records) == [rec.staking_public_key]
        assert st.commitment == commit_state(st) == before


class TestAdjudication:
    def make_challenge(self):
        return SlashingChallenge(
            kind=ChallengeKind.FAULTY_COMPUTATION,
            challenger=node(2).staking_public_key,
            accused=(node(1).staking_public_key,),
            evidence=(b"\x00" * 32,),
        )

    def test_silent_accused_slashed(self):
        st = make_state((50, 50))
        adj, upd = adjudicate_challenge(st, self.make_challenge(), accused_at_fault=True)
        assert adj.outcome == "accused_slashed"
        res = apply_updates(st, [upd])
        assert res.records[node(1).staking_public_key].stake == 0

    def test_exonerating_response_slashes_challenger(self):
        st = make_state((50, 50))
        adj, upd = adjudicate_challenge(st, self.make_challenge(), accused_at_fault=False)
        assert adj.outcome == "challenger_slashed"
        res = apply_updates(st, [upd])
        assert res.records[node(2).staking_public_key].stake == 0
