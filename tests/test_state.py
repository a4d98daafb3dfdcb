import random
from fractions import Fraction

import pytest

from flowpipe import crypto
from flowpipe.encoding import canonical_json, hexify
from flowpipe.state import (
    ChallengeKind,
    Epoch,
    NodeIdentity,
    ProtocolState,
    Role,
    SlashingChallenge,
    StateUpdate,
    UpdateRejected,
    adjudicate_challenge,
    apply_updates,
    commit_state,
    effective_votes,
    meets_supermajority,
)


def node(i: int, role=Role.CONSENSUS, stake=10) -> NodeIdentity:
    return NodeIdentity(
        staking_public_key=bytes([i]) * 32,
        role=role,
        stake=stake,
        network_address=f"node-{i}",
    )


def unstake(key: bytes, discharge_epoch: int, release_epoch: int) -> StateUpdate:
    """Discharge `key` from `discharge_epoch`; its stake stays slashable on
    hold until `release_epoch`."""
    return StateUpdate(
        entries=(
            {"op": "discharge", "key": hexify(key), "epoch": discharge_epoch},
            {"op": "hold", "key": hexify(key), "release_epoch": release_epoch},
        ),
        cause="unstake",
    )


def make_state(stakes=(10,) * 10, role=Role.CONSENSUS) -> ProtocolState:
    st = ProtocolState()
    for i, s in enumerate(stakes):
        rec = node(i + 1, role=role, stake=s)
        st.records[rec.staking_public_key] = rec
    return st


class TestEffectiveVotes:
    def test_equal_stakes(self):
        group = [node(i) for i in range(1, 11)]
        voters = [g.staking_public_key for g in group[:7]]
        assert effective_votes(voters, group) == Fraction(7, 10)

    def test_weighted(self):
        group = [node(1, stake=5), node(2, stake=3), node(3, stake=2)]
        voters = [group[0].staking_public_key, group[1].staking_public_key]
        assert effective_votes(voters, group) == Fraction(8, 10)

    def test_full_group(self):
        group = [node(i, stake=i) for i in range(1, 5)]
        assert effective_votes([g.staking_public_key for g in group], group) == 1

    def test_zero_total_stake(self):
        group = [node(1, stake=0)]
        with pytest.raises(ValueError):
            effective_votes([], group)

    def test_voters_outside_group(self):
        group = [node(1)]
        with pytest.raises(ValueError):
            effective_votes([node(2).staking_public_key], group)


class TestSupermajority:
    def test_exactly_two_thirds_is_not_enough(self):
        assert not meets_supermajority(Fraction(2, 3))

    def test_above(self):
        assert meets_supermajority(Fraction(7, 10))

    def test_zero(self):
        assert not meets_supermajority(Fraction(0))

    def test_strictness_at_group_granularity(self):
        n = 30
        assert not meets_supermajority(Fraction(2, 3))
        assert meets_supermajority(Fraction(2, 3) + Fraction(1, n))


class TestCommitment:
    def test_insertion_order_irrelevant(self):
        a = ProtocolState()
        b = ProtocolState()
        r1, r2 = node(1), node(2)
        a.records[r1.staking_public_key] = r1
        a.records[r2.staking_public_key] = r2
        b.records[r2.staking_public_key] = r2
        b.records[r1.staking_public_key] = r1
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
        res = apply_updates(st, [])
        assert res.commitment == commit_state(st)

    def test_slash(self):
        st = make_state((50,))
        key = hexify(node(1).staking_public_key)
        upd = StateUpdate(entries=({"op": "slash", "key": key, "amount": 10},), cause="slash")
        res = apply_updates(st, [upd])
        assert res.state.records[node(1).staking_public_key].stake == 40
        assert res.state.total_slashed == 10

    def test_over_slash_clamps_with_event(self):
        st = make_state((50,))
        key = hexify(node(1).staking_public_key)
        upd = StateUpdate(entries=({"op": "slash", "key": key, "amount": 60},), cause="slash")
        res = apply_updates(st, [upd])
        assert res.state.records[node(1).staking_public_key].stake == 0
        assert res.state.total_slashed == 50
        assert any(e["kind"] == "over_slash" and e["shortfall"] == 10 for e in res.events)

    def test_negative_stake_rejected(self):
        st = make_state((5,))
        key = hexify(node(1).staking_public_key)
        upd = StateUpdate(entries=({"op": "stake_delta", "key": key, "delta": -6},), cause="stake")
        with pytest.raises(UpdateRejected):
            apply_updates(st, [upd])
        assert st.records[node(1).staking_public_key].stake == 5

    def test_conservation_over_random_sequences(self):
        rng = random.Random(13)
        st = make_state(tuple(rng.randrange(10, 100) for _ in range(6)))
        initial = sum(r.stake for r in st.records.values())
        keys = sorted(st.records)
        for _ in range(200):
            key = rng.choice(keys)
            kind = rng.choice(["slash", "unstake", "epoch"])
            if kind == "slash":
                upd = StateUpdate(
                    entries=({"op": "slash", "key": hexify(key), "amount": rng.randrange(0, 40)},),
                    cause="slash",
                )
                st = apply_updates(st, [upd]).state
            elif kind == "unstake":
                if st.records[key].discharged_from_epoch is None:
                    upd = unstake(key, st.epoch.index + 1, st.epoch.index + 2)
                    st = apply_updates(st, [upd]).state
            else:
                new_epoch = Epoch(
                    index=st.epoch.index + 1,
                    start_height=st.epoch.start_height + st.epoch.length_blocks,
                    length_blocks=st.epoch.length_blocks,
                    staking_deadline_height=st.epoch.start_height
                    + st.epoch.length_blocks
                    + 80_000,
                )
                updates = [
                    StateUpdate(entries=({"op": "release", "key": hexify(k)},), cause="epoch")
                    for k in sorted(st.held_stakes)
                    if st.held_stakes[k].release_epoch <= new_epoch.index
                ]
                st = apply_updates(st, updates).state
                st.epoch = new_epoch
            total = (
                sum(r.stake for r in st.records.values())
                + sum(h.amount for h in st.held_stakes.values())
                + st.total_slashed
                + st.total_released
            )
            assert total == initial


class TestStoredCommitment:
    """`apply_updates` stores the commitment of each snapshot it returns and
    hands an unchanged snapshot back; every value equals a fresh commit."""

    @pytest.mark.parametrize("updates", [[], [StateUpdate(entries=(), cause="epoch")]])
    def test_no_entries_equal_fresh_commit(self, updates):
        st = make_state((10, 20, 30))
        res = apply_updates(st, updates)
        assert res.commitment == commit_state(st.copy())
        snap = res.state
        again = apply_updates(snap, updates)
        assert again.state is snap
        assert again.commitment == commit_state(snap.copy())

    def test_snapshot_stores_fresh_commitment(self):
        st = make_state((50, 50))
        upd = StateUpdate(
            entries=({"op": "slash", "key": hexify(node(1).staking_public_key), "amount": 7},),
            cause="slash",
        )
        res = apply_updates(st, [upd])
        assert res.commitment == res.state.commitment == commit_state(res.state.copy())
        assert res.commitment != commit_state(st)

    def test_hand_mutated_state_commits_fresh(self):
        st = make_state((10, 20))
        before = apply_updates(st, []).commitment
        rec = node(9, stake=5)
        st.records[rec.staking_public_key] = rec
        after = apply_updates(st, [])
        assert st.commitment is None
        assert after.state is not st
        assert after.commitment == commit_state(st) != before

    def test_copy_drops_stored_commitment(self):
        snap = apply_updates(make_state(), []).state
        assert snap.commitment is not None
        assert snap.copy().commitment is None
        assert snap.copy() == snap


class TestUnstaking:
    def test_discharge_and_release_epochs(self):
        st = make_state((50,))
        key = node(1).staking_public_key
        st = apply_updates(st, [unstake(key, 4, 5)]).state
        rec = st.records[key]
        assert rec.discharged_from_epoch == 4
        assert rec.stake == 0
        assert st.held_stakes[key].release_epoch == 5
        # still a member in epoch 3 (stake on hold), gone from epoch 4
        assert [m.staking_public_key for m in st.members(Role.CONSENSUS, epoch_index=3)] == [key]
        assert all(
            m.staking_public_key != key for m in st.members(Role.CONSENSUS, epoch_index=4)
        )

    def test_held_stake_slashable(self):
        st = make_state((50,))
        key = node(1).staking_public_key
        st = apply_updates(st, [unstake(key, 1, 2)]).state
        upd = StateUpdate(entries=({"op": "slash", "key": hexify(key), "amount": 20},), cause="slash")
        st = apply_updates(st, [upd]).state
        assert st.held_stakes[key].amount == 30


class TestAdjudication:
    def make_challenge(self, full_proof=False):
        return SlashingChallenge(
            kind=ChallengeKind.FAULTY_COMPUTATION,
            challenger=node(2).staking_public_key,
            accused=(node(1).staking_public_key,),
            evidence=(b"\x00" * 32,),
            deadline=100,
            full_proof=full_proof,
        )

    def test_silent_accused_slashed(self):
        st = make_state((50, 50))
        adj, upd = adjudicate_challenge(st, self.make_challenge(), None, timed_out=True)
        assert adj.outcome == "accused_slashed"
        res = apply_updates(st, [upd])
        assert res.state.records[node(1).staking_public_key].stake == 0

    def test_exonerating_response_slashes_challenger(self):
        st = make_state((50, 50))
        adj, upd = adjudicate_challenge(st, self.make_challenge(), True, timed_out=False)
        assert adj.outcome == "challenger_slashed"
        res = apply_updates(st, [upd])
        assert res.state.records[node(2).staking_public_key].stake == 0

    def test_full_proof_immediate(self):
        st = make_state((50, 50))
        adj, upd = adjudicate_challenge(
            st, self.make_challenge(full_proof=True), None, timed_out=False
        )
        assert adj.outcome == "accused_slashed"
