import dataclasses
import itertools

import pytest

from flowpipe import crypto
from flowpipe.blocks import (
    GENESIS_RANDOMNESS,
    Approval,
    BlockSeal,
    EvaluationContext,
    ProtoBlock,
    approval_payload,
    block_seed,
    evaluate_proposal,
    form_seal,
    propose_proto_block,
    validate_seal,
)
from flowpipe.collection import GuaranteedCollection
from flowpipe.encoding import canonical_json
from flowpipe.state import (
    NodeIdentity,
    ProtocolState,
    Role,
    StakeTable,
    StateUpdate,
    apply_updates,
    commit_state,
)

def node(seed: bytes, role: Role, stake=10) -> tuple[crypto.StakingKeyPair, NodeIdentity]:
    kp = crypto.StakingKeyPair.from_seed(seed)
    return kp, NodeIdentity(kp.public, role, stake, seed.hex()[:6])


def base_protocol_state(n_collectors=4, n_verifiers=4):
    records = {}
    collector_kps, verifier_kps = [], []
    for i in range(n_collectors):
        kp, ident = node(bytes([60 + i]) * 32, Role.COLLECTOR)
        records[ident.staking_public_key] = ident
        collector_kps.append(kp)
    for i in range(n_verifiers):
        kp, ident = node(bytes([80 + i]) * 32, Role.VERIFICATION)
        records[ident.staking_public_key] = ident
        verifier_kps.append(kp)
    return ProtocolState(records=records), collector_kps, verifier_kps


def members(state: ProtocolState, role: Role) -> StakeTable:
    """The stake table of `role`'s group in `state`."""
    return StakeTable(rec for rec in state.records.values() if rec.role == role)


def make_guarantee(collector_kps, members, coll_hash, signer_idx, cluster=0):
    stub = GuaranteedCollection(coll_hash, cluster, (), ())
    payload = stub.signed_payload()
    signers = tuple(collector_kps[i].public for i in signer_idx)
    sigs = tuple(collector_kps[i].sign(payload) for i in signer_idx)
    return GuaranteedCollection(coll_hash, cluster, signers, sigs)


def plain_context(state: ProtocolState, **overrides) -> EvaluationContext:
    defaults = dict(
        parent_height=0,
        collection_on_chain=lambda h: False,
        received_collections=set(),
        collector_clusters={0: members(state, Role.COLLECTOR)},
        seal_valid=lambda s: True,
        challenge_verified=lambda c: True,
        parent_protocol_state=state,
    )
    defaults.update(overrides)
    return EvaluationContext(**defaults)


def empty_proto(state: ProtocolState, parent=b"\x10" * 32, height=1) -> ProtoBlock:
    return ProtoBlock(
        previous_block_hash=parent,
        height=height,
        guaranteed_collections=(),
        block_seals=(),
        slashing_challenges=(),
        protocol_state_updates=(),
        state_commitment=commit_state(state),
    )


class TestProposalAssembly:
    def test_invalid_updates_dropped(self):
        state, _, _ = base_protocol_state()
        bad = StateUpdate(entries=({"op": "stake_delta", "key": "ff" * 32, "delta": 1},), cause="stake")
        pb = propose_proto_block(b"\x10" * 32, 0, state, [], [], [], [bad])
        assert pb.protocol_state_updates == ()
        assert pb.state_commitment == commit_state(state)

    def test_commitment_reflects_accepted_updates(self):
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        upd = StateUpdate(entries=({"op": "slash", "key": key.hex(), "amount": 5},), cause="adjudication")
        pb = propose_proto_block(b"\x10" * 32, 0, state, [], [], [], [upd])
        assert pb.protocol_state_updates == (upd,)
        assert pb.state_commitment == apply_updates(state, [upd]).commitment

    def test_empty_mempool_still_produces(self):
        state, _, _ = base_protocol_state()
        pb = propose_proto_block(b"\x10" * 32, 4, state, [], [], [], [])
        assert pb.height == 5
        assert pb.guaranteed_collections == ()


class TestEvaluateProposal:
    def test_fully_valid(self):
        state, kps, _ = base_protocol_state()
        coll = crypto.hash("collection", b"a")
        gc = make_guarantee(kps, members(state, Role.COLLECTOR), coll, [0, 1, 2])
        pb = ProtoBlock(b"\x10" * 32, 1, (gc,), (), (), (), commit_state(state))
        ctx = plain_context(state, received_collections={coll})
        assert evaluate_proposal(pb, ctx) == (True, None)

    def test_condition_2_height_gap(self):
        state, _, _ = base_protocol_state()
        ok, reason = evaluate_proposal(
            empty_proto(state, height=3), plain_context(state, parent_height=0)
        )
        assert not ok and reason.startswith("condition-2")

    def test_condition_4_stale_collection(self):
        state, kps, _ = base_protocol_state()
        coll = crypto.hash("collection", b"a")
        gc = make_guarantee(kps, members(state, Role.COLLECTOR), coll, [0, 1, 2])
        pb = ProtoBlock(b"\x10" * 32, 1, (gc,), (), (), (), commit_state(state))
        ctx = plain_context(
            state, received_collections={coll}, collection_on_chain=lambda h: h == coll
        )
        ok, reason = evaluate_proposal(pb, ctx)
        assert not ok and reason.startswith("condition-4")

    def test_condition_5_not_received(self):
        state, kps, _ = base_protocol_state()
        coll = crypto.hash("collection", b"a")
        gc = make_guarantee(kps, members(state, Role.COLLECTOR), coll, [0, 1, 2])
        pb = ProtoBlock(b"\x10" * 32, 1, (gc,), (), (), (), commit_state(state))
        ok, reason = evaluate_proposal(pb, plain_context(state))
        assert not ok and reason.startswith("condition-5")

    def test_condition_6_insufficient_signers(self):
        state, kps, _ = base_protocol_state()
        coll = crypto.hash("collection", b"a")
        gc = make_guarantee(kps, members(state, Role.COLLECTOR), coll, [0, 1])  # 50%
        pb = ProtoBlock(b"\x10" * 32, 1, (gc,), (), (), (), commit_state(state))
        ok, reason = evaluate_proposal(pb, plain_context(state, received_collections={coll}))
        assert not ok and reason.startswith("condition-6")

    def test_condition_8_seal_invalid(self):
        state, _, _ = base_protocol_state()
        seal = BlockSeal(b"\x01" * 32, b"\x02" * 32, b"\x03" * 32, ())
        pb = ProtoBlock(b"\x10" * 32, 1, (), (seal,), (), (), commit_state(state))
        ctx = plain_context(state, seal_valid=lambda s: False)
        ok, reason = evaluate_proposal(pb, ctx)
        assert not ok and reason.startswith("condition-8")

    def test_condition_9_challenge_unverified(self):
        state, _, _ = base_protocol_state()
        pb = ProtoBlock(
            b"\x10" * 32, 1, (), (), ({"kind": "bogus"},), (), commit_state(state)
        )
        ok, reason = evaluate_proposal(pb, plain_context(state, challenge_verified=lambda c: False))
        assert not ok and reason.startswith("condition-9")

    def test_condition_10_tampered_commitment(self):
        state, _, _ = base_protocol_state()
        pb = ProtoBlock(b"\x10" * 32, 1, (), (), (), (), b"\xde" * 32)
        ok, reason = evaluate_proposal(pb, plain_context(state))
        assert not ok and reason.startswith("condition-10")

    def test_condition_10_unknown_update_op(self):
        # a slash is the only op; any other rejects the block's whole update list
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        bad = StateUpdate(
            entries=({"op": "mint", "key": key.hex(), "amount": 5},), cause="adjudication"
        )
        pb = ProtoBlock(b"\x10" * 32, 1, (), (), (), (bad,), commit_state(state))
        ctx = plain_context(state)
        assert evaluate_proposal(pb, ctx) == (False, "condition-10:state-commitment")
        assert ctx.new_state is None

    def test_condition_10_negative_slash(self):
        # the block commits to the state a slash of -25 would mint; replay
        # rejects the slash instead of reaching that state
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        minted = ProtocolState(
            records={**state.records, key: dataclasses.replace(state.records[key], stake=35)},
            total_slashed=-25,
        )
        upd = StateUpdate(
            entries=({"op": "slash", "key": key.hex(), "amount": -25},), cause="adjudication"
        )
        pb = ProtoBlock(b"\x10" * 32, 1, (), (), (), (upd,), commit_state(minted))
        ctx = plain_context(state)
        assert evaluate_proposal(pb, ctx) == (False, "condition-10:state-commitment")
        assert ctx.new_state is None

    def test_condition_10_replay_matches(self):
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        upd = StateUpdate(entries=({"op": "slash", "key": key.hex(), "amount": 3},), cause="adjudication")
        pb = propose_proto_block(b"\x10" * 32, 0, state, [], [], [], [upd])
        assert evaluate_proposal(pb, plain_context(state)) == (True, None)

    def test_accepted_proposal_hands_back_replayed_state(self):
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        upd = StateUpdate(entries=({"op": "slash", "key": key.hex(), "amount": 3},), cause="adjudication")
        pb = propose_proto_block(b"\x10" * 32, 0, state, [], [], [], [upd])
        ctx = plain_context(state)
        assert evaluate_proposal(pb, ctx) == (True, None)
        assert ctx.new_state == apply_updates(state, [upd])
        rejected = plain_context(state, parent_height=3)
        assert evaluate_proposal(pb, rejected)[0] is False
        assert rejected.new_state is None


class TestRandomnessAttachment:
    """The beacon as consensus nodes run it (`ConsensusNode._on_drb_share`):
    recover the group signature over the block hash from t+1 shares, check
    it against the group key, derive the block seed with `block_seed`."""

    def setup_method(self):
        self.params = crypto.make_params(7)
        entropy = [crypto.hash("drb", bytes([i])) for i in range(7)]
        self.dkg = crypto.dkg_setup(self.params, entropy)
        self.state, _, _ = base_protocol_state()

    def recover(self, parties, height=1):
        message = empty_proto(self.state, height=height).hash()
        shares = [crypto.threshold_sign(self.params, s, message) for s in parties]
        return crypto.threshold_recover(self.params, self.dkg.verification_vector, shares, message)

    def test_t_plus_one_shares_suffice(self):
        sigma = self.recover(self.dkg.shares[:4])
        group_key = self.dkg.verification_vector.group_public_key
        assert crypto.threshold_verify(self.params, sigma, group_key, empty_proto(self.state).hash())

    def test_t_shares_fail(self):
        with pytest.raises(crypto.InsufficientShares):
            self.recover(self.dkg.shares[:3])

    def test_any_subset_recovers_identical_randomness(self):
        values = {
            self.recover(list(subset)).value
            for subset in itertools.combinations(self.dkg.shares, 4)
        }
        assert len(values) == 1

    def test_seed_differs_per_block(self):
        seed = block_seed(self.recover(self.dkg.shares[:4]).value)
        assert seed != GENESIS_RANDOMNESS
        assert seed != block_seed(self.recover(self.dkg.shares[:4], height=2).value)

    def test_wrong_group_key_rejected(self):
        sigma = self.recover(self.dkg.shares[:4])
        wrong = (self.dkg.verification_vector.group_public_key * self.params.g) % self.params.p
        assert not crypto.threshold_verify(self.params, sigma, wrong, empty_proto(self.state).hash())


def approve(kp, result_hash=b"\x22" * 32) -> Approval:
    return Approval(result_hash, kp.public, kp.sign(approval_payload(result_hash)))


def seal_inputs(state, vkps, result_hash=b"\x22" * 32):
    approvals = [approve(kp, result_hash) for kp in vkps]
    verifiers = members(state, Role.VERIFICATION)
    return approvals, verifiers


class TestApprovalPayload:
    @pytest.mark.parametrize("result_hash", [b"\x00" * 32, b"\x22" * 32, bytes(range(32))])
    def test_equals_fresh_encoding(self, result_hash):
        expected = canonical_json({"approve_result": result_hash.hex()})
        assert approval_payload(result_hash) == expected
        assert approval_payload(result_hash) == expected


class TestFormSeal:
    def test_seal_formed(self):
        state, _, vkps = base_protocol_state()
        approvals, verifiers = seal_inputs(state, vkps)
        seal = form_seal(b"\x11" * 32, b"\x22" * 32, b"\x33" * 32, approvals, verifiers)
        assert seal is not None
        assert [a.verifier for a in seal.approvals] == sorted(kp.public for kp in vkps)

    def test_exactly_two_thirds_pending(self):
        state, _, vkps = base_protocol_state(n_verifiers=3)
        approvals, verifiers = seal_inputs(state, vkps[:2])
        seal = form_seal(b"\x11" * 32, b"\x22" * 32, b"\x33" * 32, approvals, verifiers)
        assert seal is None

    def test_pending_challenge_blocks(self):
        # A full approval quorum forms the seal, but no node accepts it while
        # a challenge against the sealed result is still open.
        state, _, vkps = base_protocol_state()
        approvals, verifiers = seal_inputs(state, vkps)
        seal = form_seal(b"\x11" * 32, b"\x22" * 32, b"\x33" * 32, approvals, verifiers)
        assert seal is not None
        assert not validate_seal(
            seal,
            verifiers,
            result_lookup=lambda rh: (b"\x11" * 32, b"\x33" * 32),
            parent_result_sealed=lambda rh: True,
            challenge_pending=lambda rh: rh == b"\x22" * 32,
        )

    def test_bad_signature_not_counted(self):
        state, _, vkps = base_protocol_state(n_verifiers=3)
        approvals, verifiers = seal_inputs(state, vkps)
        approvals[0] = dataclasses.replace(approvals[0], signature=b"\x00" * 32)  # 2 of 3 valid
        assert form_seal(b"\x11" * 32, b"\x22" * 32, b"\x33" * 32, approvals, verifiers) is None


class TestValidateSeal:
    def make(self, state, vkps, result_hash=b"\x22" * 32):
        approvals, verifiers = seal_inputs(state, vkps, result_hash)
        return form_seal(b"\x11" * 32, result_hash, b"\x33" * 32, approvals, verifiers)

    def check(self, seal, verifiers, result=(b"\x11" * 32, b"\x33" * 32), parent_sealed=True,
              pending=False):
        return validate_seal(
            seal,
            verifiers,
            result_lookup=lambda rh: result,
            parent_result_sealed=lambda rh: parent_sealed,
            challenge_pending=lambda rh: pending,
        )

    def test_roundtrip_valid(self):
        state, _, vkps = base_protocol_state()
        assert self.check(self.make(state, vkps), members(state, Role.VERIFICATION))

    def test_unknown_result_rejected(self):
        state, _, vkps = base_protocol_state()
        assert not self.check(self.make(state, vkps), members(state, Role.VERIFICATION), result=None)

    def test_field_mismatch_rejected(self):
        state, _, vkps = base_protocol_state()
        seal = self.make(state, vkps)
        verifiers = members(state, Role.VERIFICATION)
        assert not self.check(seal, verifiers, result=(b"\x99" * 32, b"\x33" * 32))

    def test_pending_challenge_rejected(self):
        state, _, vkps = base_protocol_state()
        assert not self.check(self.make(state, vkps), members(state, Role.VERIFICATION), pending=True)

    def test_unsealed_parent_rejected(self):
        state, _, vkps = base_protocol_state()
        verifiers = members(state, Role.VERIFICATION)
        assert not self.check(self.make(state, vkps), verifiers, parent_sealed=False)

    def test_every_listed_approval_must_count(self):
        state, _, vkps = base_protocol_state()
        verifiers = members(state, Role.VERIFICATION)
        seal = self.make(state, vkps)

        def with_approvals(approvals):
            return dataclasses.replace(seal, approvals=tuple(approvals))

        assert self.check(with_approvals(seal.approvals), verifiers)
        duplicate = with_approvals(seal.approvals + seal.approvals[:1])
        assert not self.check(duplicate, verifiers)
        forged_sig = dataclasses.replace(seal.approvals[-1], signature=b"\x00" * 32)
        assert not self.check(with_approvals(seal.approvals[:-1] + (forged_sig,)), verifiers)
        outsider = crypto.StakingKeyPair.from_seed(b"\x77" * 32)
        extra = with_approvals(seal.approvals + (approve(outsider, seal.execution_result_hash),))
        assert not self.check(extra, verifiers)
        # the last approver's valid signature, but over another result
        last = next(kp for kp in vkps if kp.public == seal.approvals[-1].verifier)
        elsewhere = approve(last, b"\x23" * 32)
        assert elsewhere.valid()
        assert not self.check(with_approvals(seal.approvals[:-1] + (elsewhere,)), verifiers)
        assert not self.check(with_approvals(()), verifiers)


class TestSharedApprovalCheck:
    """`Approval.valid` keeps the signature check on the approval object,
    which a verifier broadcasts to every consensus node and every seal that
    includes it carries; a twin built with `dataclasses.replace` is checked
    on its own."""

    def test_one_signature_check_per_approval(self, monkeypatch):
        calls = []
        real = crypto.staking_verify

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(crypto, "staking_verify", counting)
        state, _, vkps = base_protocol_state()
        approvals, verifiers = seal_inputs(state, vkps)
        for _ in range(7):  # every consensus node receives each approval
            assert all(a.valid() for a in approvals)
        seals = [form_seal(b"\x11" * 32, b"\x22" * 32, b"\x33" * 32, approvals, verifiers)
                 for _ in range(3)]  # three leaders propose the seal
        for seal in seals:
            for _ in range(7):  # every voter validates it
                assert TestValidateSeal().check(seal, verifiers)
        assert sorted(calls) == sorted(kp.public for kp in vkps)

    def test_forged_twin_rejected_after_original_accepted(self):
        state, _, vkps = base_protocol_state()
        original = approve(vkps[0])
        assert original.valid()
        assert not dataclasses.replace(original, signature=b"\x00" * 32).valid()
        assert not dataclasses.replace(original, result_hash=b"\x23" * 32).valid()
        assert not dataclasses.replace(original, verifier=vkps[1].public).valid()
        assert original.valid()


class TestSharedReplay:
    """`ProtoBlock.replay` keeps condition 10's replay on the block, keyed by
    the parent state's commitment; twins and other parents get their own."""

    def setup_method(self):
        self.parent, _, _ = base_protocol_state()
        self.key = sorted(self.parent.records)[0]

    def slash(self, amount, key=None):
        entry = {"op": "slash", "key": (key or self.key).hex(), "amount": amount}
        return StateUpdate(entries=(entry,), cause="adjudication")

    def test_replay_computed_once_per_parent(self, monkeypatch):
        import flowpipe.blocks as blocks

        calls = []

        def counting(state, updates):
            calls.append(state.commitment)
            return apply_updates(state, updates)

        monkeypatch.setattr(blocks, "apply_updates", counting)
        pb = ProtoBlock(b"\x10" * 32, 1, (), (), (), (self.slash(3),), b"")
        first = pb.replay(self.parent)
        for _ in range(6):
            assert pb.replay(self.parent) is first
        assert first == apply_updates(self.parent, [self.slash(3)])
        other = apply_updates(self.parent, [self.slash(1, sorted(self.parent.records)[1])])
        assert pb.replay(other) == apply_updates(other, [self.slash(3)]) != first
        assert calls == [self.parent.commitment, other.commitment]

    def test_tampered_block_twin_rejected_after_original_accepted(self):
        pb = propose_proto_block(b"\x10" * 32, 0, self.parent, [], [], [], [self.slash(3)])
        assert evaluate_proposal(pb, plain_context(self.parent)) == (True, None)
        # same committed state, another slash: the twin replays on its own
        twin = dataclasses.replace(pb, protocol_state_updates=(self.slash(4),))
        ctx = plain_context(self.parent)
        assert evaluate_proposal(twin, ctx) == (False, "condition-10:state-commitment")
        assert ctx.new_state is None
        minting = dataclasses.replace(pb, protocol_state_updates=(self.slash(-3),))
        assert evaluate_proposal(minting, plain_context(self.parent))[1] == (
            "condition-10:state-commitment"
        )
        ctx = plain_context(self.parent)
        assert evaluate_proposal(pb, ctx) == (True, None)
        assert ctx.new_state == apply_updates(self.parent, [self.slash(3)])

    def test_other_parent_state_judged_on_its_own(self):
        pb = propose_proto_block(b"\x10" * 32, 0, self.parent, [], [], [], [self.slash(3)])
        assert evaluate_proposal(pb, plain_context(self.parent)) == (True, None)
        other = apply_updates(self.parent, [self.slash(1)])
        assert evaluate_proposal(pb, plain_context(other)) == (
            False,
            "condition-10:state-commitment",
        )


class TestSharedShareCheck:
    """`DrbShare.verified` keeps the share check on the share object that a
    beacon member sends to every consensus node, and `threshold_recover`
    reads that verdict instead of checking the share again."""

    def setup_method(self):
        self.params = crypto.make_params(7)
        entropy = [crypto.hash("drb", bytes([i])) for i in range(7)]
        dkg = crypto.dkg_setup(self.params, entropy)
        self.vv, self.shares = dkg.verification_vector, dkg.shares
        self.message = crypto.hash("block", b"1")

    def test_tampered_share_twin_rejected_after_original_accepted(self):
        from flowpipe.nodes import DrbShare

        msg = DrbShare(self.message, crypto.threshold_sign(self.params, self.shares[0], self.message))
        assert msg.verified(self.params, self.vv) and msg.verified(self.params, self.vv)
        forged = dataclasses.replace(
            msg, share=dataclasses.replace(msg.share, value=(msg.share.value + 1) % self.params.q)
        )
        assert not forged.verified(self.params, self.vv)
        other_block = dataclasses.replace(msg, pb_hash=crypto.hash("block", b"2"))
        assert not other_block.verified(self.params, self.vv)
        impostor = dataclasses.replace(msg, share=dataclasses.replace(msg.share, party_index=2))
        assert not impostor.verified(self.params, self.vv)
        assert msg.verified(self.params, self.vv)

    def test_share_rejected_under_another_committee(self):
        from flowpipe.nodes import DrbShare

        msg = DrbShare(self.message, crypto.threshold_sign(self.params, self.shares[0], self.message))
        assert msg.verified(self.params, self.vv)
        entropy = [crypto.hash("drb-other", bytes([i])) for i in range(7)]
        other_vv = crypto.dkg_setup(self.params, entropy).verification_vector
        assert not msg.verified(self.params, other_vv)
        assert msg.verified(self.params, self.vv)

    def test_recovery_reads_the_share_verdicts(self, monkeypatch):
        from flowpipe.nodes import DrbShare

        calls = []
        real = crypto.signature_share_verify

        def counting(params, vv, sig, message):
            calls.append(sig.party_index)
            return real(params, vv, sig, message)

        counting.__name__ = real.__name__
        monkeypatch.setattr(crypto, "signature_share_verify", counting)
        t = self.params.t
        msgs = [
            DrbShare(self.message, crypto.threshold_sign(self.params, s, self.message))
            for s in self.shares[: t + 1]
        ]
        for _ in range(7):  # every consensus node receives each share
            assert all(m.verified(self.params, self.vv) for m in msgs)
        for _ in range(7):  # and each recovers the group signature
            sigma = crypto.threshold_recover(self.params, self.vv, [m.share for m in msgs], self.message)
        assert crypto.threshold_verify(self.params, sigma, self.vv.group_public_key, self.message)
        assert calls == [m.share.party_index for m in msgs]
        # a share checked under another message is checked afresh, and fails
        with pytest.raises(crypto.InsufficientShares):
            crypto.threshold_recover(self.params, self.vv, [m.share for m in msgs], b"other")
