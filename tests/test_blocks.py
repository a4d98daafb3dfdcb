import dataclasses
import itertools

import pytest

from flowpipe import crypto
from flowpipe.blocks import (
    FACT_KINDS,
    GENESIS_RANDOMNESS,
    Approval,
    BlockSeal,
    ChainCtx,
    ChainView,
    ProtoBlock,
    approval_payload,
    block_seed,
    evaluate_proposal,
    form_seal,
    genesis_ctx,
    propose_proto_block,
    validate_seal,
)
from flowpipe.challenges import (
    adjudicate_challenge,
    challenge_id,
    challenge_mark,
    make_fcc,
    make_mcc,
)
from flowpipe.collection import GuaranteedCollection
from flowpipe.encoding import canonical_json
from flowpipe.execution import GENESIS_RESULT_HASH, ExecutionResult
from flowpipe.nodes import ApprovalMsg
from flowpipe.scenario import build_world, merge_defaults
from flowpipe.state import (
    NodeIdentity,
    ProtocolState,
    Role,
    StakeTable,
    StateUpdate,
    Tally,
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


def plain_view(state: ProtocolState, parent_height=0, final=None, **fields) -> ChainView:
    """The view of a node that holds nothing but its finalized tip, a block
    at `parent_height` after which the protocol state is `state`. The
    finalized prefix records genesis's result as sealed, plus `final`
    (kind -> keys); `fields` replace the view's other fields."""
    tip = dataclasses.replace(genesis_ctx(state), height=parent_height)
    prefix = {kind: set(keys) for kind, keys in tip.facts.items()}
    for kind, keys in (final or {}).items():
        prefix[kind] |= set(keys)
    defaults = dict(
        ctx=tip,
        tip=tip,
        final=prefix,
        fcc_ids={},
        fcc_received=set(),
        verdicts={},
        clusters={0: members(state, Role.COLLECTOR)},
        verifiers=members(state, Role.VERIFICATION),
    )
    defaults.update(fields)
    return ChainView(**defaults)


def extend(view: ChainView, **facts) -> ChainView:
    """The same node's view of the chain through an unfinalized child of
    `view.ctx` whose block records `facts` (kind -> keys)."""
    parent = view.ctx
    ctx = ChainCtx(
        digest=crypto.hash("test-block", parent.digest),
        height=parent.height + 1,
        state=parent.state,
        sealed_tip=parent.sealed_tip,
        parent=parent,
        facts={kind: set(facts.get(kind, ())) for kind in FACT_KINDS},
    )
    return dataclasses.replace(view, ctx=ctx)


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
        bad = StateUpdate(entries=({"op": "stake_delta", "key": "ff" * 32, "delta": 1},))
        pb = propose_proto_block(b"\x10" * 32, 0, state, [], [], [], [bad])
        assert pb.protocol_state_updates == ()
        assert pb.state_commitment == commit_state(state)

    def test_commitment_reflects_accepted_updates(self):
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        upd = StateUpdate(entries=({"op": "slash", "key": key.hex(), "amount": 5},))
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
        assert evaluate_proposal(pb, plain_view(state)) == (True, None)

    def test_condition_2_height_gap(self):
        state, _, _ = base_protocol_state()
        ok, reason = evaluate_proposal(
            empty_proto(state, height=3), plain_view(state, parent_height=0)
        )
        assert not ok and reason.startswith("condition-2")

    def test_condition_4_stale_collection(self):
        state, kps, _ = base_protocol_state()
        coll = crypto.hash("collection", b"a")
        gc = make_guarantee(kps, members(state, Role.COLLECTOR), coll, [0, 1, 2])
        pb = ProtoBlock(b"\x10" * 32, 1, (gc,), (), (), (), commit_state(state))
        for view in (
            plain_view(state, final={"collection": {coll}}),
            extend(plain_view(state), collection={coll}),
        ):
            ok, reason = evaluate_proposal(dataclasses.replace(pb, height=view.ctx.height + 1), view)
            assert not ok and reason.startswith("condition-4")
        # listed twice in one block
        twice = dataclasses.replace(pb, guaranteed_collections=(gc, gc))
        ok, reason = evaluate_proposal(twice, plain_view(state))
        assert not ok and reason.startswith("condition-4")

    def test_condition_5_guarantee_received_in_the_proposal(self):
        # the view holds no announce of it: the proposal itself delivers it
        state, kps, _ = base_protocol_state()
        coll = crypto.hash("collection", b"a")
        gc = make_guarantee(kps, members(state, Role.COLLECTOR), coll, [0, 1, 2])
        pb = ProtoBlock(b"\x10" * 32, 1, (gc,), (), (), (), commit_state(state))
        assert evaluate_proposal(pb, plain_view(state)) == (True, None)

    def test_condition_5_forged_guarantee_fails_condition_6(self):
        # signatures over another collection's guarantee, copied onto this one
        state, kps, _ = base_protocol_state()
        other = make_guarantee(
            kps, members(state, Role.COLLECTOR), crypto.hash("collection", b"b"), [0, 1, 2]
        )
        gc = dataclasses.replace(other, collection_hash=crypto.hash("collection", b"a"))
        pb = ProtoBlock(b"\x10" * 32, 1, (gc,), (), (), (), commit_state(state))
        ok, reason = evaluate_proposal(pb, plain_view(state))
        assert not ok and reason.startswith("condition-6")

    def test_condition_6_insufficient_signers(self):
        state, kps, _ = base_protocol_state()
        coll = crypto.hash("collection", b"a")
        gc = make_guarantee(kps, members(state, Role.COLLECTOR), coll, [0, 1])  # 50%
        pb = ProtoBlock(b"\x10" * 32, 1, (gc,), (), (), (), commit_state(state))
        ok, reason = evaluate_proposal(pb, plain_view(state))
        assert not ok and reason.startswith("condition-6")

    def test_condition_8_seal_invalid(self):
        # the sealed block is on the chain, but the seal lists no approval
        state, _, _ = base_protocol_state()
        result = ExecutionResult(b"\x01" * 32, GENESIS_RESULT_HASH, (), b"\x03" * 32)
        seal = BlockSeal(result, ())
        pb = ProtoBlock(b"\x10" * 32, 1, (), (seal,), (), (), commit_state(state))
        view = plain_view(state, final={"block": {result.block_hash}})
        ok, reason = evaluate_proposal(pb, view)
        assert not ok and reason.startswith("condition-8")

    def test_condition_9_challenge_unverified(self):
        state, _, _ = base_protocol_state()
        pb = ProtoBlock(
            b"\x10" * 32, 1, (), (), ({"kind": "bogus"},), (), commit_state(state)
        )
        ok, reason = evaluate_proposal(pb, plain_view(state))
        assert not ok and reason.startswith("condition-9")

    def test_condition_10_tampered_commitment(self):
        state, _, _ = base_protocol_state()
        pb = ProtoBlock(b"\x10" * 32, 1, (), (), (), (), b"\xde" * 32)
        ok, reason = evaluate_proposal(pb, plain_view(state))
        assert not ok and reason.startswith("condition-10")

    def test_condition_10_unknown_update_op(self):
        # a slash is the only op; any other rejects the block's whole update list
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        bad = StateUpdate(entries=({"op": "mint", "key": key.hex(), "amount": 5},))
        pb = ProtoBlock(b"\x10" * 32, 1, (), (), (), (bad,), commit_state(state))
        assert evaluate_proposal(pb, plain_view(state)) == (False, "condition-10:state-commitment")
        assert pb.replay(state) is None

    def test_condition_10_negative_slash(self):
        # the block commits to the state a slash of -25 would mint; replay
        # rejects the slash instead of reaching that state
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        minted = ProtocolState(
            records={**state.records, key: dataclasses.replace(state.records[key], stake=35)},
            total_slashed=-25,
        )
        upd = StateUpdate(entries=({"op": "slash", "key": key.hex(), "amount": -25},))
        pb = ProtoBlock(b"\x10" * 32, 1, (), (), (), (upd,), commit_state(minted))
        assert evaluate_proposal(pb, plain_view(state)) == (False, "condition-10:state-commitment")
        assert pb.replay(state) is None

    def test_condition_10_replay_matches(self):
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        upd = StateUpdate(entries=({"op": "slash", "key": key.hex(), "amount": 3},))
        pb = propose_proto_block(b"\x10" * 32, 0, state, [], [], [], [upd])
        assert evaluate_proposal(pb, plain_view(state)) == (True, None)

    def test_accepted_proposal_hands_back_replayed_state(self):
        # the caller reads the accepted block's state from the replay that
        # condition 10 kept on the block
        state, _, _ = base_protocol_state()
        key = sorted(state.records)[0]
        upd = StateUpdate(entries=({"op": "slash", "key": key.hex(), "amount": 3},))
        pb = propose_proto_block(b"\x10" * 32, 0, state, [], [], [], [upd])
        assert evaluate_proposal(pb, plain_view(state)) == (True, None)
        assert pb.replay(state) == apply_updates(state, [upd])
        assert evaluate_proposal(pb, plain_view(state, parent_height=3))[0] is False


def sealed_result(state, vkps, prev=GENESIS_RESULT_HASH, tag=b"r1"):
    """A result extending `prev`, and its seal by every verifier."""
    result = ExecutionResult(crypto.hash("block", tag), prev, (), crypto.hash("state", tag))
    return result, form_seal(result, counted(*seal_inputs(state, vkps, result.result_hash())))


def with_seals(state, *seals) -> ProtoBlock:
    return ProtoBlock(b"\x10" * 32, 1, (), seals, (), (), commit_state(state))


def with_challenges(state, *challenges) -> ProtoBlock:
    return ProtoBlock(b"\x10" * 32, 1, (), (), challenges, (), commit_state(state))


EXECUTOR = crypto.StakingKeyPair.from_seed(b"\x91" * 32)
CHALLENGER = crypto.StakingKeyPair.from_seed(b"\x92" * 32)


def fcc(result_hash=b"\x22" * 32, challenger=CHALLENGER, signer=EXECUTOR):
    """A faulty-computation challenge against EXECUTOR's result, carrying
    `signer`'s signature over the result."""
    return make_fcc(challenger.public, EXECUTOR.public, result_hash, 0, signer.sign(result_hash))


class TestSealCondition:
    """Condition 8 over the chain view, which holds no receipt: the seal's
    block is on the chain, no faulty-computation challenge (FCC) against
    its result is pending on the chain or here, its previous result is the
    sealed tip of the chain or the seal listed before it in the block, and
    the approvals of its result's hash carry a verifier quorum."""

    def setup_method(self):
        self.state, _, self.vkps = base_protocol_state()
        self.result, self.seal = sealed_result(self.state, self.vkps)
        self.rh = self.seal.execution_result_hash
        self.cid = fcc(self.rh).challenge_id

    def view(self, final=None, **fields) -> ChainView:
        """The view of a node whose finalized prefix records the sealed
        result's block, unless `final` names the blocks it records."""
        blocks = {self.result.block_hash}
        return plain_view(self.state, final={"block": blocks, **(final or {})}, **fields)

    def test_sealable_result_accepted(self):
        assert evaluate_proposal(with_seals(self.state, self.seal), self.view()) == (True, None)

    def test_result_changed_after_approval_rejected(self):
        # the approvals sign the approved result's hash, not the changed one's
        forged = dataclasses.replace(self.result, final_state=crypto.hash("state", b"forged"))
        changed = dataclasses.replace(self.seal, result=forged)
        assert evaluate_proposal(with_seals(self.state, changed), self.view()) == (
            False,
            "condition-8:seal-invalid",
        )

    def test_recorded_unadjudicated_fcc_blocks(self):
        fccs = {"fcc_ids": {self.rh: {self.cid}}}
        recorded = (
            self.view(final={"fcc": {(self.rh, self.cid)}}, **fccs),
            extend(self.view(**fccs), fcc={(self.rh, self.cid)}),
        )
        for view in recorded:
            pb = dataclasses.replace(with_seals(self.state, self.seal), height=view.ctx.height + 1)
            assert evaluate_proposal(pb, view) == (False, "condition-8:seal-invalid")
        # dismissed on the chain, it blocks nothing; upheld, it blocks for good
        facts = {"fcc": {(self.rh, self.cid)}, "adjudicated": {self.cid}}
        dismissed = self.view(final=facts, **fccs)
        assert evaluate_proposal(with_seals(self.state, self.seal), dismissed) == (True, None)
        upheld = self.view(final=dict(facts, upheld={self.cid}), **fccs)
        assert not evaluate_proposal(with_seals(self.state, self.seal), upheld)[0]

    def test_received_fcc_not_dismissed_blocks(self):
        received = dict(fcc_ids={self.rh: {self.cid}}, fcc_received={self.cid})
        pb = with_seals(self.state, self.seal)
        # no verdict here yet, or the accused upheld here
        _, slash = adjudicate_challenge(self.state, fcc(self.rh), accused_at_fault=True)
        for verdicts in ({}, {self.cid: slash}):
            view = self.view(verdicts=verdicts, **received)
            assert evaluate_proposal(pb, view) == (False, "condition-8:seal-invalid")
        # dismissed here: the challenger is slashed and the seal may go in
        _, dismissal = adjudicate_challenge(self.state, fcc(self.rh), accused_at_fault=False)
        view = self.view(verdicts={self.cid: dismissal}, **received)
        assert evaluate_proposal(pb, view) == (True, None)

    def test_seals_chain_within_one_block(self):
        second, seal2 = sealed_result(self.state, self.vkps, prev=self.rh, tag=b"r2")
        view = self.view(final={"block": {self.result.block_hash, second.block_hash}})
        assert evaluate_proposal(with_seals(self.state, self.seal, seal2), view) == (True, None)
        reversed_order = with_seals(self.state, seal2, self.seal)
        assert evaluate_proposal(reversed_order, view) == (False, "condition-8:seal-invalid")
        # the second alone extends a result the chain has not sealed
        assert not evaluate_proposal(with_seals(self.state, seal2), view)[0]

    def test_result_sealed_on_the_chain_rejected(self):
        for view in (
            self.view(final={"sealed": {self.rh}}),
            extend(self.view(), sealed={self.rh}),
        ):
            pb = dataclasses.replace(with_seals(self.state, self.seal), height=view.ctx.height + 1)
            assert evaluate_proposal(pb, view) == (False, "condition-8:seal-invalid")

    def test_result_sealed_twice_in_one_block_rejected(self):
        pb = with_seals(self.state, self.seal, self.seal)
        assert evaluate_proposal(pb, self.view()) == (False, "condition-8:seal-invalid")

    def test_block_sealed_at_most_once(self):
        # R' is a second result of the sealed result's block, on the same
        # previous result, with a verifier quorum of its own
        sibling = ExecutionResult(
            self.result.block_hash, GENESIS_RESULT_HASH, (), crypto.hash("state", b"r1'")
        )
        rh2 = sibling.result_hash()
        seal2 = form_seal(sibling, counted(*seal_inputs(self.state, self.vkps, rh2)))
        view = self.view()
        # its seal passes alone, but not once R is sealed earlier in the block
        assert evaluate_proposal(with_seals(self.state, seal2), view) == (True, None)
        both = with_seals(self.state, self.seal, seal2)
        assert evaluate_proposal(both, view) == (False, "condition-8:seal-invalid")
        # nor on a chain whose sealed tip is R
        tip = dataclasses.replace(view.ctx, sealed_tip=self.rh)
        tip.facts["sealed"].add(self.rh)
        sealed = dataclasses.replace(view, ctx=tip, tip=tip)
        assert evaluate_proposal(with_seals(self.state, seal2), sealed) == (
            False,
            "condition-8:seal-invalid",
        )

    def test_sealed_block_off_the_chain_rejected(self):
        off = self.view(final={"block": set()})
        pb = with_seals(self.state, self.seal)
        assert evaluate_proposal(pb, off) == (False, "condition-8:seal-invalid")
        # an unfinalized ancestor that is the sealed block puts it on the chain
        view = extend(off, block={self.result.block_hash})
        pb = dataclasses.replace(pb, height=view.ctx.height + 1)
        assert evaluate_proposal(pb, view) == (True, None)


class TestChallengeCondition:
    """Condition 9 over the chain view: a listed challenge's id covers its
    fields, an FCC carries the accused executor's signature over the
    result, and its mark is on neither the chain nor earlier in the block."""

    def setup_method(self):
        self.state, _, _ = base_protocol_state()

    def judge(self, *challenges, view=None):
        view = view or plain_view(self.state)
        pb = dataclasses.replace(
            with_challenges(self.state, *challenges), height=view.ctx.height + 1
        )
        return evaluate_proposal(pb, view)

    def test_valid_challenges_accepted(self):
        mcc = make_mcc(CHALLENGER.public, (EXECUTOR.public,), b"\x66" * 32)
        assert self.judge(fcc(), mcc) == (True, None)

    def test_wrong_challenge_id_rejected(self):
        forged = dataclasses.replace(fcc(), challenge_id=b"\x00" * 32)
        assert self.judge(forged) == (False, "condition-9:challenge-unverified")
        # a field changed after the id was computed
        moved = dataclasses.replace(fcc(), challenger=EXECUTOR.public)
        assert self.judge(moved) == (False, "condition-9:challenge-unverified")

    def test_fcc_without_executor_signature_rejected(self):
        unsigned = fcc(signer=CHALLENGER)
        assert unsigned.challenge_id == challenge_id(unsigned)
        assert self.judge(unsigned) == (False, "condition-9:challenge-unverified")

    def test_mark_on_the_chain_rejected(self):
        mark = challenge_mark(fcc())
        for view in (
            plain_view(self.state, final={"challenged": {mark}}),
            extend(plain_view(self.state), challenged={mark}),
        ):
            assert self.judge(fcc(), view=view) == (False, "condition-9:challenge-unverified")
        # another result's FCC is not blocked by that mark
        assert self.judge(fcc(b"\x23" * 32), view=view) == (True, None)

    def test_mark_listed_twice_rejected(self):
        other = crypto.StakingKeyPair.from_seed(b"\x93" * 32)
        twin = fcc(challenger=other)
        assert twin.challenge_id != fcc().challenge_id
        assert challenge_mark(twin) == challenge_mark(fcc())
        for listed in ((fcc(), fcc()), (fcc(), twin)):
            assert self.judge(*listed) == (False, "condition-9:challenge-unverified")


class TestChainView:
    def test_lookup_walks_ancestors_then_the_prefix(self):
        state, _, _ = base_protocol_state()
        view = extend(extend(plain_view(state, final={"sealed": {b"\x01" * 32}}), sealed={b"\x02" * 32}))
        for rh in (b"\x01" * 32, b"\x02" * 32, GENESIS_RESULT_HASH):
            assert view.on_chain("sealed", rh)
        assert not view.on_chain("sealed", b"\x03" * 32)

    def test_context_off_the_tip_sees_only_its_own_facts(self):
        state, _, _ = base_protocol_state()
        view = plain_view(state, final={"sealed": {b"\x01" * 32}})
        stale = dataclasses.replace(view.tip, digest=b"\x0f" * 32, facts={k: set() for k in FACT_KINDS})
        off = extend(dataclasses.replace(view, ctx=stale), sealed={b"\x02" * 32})
        assert off.on_chain("sealed", b"\x02" * 32)
        assert not off.on_chain("sealed", b"\x01" * 32)


class TestRandomnessAttachment:
    """The beacon as verifiers run it (`VerificationNode._on_finalized`):
    recover the group signature over the block hash from t+1 shares and
    derive the block seed with `block_seed`. The node does not check the
    recovered value against the group key; these tests do, to show that
    any t+1 valid shares give the group signature."""

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


# a result of block 0x11.. with final state 0x33..
PENDING = ExecutionResult(b"\x11" * 32, GENESIS_RESULT_HASH, (), b"\x33" * 32)


def approve(kp, result_hash=PENDING.result_hash()) -> Approval:
    return Approval(result_hash, kp.public, kp.sign(approval_payload(result_hash)))


def seal_inputs(state, vkps, result_hash=PENDING.result_hash()):
    approvals = [approve(kp, result_hash) for kp in vkps]
    verifiers = members(state, Role.VERIFICATION)
    return approvals, verifiers


def counted(approvals, verifiers) -> Tally:
    """`approvals` counted into a `Tally` of `verifiers`, as a consensus
    node's intake counts them."""
    tally = Tally(verifiers)
    for a in approvals:
        if tally.admits(a.verifier) and a.valid():
            tally.add(a.verifier, a)
    return tally


class TestApprovalPayload:
    @pytest.mark.parametrize("result_hash", [b"\x00" * 32, b"\x22" * 32, bytes(range(32))])
    def test_equals_fresh_encoding(self, result_hash):
        expected = canonical_json({"approve_result": result_hash.hex()})
        assert approval_payload(result_hash) == expected
        assert approval_payload(result_hash) == expected


class TestFormSeal:
    """`form_seal` seals on the certificate of the node's intake tally of
    the result's approvals (`ConsensusNode._on_approval`), once it holds a
    verifier quorum."""

    def test_seal_formed(self):
        state, _, vkps = base_protocol_state()
        seal = form_seal(PENDING, counted(*seal_inputs(state, vkps)))
        assert seal is not None
        assert [a.verifier for a in seal.approvals] == sorted(kp.public for kp in vkps)
        assert seal.result is PENDING and seal.sealed_block_hash == b"\x11" * 32
        assert seal.execution_result_hash == PENDING.result_hash()

    def test_exactly_two_thirds_pending(self):
        state, _, vkps = base_protocol_state(n_verifiers=3)
        tally = counted(*seal_inputs(state, vkps[:2]))
        assert not tally.quorum
        assert form_seal(PENDING, tally) is None
        assert form_seal(PENDING, None) is None

    def test_pending_challenge_blocks(self):
        # A full approval quorum forms the seal, but no node accepts it while
        # a challenge against the sealed result is still open.
        state, _, vkps = base_protocol_state()
        approvals, verifiers = seal_inputs(state, vkps)
        seal = form_seal(PENDING, counted(approvals, verifiers))
        assert seal is not None
        assert not TestValidateSeal().check(seal, verifiers, pending=True)

    def test_bad_signature_not_counted(self):
        """Consensus intake drops an approval whose signature fails, so the
        tally it seals on never counts one: with two of five verifiers'
        signatures forged, the result has no seal."""
        world = build_world(merge_defaults({}))
        n0 = world.consensus[0]
        rh = crypto.hash("result", b"pending")
        assert len(world.verifiers) == 5
        for i, v in enumerate(world.verifiers):
            a = approve(v.keypair, rh)
            if i < 2:
                a = dataclasses.replace(a, signature=b"\x00" * 32)
            n0.handle(v.name, ApprovalMsg(a))
        assert sorted(n0.approvals[rh]) == sorted(v.keypair.public for v in world.verifiers[2:])
        assert form_seal(PENDING, n0.approvals[rh]) is None


class TestValidateSeal:
    def make(self, state, vkps, result=PENDING):
        return form_seal(result, counted(*seal_inputs(state, vkps, result.result_hash())))

    def check(self, seal, verifiers, pending=False):
        """`validate_seal` on the view of a node that holds no receipt, with
        genesis's result as the sealed tip, the sealed block on the chain,
        and an unadjudicated FCC against the result recorded there when
        `pending`."""
        rh = seal.execution_result_hash
        cid = b"\x55" * 32
        final = {"block": {seal.sealed_block_hash}}
        if pending:
            final["fcc"] = {(rh, cid)}
        view = plain_view(
            ProtocolState(records={}),
            final=final,
            fcc_ids={rh: {cid}} if pending else {},
            verifiers=verifiers,
        )
        return validate_seal(seal, view)

    def test_roundtrip_valid(self):
        state, _, vkps = base_protocol_state()
        assert self.check(self.make(state, vkps), members(state, Role.VERIFICATION))

    def test_field_mismatch_rejected(self):
        # the carried result's block changed after approval, to a block on
        # the chain: the approvals sign the approved result's hash
        state, _, vkps = base_protocol_state()
        seal = self.make(state, vkps)
        moved = dataclasses.replace(PENDING, block_hash=b"\x99" * 32)
        verifiers = members(state, Role.VERIFICATION)
        assert not self.check(dataclasses.replace(seal, result=moved), verifiers)

    def test_pending_challenge_rejected(self):
        state, _, vkps = base_protocol_state()
        assert not self.check(self.make(state, vkps), members(state, Role.VERIFICATION), pending=True)

    def test_unsealed_parent_rejected(self):
        state, _, vkps = base_protocol_state()
        verifiers = members(state, Role.VERIFICATION)
        orphan = dataclasses.replace(PENDING, previous_execution_result_hash=b"\x44" * 32)
        assert not self.check(self.make(state, vkps, orphan), verifiers)

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
        tallies = [counted(approvals, verifiers) for _ in range(3)]
        seals = [form_seal(PENDING, t) for t in tallies]  # three leaders seal
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
        return StateUpdate(entries=(entry,))

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
        assert evaluate_proposal(pb, plain_view(self.parent)) == (True, None)
        # same committed state, another slash: the twin replays on its own
        twin = dataclasses.replace(pb, protocol_state_updates=(self.slash(4),))
        assert evaluate_proposal(twin, plain_view(self.parent)) == (
            False,
            "condition-10:state-commitment",
        )
        assert twin.replay(self.parent) != pb.replay(self.parent)
        minting = dataclasses.replace(pb, protocol_state_updates=(self.slash(-3),))
        assert evaluate_proposal(minting, plain_view(self.parent))[1] == (
            "condition-10:state-commitment"
        )
        assert evaluate_proposal(pb, plain_view(self.parent)) == (True, None)
        assert pb.replay(self.parent) == apply_updates(self.parent, [self.slash(3)])

    def test_other_parent_state_judged_on_its_own(self):
        pb = propose_proto_block(b"\x10" * 32, 0, self.parent, [], [], [], [self.slash(3)])
        assert evaluate_proposal(pb, plain_view(self.parent)) == (True, None)
        other = apply_updates(self.parent, [self.slash(1)])
        assert evaluate_proposal(pb, plain_view(other)) == (
            False,
            "condition-10:state-commitment",
        )


class TestSharedShareCheck:
    """`SignatureShare.verified` keeps the share check on the share object
    that a beacon member sends to every verifier in its `Finalized` copy,
    and `threshold_recover` reads that verdict instead of checking the
    share again."""

    def setup_method(self):
        self.params = crypto.make_params(7)
        entropy = [crypto.hash("drb", bytes([i])) for i in range(7)]
        dkg = crypto.dkg_setup(self.params, entropy)
        self.vv, self.shares = dkg.verification_vector, dkg.shares
        self.message = crypto.hash("block", b"1")

    def sign(self, share):
        return crypto.threshold_sign(self.params, share, self.message)

    def test_tampered_share_twin_rejected_after_original_accepted(self):
        sig = self.sign(self.shares[0])
        assert sig.verified(self.params, self.vv, self.message)
        assert sig.verified(self.params, self.vv, self.message)
        forged = dataclasses.replace(sig, value=(sig.value + 1) % self.params.q)
        assert not forged.verified(self.params, self.vv, self.message)
        assert not sig.verified(self.params, self.vv, crypto.hash("block", b"2"))
        impostor = dataclasses.replace(sig, party_index=2)
        assert not impostor.verified(self.params, self.vv, self.message)
        assert sig.verified(self.params, self.vv, self.message)

    def test_share_rejected_under_another_committee(self):
        sig = self.sign(self.shares[0])
        assert sig.verified(self.params, self.vv, self.message)
        entropy = [crypto.hash("drb-other", bytes([i])) for i in range(7)]
        other_vv = crypto.dkg_setup(self.params, entropy).verification_vector
        assert not sig.verified(self.params, other_vv, self.message)
        assert sig.verified(self.params, self.vv, self.message)

    def test_recovery_reads_the_share_verdicts(self, monkeypatch):
        calls = []
        real = crypto.signature_share_verify

        def counting(params, vv, sig, message):
            calls.append(sig.party_index)
            return real(params, vv, sig, message)

        counting.__name__ = real.__name__
        monkeypatch.setattr(crypto, "signature_share_verify", counting)
        t = self.params.t
        sigs = [self.sign(s) for s in self.shares[: t + 1]]
        for _ in range(7):  # every verifier receives each share
            assert all(s.verified(self.params, self.vv, self.message) for s in sigs)
        for _ in range(7):  # and each recovers the group signature
            sigma = crypto.threshold_recover(self.params, self.vv, sigs, self.message)
        assert crypto.threshold_verify(self.params, sigma, self.vv.group_public_key, self.message)
        assert calls == [s.party_index for s in sigs]
        # a share checked under another message is checked afresh, and fails
        with pytest.raises(crypto.InsufficientShares):
            crypto.threshold_recover(self.params, self.vv, sigs, b"other")
