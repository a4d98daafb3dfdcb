"""The random beacon runs at its one reader. When a beacon committee member
finalizes a block, its `Finalized` copy of the block to every verifier
carries its share of the block; a verifier keeps the shares that pass
their check, recovers the block's threshold signature from the first t+1
of them, frees the block's bucket, seeds the block with `block_seed`, and
judges the receipts that waited for the seed, in the order their results'
first receipts arrived. A copy without a share, or with a share that
fails its check over the copy's block, opens no bucket. No consensus node
receives a share. The member resends its copy until a finalized block
seals the block, so a share lost before GST still arrives.

Because any t+1 valid shares recover the same signature, the seed is the
one the whole committee defines: end to end, every verifier's seed of
every block observer n0 finalized equals the seed recomputed here from the
directory's DKG shares (`tests/test_message_mix.py` checks it on
happy-path)."""

import dataclasses
import itertools
from importlib import resources

import pytest

from flowpipe import crypto
from flowpipe.blocks import block_seed, propose_proto_block
from flowpipe.hotstuff import GENESIS_DIGEST
from flowpipe.nodes import SHARE_RESEND, ApprovalMsg, Finalized, ReceiptMsg, VerificationNode
from flowpipe.scenario import build_world, load_scenario, merge_defaults, run_world


def expected_seed(directory, pb_hash: bytes) -> bytes:
    """The block's seed, recovered from the first t+1 committee shares and
    checked against the group key."""
    params = directory.params
    shares = [
        crypto.threshold_sign(params, share, pb_hash)
        for share in list(directory.drb_committee.values())[: params.t + 1]
    ]
    sigma = crypto.threshold_recover(params, directory.drb_vv, shares, pb_hash)
    assert crypto.threshold_verify(params, sigma, directory.drb_vv.group_public_key, pb_hash)
    return block_seed(sigma.value)


class TestVerifierRecovers:
    """Verifier v0 of the default world holds executor e0's receipt for an
    empty finalized block and is handed the committee's shares one by one."""

    def setup_method(self):
        self.world = build_world(merge_defaults({}))
        self.sent = []
        self.world.sim.send = lambda sender, receiver, msg: self.sent.append((receiver, msg))
        self.d = self.world.directory
        self.pb = propose_proto_block(GENESIS_DIGEST, 0, self.d.initial_state, [], [], [], [])
        self.block = self.pb.hash()
        e0 = self.world.executors[0]
        e0.handle(self.world.consensus[0].name, Finalized(self.pb))
        self.verifier = self.world.verifiers[0]
        self.receipt = next(m for r, m in self.sent if r == self.verifier.name and isinstance(m, ReceiptMsg))
        self.sent.clear()
        self.members = [
            (self.d.name_of[key], Finalized(self.pb, crypto.threshold_sign(self.d.params, share, self.block)))
            for key, share in self.d.drb_committee.items()
        ]

    def hand(self, verifier, members):
        for name, msg in members:
            verifier.handle(name, msg)

    def approvals(self) -> list:
        return [m for _, m in self.sent if isinstance(m, ApprovalMsg)]

    def test_t_shares_leave_the_receipt_waiting(self):
        v, t = self.verifier, self.d.params.t
        v.handle(self.world.executors[0].name, self.receipt)
        self.hand(v, self.members[:t])
        assert self.block not in v.seeds
        assert len(v.drb_shares[self.block]) == t
        assert list(v.pending) == [self.receipt.receipt.execution_result.result_hash()]
        assert not self.sent
        assert not self.world.sim.log.select("randomness")

    def test_share_t_plus_one_seeds_the_block_and_judges_the_receipt(self):
        v, t = self.verifier, self.d.params.t
        v.handle(self.world.executors[0].name, self.receipt)
        self.hand(v, self.members[: t + 1])
        assert v.seeds[self.block] == expected_seed(self.d, self.block)
        assert not v.drb_shares and not v.pending
        rh = self.receipt.receipt.execution_result.result_hash()
        assert [a.approval.result_hash for a in self.approvals()] == [rh] * len(self.world.consensus)
        records = self.world.sim.log.select("randomness")
        assert [(r["node"], r["payload"]["block"]) for r in records] == [(v.name, self.block.hex())]

    def test_any_t_plus_one_members_give_the_same_seed(self):
        t = self.d.params.t
        want = expected_seed(self.d, self.block)
        subsets = list(itertools.combinations(self.members, t + 1))
        assert len(subsets) > 1
        for subset in subsets:
            v = VerificationNode(self.world.sim, self.verifier.name, self.verifier.keypair, self.d)
            self.hand(v, subset)
            assert v.seeds == {self.block: want}

    @pytest.mark.parametrize("fault", ["value", "party-index", "missing", "forged", "other-block"])
    def test_an_invalid_share_keeps_no_bucket(self, fault):
        """A copy whose share is altered, absent, signed with a key outside
        the committee's DKG, or signed over another block."""
        v, params = self.verifier, self.d.params
        name, msg = self.members[0]
        share = msg.share
        if fault == "value":
            share = dataclasses.replace(share, value=(share.value + 1) % params.q)
        elif fault == "party-index":
            share = dataclasses.replace(share, party_index=len(self.members) + 1)
        elif fault == "missing":
            share = None
        elif fault == "forged":
            secret = self.d.drb_committee[self.d.key_of[name]]
            outsider = dataclasses.replace(secret, value=(secret.value + 1) % params.q)
            share = crypto.threshold_sign(params, outsider, self.block)
        else:
            other = propose_proto_block(self.block, 1, self.d.initial_state, [], [], [], []).hash()
            share = crypto.threshold_sign(params, self.d.drb_committee[self.d.key_of[name]], other)
        v.handle(name, dataclasses.replace(msg, share=share))
        assert not v.drb_shares and not v.seeds

    def test_a_share_after_recovery_keeps_no_bucket(self):
        v, t = self.verifier, self.d.params.t
        self.hand(v, self.members[: t + 1])
        assert self.block in v.seeds and not v.drb_shares
        self.hand(v, self.members[t + 1 :])
        assert not v.drb_shares
        assert len(self.world.sim.log.select("randomness")) == 1


class TestMemberResends:
    """A committee member that finalized a block resends its `Finalized` copy
    with its share to every verifier every `SHARE_RESEND` base timeouts
    until a finalized block seals the block, when `_on_finalize` drops the
    copy from `beacon_shares`."""

    def test_resent_until_sealed(self):
        world = build_world(merge_defaults({}))
        d, sim = world.directory, world.sim
        sends = []
        sim.send = lambda sender, receiver, msg: sends.append((sim.now, sender, receiver, msg))
        member = next(n for n in world.consensus if n.keypair.public in d.drb_committee)
        pb = propose_proto_block(GENESIS_DIGEST, 0, d.initial_state, [], [], [], [])
        block = pb.hash()
        share = Finalized(pb, crypto.threshold_sign(d.params, d.drb_committee[member.keypair.public], block))
        member.beacon_shares[block] = share
        member._send_share(block)
        period = SHARE_RESEND * d.base_timeout
        sim.run(until=2 * period + period // 2)
        ticks = sorted({t for t, _, _, _ in sends})
        assert len(ticks) == 3 and ticks[0] == 0
        assert ticks[1] - ticks[0] == ticks[2] - ticks[1] >= period
        assert all(msg is share and sender == member.name for _, sender, _, msg in sends)
        assert sorted(r for t, _, r, _ in sends if t == ticks[2]) == sorted(d.verifier_names)
        del member.beacon_shares[block]  # as `_on_finalize` does at the seal
        sends.clear()
        sim.run(until=10 * period)
        assert not sends


def bundled(name: str) -> dict:
    return load_scenario(str(resources.files("flowpipe") / "scenarios" / f"{name}.json"))


def assert_seeded(world, blocks) -> None:
    for digest in blocks:
        want = expected_seed(world.directory, digest)
        assert all(v.seeds.get(digest) == want for v in world.verifiers), digest.hex()


def test_shares_lost_before_gst_are_resent():
    """pre-gst-chaos at seed 7 finalizes two blocks at n0 before GST (tick
    10,000), where the network drops 30% of messages. Sent once, the
    committee members' copies of them leave verifier v1 without t+1 shares
    of a block (as a run with `SHARE_RESEND` beyond the horizon shows). The
    resends give every verifier every such block's seed."""
    doc = bundled("pre-gst-chaos")
    world = build_world(doc, 7)
    run_world(world)
    gst = doc["network"]["gst"]
    early = [
        bytes.fromhex(r["payload"]["hash"])
        for r in world.sim.log.select("finalized", world.observer.name)
        if r["t"] < gst
    ]
    assert len(early) == 2
    assert_seeded(world, early)
