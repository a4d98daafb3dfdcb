"""Stake-weighted round-based BFT consensus with deterministic finality.

Chained HotStuff, one generic phase per round, with the 2-chain commit of
DiemBFT v4 / Jolteon (Gelashvili et al., arXiv 2106.10362): a block b1 is
finalized, with its ancestors, once b1 <- b2 are certified in consecutive
rounds. A voter locks on the round of the justify of each proposal it
accepts and votes only on a justify at or above its lock. Safe because b2's
honest voters locked at b1's round: a later certificate shares one of them,
so by induction on the round it justifies b1, b2 or a descendant of b1; one
vote per round certifies nothing else in the rounds of b1 and b2. Every
block in the tree entered through a proposal whose justify was locked on,
so a node that sees b2 certified has its lock at b1's round or above: hence
`locked_round >= floor`. The same engine drives collector-cluster and
main-chain consensus via payload hooks.

A node that misses a block parks the proposals built on it and fetches the
missing chain from the proposer of the one parked (a `BlockRequest`,
repeated at each local timeout while an orphan stays parked), after the
block retrieval of LibraBFT. Each fetched proposal is replayed through
`on_proposal`, so it passes every check a broadcast one does.

Nothing below a finalized block's round can be voted on, certified or
finalized again, so each finalization drops the engine's per-round books
below that round; of those rounds only the finalized chain stays in the
tree, and only while the host keeps it (`keep_finalized`). The proposals a
node answers fetches from are kept `RETRIEVAL_WINDOW` rounds longer.

A node that times out of a round sends its `NewRound` to the next round's
leader. A node that has heard members of more than a third of the stake
time into a round later than its own enters that round, so a leader whose
timer started late does not stay behind the nodes waiting for it.

A host with nothing to order can park the pacemaker (`has_work`): a round
timer that fires while it is idle changes no view and sends nothing, and
`wake` re-arms it when work arrives. A proposal refused in the current round
is kept, so the host can vote for it once its payload validates
(`retry_vote`); one vote per round is all the safety rule asks, not when in
the round it is cast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from . import crypto
from .encoding import canonical_json, hexify, once, once_for
from .state import StakeTable, Tally

GENESIS_DIGEST = crypto.hash("consensus-genesis", b"")
# rounds below the floor whose proposals a node keeps to answer fetches: a
# block finalizes one round after it is certified, often before a node that
# missed it has asked for it
RETRIEVAL_WINDOW = 8


def leader_for_round(round_number: int, table: StakeTable, seed: bytes) -> bytes:
    """Stake-weighted pseudo-random leader; all nodes agree given the seed.
    The draw walks the table's members in key order; a group with no stake
    has no leader, and the draw raises ValueError."""
    stream = crypto.seeded_stream(
        crypto.derive_seed(["leader"], seed + round_number.to_bytes(8, "big"))
    )
    pick = stream.next_below(table.total)
    acc = 0
    for m in table.members:
        acc += m.stake
        if pick < acc:
            return m.staking_public_key
    raise AssertionError("cumulative stake walk must terminate")


class LeaderSchedule:
    """The leaders of one consensus group. Its stake table and its seed fix
    every round's leader, so the engines of a group share one schedule and
    each round's leader is drawn once. The LRU bound keeps a long run from
    growing the cache by one entry per round; an evicted round is drawn
    again."""

    def __init__(self, table: StakeTable, seed: bytes):
        self.table = table
        self.seed = seed
        self.leader = functools.lru_cache(maxsize=256)(self._leader)

    def _leader(self, round_number: int) -> bytes:
        return leader_for_round(round_number, self.table, self.seed)


@dataclass(frozen=True)
class QuorumCertificate:
    payload_digest: bytes
    round: int
    signers: tuple[bytes, ...]
    signatures: tuple[bytes, ...]

    def valid_for(self, table: StakeTable) -> bool:
        """`qc_valid` against `table`, computed once per certificate for
        each table: a broadcast certificate is one object shared by every
        engine of the group, and the engines share one table. The genesis
        certificate is module-wide and carries no signatures, so it keeps no
        slot."""
        if self.round == 0:
            return qc_valid(self, table)
        return once_for(self, table, qc_valid, self, table)


GENESIS_QC = QuorumCertificate(payload_digest=GENESIS_DIGEST, round=0, signers=(), signatures=())


# a (round, digest) is signed, checked and certified within a few rounds, so
# a small bound keeps every hit; each key is computed once
@functools.lru_cache(maxsize=256)
def vote_payload(round_number: int, digest: bytes) -> bytes:
    return canonical_json({"vote_round": round_number, "digest": hexify(digest)})


def qc_valid(qc: QuorumCertificate, table: StakeTable) -> bool:
    """A quorum of the group signed the vote payload (`StakeTable.certifies`)."""
    if qc.round == 0:
        return qc.payload_digest == GENESIS_DIGEST and not qc.signers
    msg = vote_payload(qc.round, qc.payload_digest)
    return table.certifies(
        qc.signers, qc.signatures, lambda signer, sig: crypto.staking_verify(signer, msg, sig)
    )


@dataclass(frozen=True)
class Proposal:
    round: int
    payload: Any
    payload_digest: bytes
    justify: QuorumCertificate  # certifies the parent
    proposer: bytes
    signature: bytes

    @once
    def signed_bytes(self) -> bytes:
        return canonical_json(
            {
                "round": self.round,
                "digest": hexify(self.payload_digest),
                "parent": hexify(self.justify.payload_digest),
                "justify_round": self.justify.round,
            }
        )

    @once
    def signed_by_proposer(self) -> bool:
        """The proposer's signature over `signed_bytes` verifies; checked
        once per broadcast proposal, which every receiver shares."""
        return crypto.staking_verify(self.proposer, self.signed_bytes(), self.signature)

    def binds_payload(self, digest_payload: DigestFn) -> bool:
        """The payload hashes to the signed digest under `digest_payload`;
        checked once per broadcast proposal for each digest function, so the
        function must be one object for the whole group."""
        return once_for(self, digest_payload, _binds, self, digest_payload)


def _binds(proposal: Proposal, digest_payload: DigestFn) -> bool:
    """A payload the digest function cannot hash binds no digest."""
    try:
        return digest_payload(proposal.payload) == proposal.payload_digest
    except (AttributeError, TypeError, ValueError):
        return False


@dataclass(frozen=True)
class Vote:
    round: int
    payload_digest: bytes
    voter: bytes
    signature: bytes


@dataclass(frozen=True)
class NewRound:
    round: int
    high_qc: QuorumCertificate
    sender: bytes


@dataclass(frozen=True)
class BlockRequest:
    """Ask for the chain that ends at `digest`, down to the asker's floor."""

    digest: bytes
    floor: int


@dataclass(frozen=True)
class BlockResponse:
    proposals: tuple[Proposal, ...]  # oldest first


@dataclass(frozen=True)
class EquivocationEvidence:
    """Two signed proposals by one leader for the same round — full proof."""

    proposer: bytes
    round: int
    first: Proposal
    second: Proposal


@dataclass(slots=True)
class BlockNode:
    digest: bytes
    round: int
    parent: bytes
    payload: Any
    seen: int = 0  # the tree's clock when the block entered it


def _drop_front(book: dict, stale: Callable[[Any, Any], bool]) -> list:
    """Delete entries from the front of the insertion-ordered `book` while
    `stale(key, value)` holds, and return their keys. Each book fills in
    close to round order, so a finalization stops at its first live entry
    instead of scanning the book; an entry behind a live one waits for a
    later finalization."""
    dropped = []
    for key, value in book.items():
        if not stale(key, value):
            break
        dropped.append(key)
    for key in dropped:
        del book[key]
    return dropped


@dataclass
class BlockTree:
    nodes: dict[bytes, BlockNode] = field(default_factory=dict)
    certified: dict[bytes, QuorumCertificate] = field(default_factory=dict)
    # digest -> round of each added node not yet below a pruning floor
    recent: dict[bytes, int] = field(default_factory=dict)
    now: Callable[[], int] = lambda: 0  # the host's clock, stamped on each added node

    def __post_init__(self):
        if GENESIS_DIGEST not in self.nodes:
            self.nodes[GENESIS_DIGEST] = BlockNode(
                digest=GENESIS_DIGEST, round=0, parent=b"", payload=None
            )
            self.certified[GENESIS_DIGEST] = GENESIS_QC

    def add(self, digest: bytes, round_number: int, parent: bytes, payload: Any) -> None:
        if digest in self.nodes:
            return
        self.nodes[digest] = BlockNode(digest, round_number, parent, payload, self.now())
        self.recent[digest] = round_number

    def prune(self, floor: int, finalized: set[bytes], keep_finalized: bool) -> None:
        """Drop the certificates of rounds below `floor`, and the nodes of
        those rounds that are not `finalized`; genesis stays, and so does
        the finalized chain while `keep_finalized`, else a finalized node
        leaves both the tree and `finalized`."""
        _drop_front(self.certified, lambda digest, qc: qc.round < floor)
        for digest in _drop_front(self.recent, lambda digest, r: r < floor):
            if not keep_finalized or digest not in finalized:
                del self.nodes[digest]
                finalized.discard(digest)

    def certify(self, qc: QuorumCertificate) -> bool:
        """Record the QC; True when this newly certifies a known block."""
        if qc.payload_digest in self.nodes and qc.payload_digest not in self.certified:
            self.certified[qc.payload_digest] = qc
            return True
        return False


DigestFn = Callable[[Any], bytes]
ValidateFn = Callable[[Any, bytes], bool]  # (payload, parent_digest) -> accept
MakePayloadFn = Callable[[bytes], Any]  # parent_digest -> payload, or None to wait for it
SendFn = Callable[[bytes, Any], None]
BroadcastFn = Callable[[Any], None]
TimerFn = Callable[[int, int], None]  # (duration, round) -> schedules on_local_timeout(round)
FinalizeFn = Callable[[BlockNode], None]
EvidenceFn = Callable[[EquivocationEvidence], None]
WorkFn = Callable[[], bool]  # () -> whether the host has anything to order


class ConsensusEngine:
    """One instance per node per consensus group; reactive, single-threaded.

    The host wires `broadcast`, `send` and `set_timer` to its transport and
    `now` to its clock, and calls `start`, `on_proposal`, `on_vote`,
    `on_new_round`, `on_block_request`, `on_block_response` and
    `on_local_timeout` as events arrive, and `wake` and `retry_vote` when
    work or a missing input arrives.

    Of the finalized chain the engine reads only the newest block; with
    `keep_finalized` false it forgets the older ones, as collectors do. A
    consensus node keeps them: its `final["block"]` is `finalized_set`, and
    `scenario._finalized_blocks` and the benchmark read `tree.nodes`.
    """

    def __init__(
        self,
        keypair: crypto.StakingKeyPair,
        schedule: LeaderSchedule,
        base_timeout: int,
        digest_payload: DigestFn,
        validate_payload: ValidateFn,
        make_payload: MakePayloadFn,
        broadcast: BroadcastFn,
        send: SendFn,
        set_timer: TimerFn,
        on_finalize: FinalizeFn,
        on_evidence: Optional[EvidenceFn] = None,
        keep_finalized: bool = True,
        now: Callable[[], int] = lambda: 0,
        has_work: WorkFn = lambda: True,
    ):
        self.keypair = keypair
        self.table = schedule.table
        self.leader = schedule.leader
        self.base_timeout = base_timeout
        self.timeout = base_timeout
        self.digest_payload = digest_payload
        self.validate_payload = validate_payload
        self.make_payload = make_payload
        self.broadcast = broadcast
        self.send = send
        self.set_timer = set_timer
        self.on_finalize = on_finalize
        self.on_evidence = on_evidence or (lambda ev: None)
        self.keep_finalized = keep_finalized
        self.has_work = has_work

        self.tree = BlockTree(now=now)
        self.current_round = 1
        self.last_voted_round = 0
        self.locked_round = 0
        self.high_qc = GENESIS_QC
        self.finalized_set: set[bytes] = set()
        # the round of the newest finalized block: the books below it are
        # dropped, and a message for a round below it is ignored
        self.floor = 0
        # (round, digest) -> voter -> signature, until a round's book is dropped
        self._votes: dict[tuple[int, bytes], Tally] = {}
        self._pending_qcs: dict[bytes, QuorumCertificate] = {}
        self._orphans: dict[bytes, list[Proposal]] = {}
        self._proposal_seen: dict[tuple[bytes, int], Proposal] = {}
        self._proposed_round = 0  # the last round proposed in; rounds only grow
        self._evidence_emitted: set[tuple[bytes, int]] = set()
        # digest -> the proposal that brought the block into the tree, kept
        # `RETRIEVAL_WINDOW` rounds below the floor to answer fetches from
        self._proposals: dict[bytes, Proposal] = {}
        self._answered: dict[bytes, int] = {}  # member -> round of its last fetch answered
        self._timed_out: dict[bytes, int] = {}  # member -> newest round of its NewRound here
        self._parked = False  # the round timer fired while idle and is not re-armed
        self._refused: Optional[Proposal] = None  # the current round's refused proposal

    # -- helpers ----------------------------------------------------------

    def is_leader(self, round_number: int) -> bool:
        return self.leader(round_number) == self.keypair.public

    def _proposal(self, payload: Any) -> Proposal:
        """This node's signed proposal of `payload` for the current round,
        justified by the high QC."""
        unsigned = Proposal(
            round=self.current_round,
            payload=payload,
            payload_digest=self.digest_payload(payload),
            justify=self.high_qc,
            proposer=self.keypair.public,
            signature=b"",
        )
        return replace(unsigned, signature=self.keypair.sign(unsigned.signed_bytes()))

    def _update_high_qc(self, qc: QuorumCertificate) -> None:
        if qc.round > self.high_qc.round:
            self.high_qc = qc
            # progress: reset the pacemaker
            self.timeout = self.base_timeout

    def _certify(self, qc: QuorumCertificate) -> None:
        if qc.round < self.floor:
            return  # it could only finalize what is finalized already
        if qc.payload_digest not in self.tree.nodes:
            self._pending_qcs.setdefault(qc.payload_digest, qc)
            return
        if self.tree.certify(qc):
            self._finalize_from(qc.payload_digest)

    def _finalize_from(self, d2: bytes) -> None:
        """A fresh certification of b2 finalizes its parent b1, with b1's
        unfinalized ancestors, when b1 <- b2 are certified in consecutive
        rounds."""
        b2 = self.tree.nodes[d2]
        b1 = self.tree.nodes.get(b2.parent)
        if b1 is None or b1.digest not in self.tree.certified or b2.round != b1.round + 1:
            return
        chain = []
        cur = b1.digest
        while (
            cur != GENESIS_DIGEST
            and cur not in self.finalized_set
            and cur in self.tree.nodes
        ):
            chain.append(cur)
            cur = self.tree.nodes[cur].parent
        for digest in reversed(chain):
            self.finalized_set.add(digest)
            self.on_finalize(self.tree.nodes[digest])
        if chain:
            self._prune(self.tree.nodes[chain[0]].round)

    def _prune(self, floor: int) -> None:
        """Drop the books of the rounds below `floor`, the round of the block
        just finalized. The lock and the high QC are at or above it already
        (the child that certified the block entered the tree here through a
        proposal justified by the block, which this node locked on), so a
        vote, certificate or proposal of such a round could change nothing
        but the books; the guards on `floor` keep them out. The proposals
        kept for fetches go `RETRIEVAL_WINDOW` rounds later."""
        self.floor = floor
        _drop_front(self._votes, lambda key, bucket: key[0] < floor)
        _drop_front(self._proposal_seen, lambda key, proposal: key[1] < floor)
        _drop_front(self._pending_qcs, lambda digest, qc: qc.round < floor)
        _drop_front(self._orphans, lambda digest, parked: parked[0].justify.round < floor)
        _drop_front(self._proposals, lambda digest, p: p.round < floor - RETRIEVAL_WINDOW)
        self._evidence_emitted = {key for key in self._evidence_emitted if key[1] >= floor}
        self.tree.prune(floor, self.finalized_set, self.keep_finalized)

    def _enter_round(self, round_number: int) -> None:
        if round_number <= self.current_round:
            return
        self.current_round = round_number
        self._parked, self._refused = False, None
        self.set_timer(self.timeout, round_number)
        if self.is_leader(round_number):
            self._propose()

    def _propose(self) -> None:
        """Extend the high-QC block, once per round; while the host can make
        no payload on it (None), wait until the block enters the tree."""
        r = self.current_round
        if r <= self._proposed_round:  # one proposal per round — never equivocate
            return
        payload = self.make_payload(self.high_qc.payload_digest)
        if payload is None:
            return
        proposal = self._proposal(payload)
        self._proposed_round = r
        self.broadcast(proposal)
        self.on_proposal(proposal)  # leaders process their own proposal

    # -- event handlers ----------------------------------------------------

    def start(self) -> None:
        self.set_timer(self.timeout, self.current_round)
        if self.is_leader(self.current_round):
            self._propose()

    def on_proposal(self, proposal: Proposal) -> None:
        if proposal.round < self.floor or proposal.proposer != self.leader(proposal.round):
            return
        if not proposal.signed_by_proposer() or not proposal.binds_payload(self.digest_payload):
            return
        # a conflicting proposal is evidence, and is then judged like any
        # other: the vote rule allows one vote per round, and the twin the
        # node saw first may be the invalid one
        key = (proposal.proposer, proposal.round)
        prior = self._proposal_seen.setdefault(key, proposal)
        if prior.payload_digest != proposal.payload_digest and key not in self._evidence_emitted:
            self._evidence_emitted.add(key)
            self.on_evidence(EquivocationEvidence(*key, prior, proposal))

        # a justify below the floor is below the lock, so the proposal could
        # get no vote; it is ignored whether or not the tree kept its parent
        justify = proposal.justify
        if justify.round < self.floor or not justify.valid_for(self.table):
            return
        if justify.payload_digest not in self.tree.nodes:
            # out-of-order arrival or a missed block: park until the parent
            # shows up, and fetch it
            parked = self._orphans.setdefault(justify.payload_digest, [])
            if proposal not in parked:
                parked.append(proposal)
                self._fetch(proposal)
            return
        self._certify(justify)
        self._update_high_qc(justify)
        self.locked_round = max(self.locked_round, justify.round)  # one-chain lock

        self.tree.add(
            proposal.payload_digest, proposal.round, justify.payload_digest, proposal.payload
        )
        self._proposals.setdefault(proposal.payload_digest, proposal)
        pending = self._pending_qcs.pop(proposal.payload_digest, None)
        if pending is not None:
            self._certify(pending)
        for orphan in self._orphans.pop(proposal.payload_digest, []):
            self.on_proposal(orphan)
        if proposal.payload_digest == self.high_qc.payload_digest:
            if self.is_leader(self.current_round):
                self._propose()  # a leader waiting for this block proposes now

        if proposal.round < self.current_round:
            return
        self._enter_round(proposal.round)

        # HotStuff voting rule: fresh round, justify at or above the lock
        if proposal.round <= self.last_voted_round or justify.round < self.locked_round:
            return
        if not self.validate_payload(proposal.payload, justify.payload_digest):
            self._refused = proposal
            return
        self._vote(proposal)

    def _vote(self, proposal: Proposal) -> None:
        self.last_voted_round = proposal.round
        self._refused = None
        vote = Vote(
            round=proposal.round,
            payload_digest=proposal.payload_digest,
            voter=self.keypair.public,
            signature=self.keypair.sign(vote_payload(proposal.round, proposal.payload_digest)),
        )
        next_leader = self.leader(proposal.round + 1)
        if next_leader == self.keypair.public:
            self.on_vote(vote)
        else:
            self.send(next_leader, vote)

    def retry_vote(self) -> None:
        """Vote for the proposal refused in the current round if its payload
        now validates, under the same rule as a first vote: this round's
        only vote, on a justify at or above the lock."""
        proposal = self._refused
        if (
            proposal is None
            or proposal.round != self.current_round
            or proposal.round <= self.last_voted_round
            or proposal.justify.round < self.locked_round
            or not self.validate_payload(proposal.payload, proposal.justify.payload_digest)
        ):
            return
        self._vote(proposal)

    def on_vote(self, vote: Vote) -> None:
        if vote.round < self.floor or not self.is_leader(vote.round + 1):
            return
        key = (vote.round, vote.payload_digest)
        tally = self._votes.get(key) or Tally(self.table)
        # a late vote would only repeat the formed QC; a repeat or an
        # outsider's vote is dropped before its signature is checked
        if tally.quorum or not tally.admits(vote.voter):
            return
        if not crypto.staking_verify(vote.voter, vote_payload(*key), vote.signature):
            return
        self._votes[key] = tally
        tally.add(vote.voter, vote.signature)
        if not tally.quorum:
            return
        qc = QuorumCertificate(vote.payload_digest, vote.round, *tally.certificate())
        self._certify(qc)
        self._update_high_qc(qc)
        self._enter_round(vote.round + 1)

    def on_new_round(self, msg: NewRound) -> None:
        if msg.high_qc.valid_for(self.table):
            self._certify(msg.high_qc)
            self._update_high_qc(msg.high_qc)
        if msg.sender in self.table.keys and msg.round > self._timed_out.get(msg.sender, 0):
            self._timed_out[msg.sender] = msg.round
            self._catch_up()
        if msg.round == self.current_round and self.is_leader(msg.round):
            self._propose()

    def _catch_up(self) -> None:
        """Enter the highest round that members of more than a third of the
        stake have timed into: at least one honest node has, so no faulty
        minority can pull this node ahead. Without it a leader whose timer
        started late stays behind the nodes waiting for its proposal while
        every timeout doubles."""
        tally = Tally(self.table)
        for sender, round_number in sorted(self._timed_out.items(), key=lambda item: -item[1]):
            tally.add(sender, round_number)
            if tally.outweighs_faults:
                self._enter_round(round_number)
                return

    def _fetch(self, orphan: Proposal) -> None:
        """Ask the orphan's proposer for the chain it extends."""
        if orphan.proposer != self.keypair.public:
            self.send(orphan.proposer, BlockRequest(orphan.justify.payload_digest, self.floor))

    def on_block_request(self, requester: bytes, msg: BlockRequest) -> None:
        """Send a member the kept proposals of the chain ending at
        `msg.digest`, down to its floor; once per member per round."""
        if requester not in self.table.keys or self._answered.get(requester) == self.current_round:
            return
        self._answered[requester] = self.current_round
        chain = []
        proposal = self._proposals.get(msg.digest)
        while proposal is not None and proposal.round > msg.floor:
            chain.append(proposal)
            proposal = self._proposals.get(proposal.justify.payload_digest)
        if chain:
            self.send(requester, BlockResponse(tuple(reversed(chain))))

    def on_block_response(self, msg: BlockResponse) -> None:
        for proposal in msg.proposals:
            self.on_proposal(proposal)

    def wake(self) -> None:
        """Work arrived: a parked timer restarts from now, and the round's
        leader proposes if it has not yet."""
        if self._parked:
            self._parked = False
            self.set_timer(self.timeout, self.current_round)
        if self.is_leader(self.current_round):
            self._propose()

    def on_local_timeout(self, round_number: int) -> None:
        if round_number != self.current_round:
            return  # stale timer
        if not self.has_work():  # idle: the round waits for work, not for a view change
            self._parked = True
            return
        if self._orphans:  # still missing a block: ask again
            self._fetch(next(reversed(self._orphans.values()))[-1])
        self.timeout *= 2
        nxt = self.current_round + 1
        self._enter_round(nxt)
        if not self.is_leader(nxt):
            self.send(self.leader(nxt), NewRound(nxt, self.high_qc, self.keypair.public))
