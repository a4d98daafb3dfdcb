"""Hashing, seeded randomness, staking signatures, and the threshold
signature scheme (with distributed key generation) behind the random beacon.

The threshold scheme is a discrete-log Shamir construction over a prime-order
subgroup: share signatures are sigma_i = sk_i * e(m) mod q and recovery is
Lagrange interpolation at zero. It is unique, deterministic, non-interactive
and verifiable, but NOT cryptographically secure (a published share leaks
sk_i). It exists so that uniqueness/threshold properties can be checked
exhaustively in a tiny field; a pairing-based scheme can replace it behind
the same functions.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .encoding import once, once_for

Digest = bytes  # 32 bytes
Seed = bytes  # 32 bytes

_U64 = 1 << 64
_U64BE = struct.Struct(">Q")
_u64be = _U64BE.pack


def _frame(b: bytes) -> bytes:
    return _u64be(len(b)) + b


# domain tag -> SHA-256 object already fed len(tag) || tag; every tag is a
# literal, so the cache stays small
_PREFIXED: dict = {}


def hash(domain_tag: str | bytes, payload: bytes) -> Digest:  # noqa: A001
    """Domain-separated SHA-256: digest of len(tag) || tag || payload."""
    prefix = _PREFIXED.get(domain_tag)
    if prefix is None:
        tag = domain_tag.encode() if isinstance(domain_tag, str) else domain_tag
        prefix = _PREFIXED[domain_tag] = hashlib.sha256(_frame(tag))
    h = prefix.copy()
    h.update(payload)
    return h.digest()


def derive_seed(tags: Sequence[str], randomness: bytes) -> Seed:
    """Derive a domain-specific 32-byte seed from a source of randomness.

    Each tag is length-prefixed so distinct tag lists can never collide.
    """
    if not randomness:
        raise ValueError("randomness must be non-empty")
    payload = b"".join(_frame(t.encode()) for t in tags) + randomness
    return hash("seed", payload)


class SeededStream:
    """Infinite deterministic stream of 64-bit words.

    Word j is the first 8 bytes (big-endian) of hash("stream", seed || j)
    with j encoded as an 8-byte big-endian counter.
    """

    def __init__(self, seed: Seed):
        self.seed = bytes(seed)
        self._next = 0
        # SHA-256 already fed len("stream") || "stream" || seed
        self._prefix = hashlib.sha256(_frame(b"stream") + self.seed)
        self._limits: dict[int, int] = {}  # bound -> rejection limit

    def word(self, j: int) -> int:
        h = self._prefix.copy()
        h.update(_u64be(j))
        return int.from_bytes(h.digest()[:8], "big")

    def next_word(self) -> int:
        w = self.word(self._next)
        self._next += 1
        return w

    def next_below(self, bound: int) -> int:
        """Unbiased draw in [0, bound) by rejection sampling on 64-bit words."""
        limit = self._limits.get(bound)
        if limit is None:
            if not 0 < bound <= _U64:
                raise ValueError("bound must lie in [1, 2**64]")
            limit = self._limits[bound] = (_U64 // bound) * bound
        while True:
            # `next_word` inline: this draw runs once per simulated message
            h = self._prefix.copy()
            h.update(_u64be(self._next))
            self._next += 1
            w = _U64BE.unpack_from(h.digest())[0]
            if w < limit:
                return w % bound

    def next_unit(self) -> float:
        """Draw in [0, 1)."""
        return self.next_word() / _U64


def seeded_stream(seed: Seed) -> SeededStream:
    return SeededStream(seed)


def fisher_yates_shuffle(seed: Seed, items: Sequence) -> list:
    """Unbiased seeded Fisher-Yates permutation of `items`.

    Iterates from index n-1 down to 1; each swap index j in [0, i] is drawn
    by rejection sampling on the 64-bit word stream, so the permutation is
    bit-exactly reproducible from the seed.
    """
    out = list(items)
    stream = SeededStream(seed)
    for i in range(len(out) - 1, 0, -1):
        j = stream.next_below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# Staking signatures
# ---------------------------------------------------------------------------

# Simulator-fidelity signatures: deterministic keyed commitments with a
# process-local registry for verification. Only attribution is exercised in
# the simulator; adversaries are scripted behaviors, never key thieves.
# A signature is hash("stakesig", len(secret) || secret || message). Each
# key pair keeps a SHA-256 object already fed everything before the message,
# and the registry maps its public key to that object, so signing and
# verifying hash only the message.
_KEY_REGISTRY: dict[bytes, "hashlib._Hash"] = {}


def _keyed(signer: "hashlib._Hash", message: bytes) -> bytes:
    h = signer.copy()
    h.update(message)
    return h.digest()


@dataclass(frozen=True)
class StakingKeyPair:
    secret: bytes
    public: bytes

    @classmethod
    def from_seed(cls, seed: bytes) -> "StakingKeyPair":
        secret = hash("stakesk", seed)
        kp = cls(secret=secret, public=hash("stakepk", secret))
        _KEY_REGISTRY[kp.public] = kp._signer()
        return kp

    @once
    def _signer(self) -> "hashlib._Hash":
        return hashlib.sha256(_frame(b"stakesig") + _frame(self.secret))

    def sign(self, message: bytes) -> bytes:
        return _keyed(self._signer(), message)


def staking_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    signer = _KEY_REGISTRY.get(public)
    return signer is not None and _keyed(signer, message) == signature


# ---------------------------------------------------------------------------
# Threshold signatures
# ---------------------------------------------------------------------------


def compute_threshold_t(n_s: int) -> int:
    """Reconstruction threshold for a beacon committee of size n_s."""
    if n_s < 1:
        raise ValueError("committee size must be >= 1")
    return (n_s - 1) // 2


@dataclass(frozen=True)
class ThresholdParams:
    n_s: int
    t: int
    p: int  # prime modulus
    q: int  # prime subgroup order, q | p - 1
    g: int  # generator of the order-q subgroup

    def __post_init__(self):
        if not (0 < self.t + 1 <= self.n_s):
            raise ValueError("invalid threshold/committee sizes")
        if pow(self.g, self.q, self.p) != 1 or self.g == 1:
            raise ValueError("g does not generate an order-q subgroup mod p")


# Tiny test field: p = 2879 = 2*1439 + 1 with 1439 prime; g = 4 generates
# the order-1439 subgroup. Small enough for exhaustive subset sweeps.
TEST_FIELD = (2879, 1439, 4)


def make_params(n_s: int, field: tuple[int, int, int] = TEST_FIELD) -> ThresholdParams:
    p, q, g = field
    return ThresholdParams(n_s=n_s, t=compute_threshold_t(n_s), p=p, q=q, g=g)


@dataclass(frozen=True)
class SecretShare:
    party_index: int  # 1-based
    value: int  # element of Z_q


@dataclass(frozen=True)
class SignatureShare:
    party_index: int
    value: int

    def verified(self, params: ThresholdParams, vv: VerificationVector, message: bytes) -> bool:
        """`signature_share_verify` on this share, computed once per
        (params, vv, message): a committee member sends one share object to
        every verifier, and recovery reads the verdict its receiver
        already holds."""
        return once_for(
            self, (params, vv, message), signature_share_verify, params, vv, self, message
        )


@dataclass(frozen=True)
class GroupSignature:
    value: int


@dataclass(frozen=True)
class VerificationVector:
    group_public_key: int
    per_party_public_keys: Mapping[int, int]  # party index -> g^{f(index)}


@dataclass
class DkgResult:
    verification_vector: VerificationVector
    shares: list[SecretShare]
    complaints: list[tuple[int, int]] = field(default_factory=list)  # (accuser, dealer)
    excluded_dealers: set[int] = field(default_factory=set)


def _poly_eval(coeffs: Sequence[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def dkg_setup(
    params: ThresholdParams,
    party_entropy: Sequence[Seed],
    corrupt_evaluations: dict[int, dict[int, int]] | None = None,
) -> DkgResult:
    """Joint-Feldman distributed key generation.

    Every party deals a degree-t polynomial via Feldman VSS (coefficients
    drawn from its entropy seed), broadcasts commitments g^{a_k}, and sends
    evaluations to the others. Evaluations failing the commitment check get
    the dealer excluded with a complaint record; the final share of party i
    is the sum of surviving dealers' evaluations at i.

    `corrupt_evaluations` maps dealer index -> {recipient index: delta added
    to the sent evaluation}, for Byzantine-dealer tests.
    """
    n, t, p, q, g = params.n_s, params.t, params.p, params.q, params.g
    if len(party_entropy) != n:
        raise ValueError("need one entropy seed per party")
    corrupt = corrupt_evaluations or {}

    polys: list[list[int]] = []
    commitments: list[list[int]] = []
    for seed in party_entropy:
        stream = SeededStream(seed)
        coeffs = [stream.next_below(q) for _ in range(t + 1)]
        polys.append(coeffs)
        commitments.append([pow(g, a, p) for a in coeffs])

    def feldman_ok(dealer: int, recipient: int, value: int) -> bool:
        lhs = pow(g, value, p)
        rhs = 1
        for k, com in enumerate(commitments[dealer - 1]):
            rhs = rhs * pow(com, pow(recipient, k, q), p) % p
        return lhs == rhs

    complaints: list[tuple[int, int]] = []
    excluded: set[int] = set()
    sent: dict[tuple[int, int], int] = {}
    for dealer in range(1, n + 1):
        for recipient in range(1, n + 1):
            value = _poly_eval(polys[dealer - 1], recipient, q)
            value = (value + corrupt.get(dealer, {}).get(recipient, 0)) % q
            sent[(dealer, recipient)] = value
            if not feldman_ok(dealer, recipient, value):
                complaints.append((recipient, dealer))
                excluded.add(dealer)

    qualified = [d for d in range(1, n + 1) if d not in excluded]
    if not qualified:
        raise ValueError("all dealers excluded; DKG failed")

    shares = [
        SecretShare(
            party_index=i,
            value=sum(sent[(d, i)] for d in qualified) % q,
        )
        for i in range(1, n + 1)
    ]

    pk_g = 1
    for d in qualified:
        pk_g = pk_g * commitments[d - 1][0] % p
    party_pks = {}
    for i in range(1, n + 1):
        acc = 1
        for d in qualified:
            for k, com in enumerate(commitments[d - 1]):
                acc = acc * pow(com, pow(i, k, q), p) % p
        party_pks[i] = acc

    vv = VerificationVector(pk_g, MappingProxyType(party_pks))
    return DkgResult(verification_vector=vv, shares=shares, complaints=complaints, excluded_dealers=excluded)


def message_exponent(params: ThresholdParams, message: bytes) -> int:
    """Hash a message into a nonzero exponent mod q."""
    counter = b""
    while True:
        e = int.from_bytes(hash("tsig", message + counter), "big") % params.q
        if e != 0:
            return e
        counter += b"\x00"


def threshold_sign(params: ThresholdParams, share: SecretShare, message: bytes) -> SignatureShare:
    e = message_exponent(params, message)
    return SignatureShare(party_index=share.party_index, value=share.value * e % params.q)


def signature_share_verify(
    params: ThresholdParams, vv: VerificationVector, sig: SignatureShare, message: bytes
) -> bool:
    pk_i = vv.per_party_public_keys.get(sig.party_index)
    if pk_i is None:
        return False
    e = message_exponent(params, message)
    return pow(params.g, sig.value, params.p) == pow(pk_i, e, params.p)


class InsufficientShares(ValueError):
    pass


# a committee recovers every beacon from the same few index sets, so each
# set's coefficients are computed once
@functools.lru_cache(maxsize=256)
def _lagrange_at_zero(indices: tuple[int, ...], q: int) -> tuple[int, ...]:
    coeffs = []
    for i in indices:
        num, den = 1, 1
        for j in indices:
            if j == i:
                continue
            num = num * (-j) % q
            den = den * (i - j) % q
        coeffs.append(num * pow(den, -1, q) % q)
    return tuple(coeffs)


def threshold_recover(
    params: ThresholdParams,
    vv: VerificationVector,
    shares: Iterable[SignatureShare],
    message: bytes,
) -> GroupSignature:
    """Lagrange-interpolate t+1 valid signature shares at x = 0.

    Invalid shares are identified against the per-party public keys and
    rejected, by the verdict each share keeps (`SignatureShare.verified`);
    fewer than t+1 valid shares from distinct parties raises
    InsufficientShares.
    """
    valid: dict[int, SignatureShare] = {}
    for s in shares:
        if s.party_index not in valid and s.verified(params, vv, message):
            valid[s.party_index] = s
    if len(valid) < params.t + 1:
        raise InsufficientShares(
            f"need {params.t + 1} valid shares, got {len(valid)}"
        )
    indices = tuple(sorted(valid)[: params.t + 1])
    lam = _lagrange_at_zero(indices, params.q)
    sigma = sum(l * valid[i].value for l, i in zip(lam, indices)) % params.q
    return GroupSignature(value=sigma)


def threshold_verify(
    params: ThresholdParams, sig: GroupSignature, group_public_key: int, message: bytes
) -> bool:
    e = message_exponent(params, message)
    return pow(params.g, sig.value, params.p) == pow(group_public_key, e, params.p)


def signature_bytes(sig: GroupSignature) -> bytes:
    """Canonical 32-byte encoding of a group signature, for seeding."""
    if sig.value < (1 << 256):
        return sig.value.to_bytes(32, "big")
    raw = sig.value.to_bytes((sig.value.bit_length() + 7) // 8, "big")
    return hash("sigbytes", raw)
