"""Tests for hashing, streams, shuffling, and the threshold scheme.

Oracles here are written independently of the library: raw hashlib for the
byte framing, brute-force polynomial evaluation and Lagrange interpolation
for the DKG/threshold algebra.
"""

import hashlib
import itertools
import random

import pytest

from flowpipe import crypto
from flowpipe.crypto import (
    DkgResult,
    InsufficientShares,
    SecretShare,
    SignatureShare,
    StakingKeyPair,
    compute_threshold_t,
    derive_seed,
    dkg_setup,
    fisher_yates_shuffle,
    hash as fhash,
    make_params,
    message_exponent,
    seeded_stream,
    signature_share_verify,
    staking_verify,
    threshold_recover,
    threshold_sign,
    threshold_verify,
)

P, Q, G = crypto.TEST_FIELD


def ref_hash(tag: bytes, payload: bytes) -> bytes:
    # independent restatement of the framing: sha256(len(tag)_u64be || tag || payload)
    return hashlib.sha256(len(tag).to_bytes(8, "big") + tag + payload).digest()


class TestHash:
    def test_deterministic(self):
        assert fhash("x", b"payload") == fhash("x", b"payload")

    def test_domain_separation(self):
        b = b"\x01\x02\x03fixed vector"
        assert fhash("x", b) == ref_hash(b"x", b)
        assert fhash("y", b) == ref_hash(b"y", b)
        assert fhash("x", b) != fhash("y", b)

    def test_empty_tag_empty_payload(self):
        assert fhash("", b"") == hashlib.sha256(b"\x00" * 8).digest()

    @pytest.mark.parametrize("tag", ["leaf", "node", "", "tag-\u00e9", b"leaf", b"\xff\x00raw"])
    def test_matches_framing(self, tag):
        raw = tag.encode() if isinstance(tag, str) else tag
        for payload in (b"", b"\x00", b"p" * 200, bytes(range(64))):
            assert fhash(tag, payload) == ref_hash(raw, payload)

    def test_str_and_bytes_tag_agree(self):
        for tag in ("leaf", "node", "tag-\u00e9"):
            assert fhash(tag, b"payload") == fhash(tag.encode(), b"payload")

    def test_cached_prefix_never_mutated(self):
        # the same tag, repeated and interleaved with other tags and payloads,
        # must keep hashing len(tag) || tag || payload and nothing more
        rng = random.Random(5)
        tags = ["leaf", b"leaf", "node", "x", b"\x01"]
        for _ in range(300):
            tag = rng.choice(tags)
            payload = rng.randbytes(rng.randrange(0, 80))
            raw = tag.encode() if isinstance(tag, str) else tag
            assert fhash(tag, payload) == ref_hash(raw, payload)
        assert fhash("x", b"once") == fhash("x", b"once") == ref_hash(b"x", b"once")


class TestDeriveSeed:
    def test_deterministic(self):
        r = b"\xaa" * 32
        assert derive_seed(["collector", "cluster"], r) == derive_seed(
            ["collector", "cluster"], r
        )

    def test_distinct_tags(self):
        r = b"\xaa" * 32
        assert derive_seed(["collector", "cluster"], r) != derive_seed(
            ["execution", "chunk"], r
        )

    def test_empty_randomness_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(["collector"], b"")

    def test_golden_zero_randomness(self):
        # frozen once from the framing definition
        got = derive_seed(["collector", "cluster"], b"\x00" * 32)
        payload = (
            len(b"collector").to_bytes(8, "big")
            + b"collector"
            + len(b"cluster").to_bytes(8, "big")
            + b"cluster"
            + b"\x00" * 32
        )
        assert got == ref_hash(b"seed", payload)


class TestSeededStream:
    def test_same_seed_same_words(self):
        s1 = seeded_stream(b"\x07" * 32)
        s2 = seeded_stream(b"\x07" * 32)
        assert [s1.next_word() for _ in range(1000)] == [
            s2.next_word() for _ in range(1000)
        ]

    def test_word_zero_matches_definition(self):
        seed = b"\x00" * 32
        expected = int.from_bytes(
            ref_hash(b"stream", seed + (0).to_bytes(8, "big"))[:8], "big"
        )
        assert seeded_stream(seed).word(0) == expected

    def test_distinct_seeds_differ(self):
        assert seeded_stream(b"\x01" * 32).word(0) != seeded_stream(b"\x02" * 32).word(0)

    @pytest.mark.parametrize("seed", [b"\x00" * 32, b"\x07" * 32, bytes(range(32)), b"short"])
    def test_words_match_framing(self, seed):
        """Each stream hashes from a prefix it fed once; every word still
        equals the raw framing, in any order and after repeats."""
        stream = seeded_stream(seed)
        for j in (3, 0, 1, 3, 1000, 2**40):
            expected = int.from_bytes(ref_hash(b"stream", seed + j.to_bytes(8, "big"))[:8], "big")
            assert stream.word(j) == expected

    @pytest.mark.parametrize(
        "seed, words, word_1000",
        [
            (
                b"\x07" * 32,
                ["25ededf727eede6b", "0ecbce1c465dcb24", "81e9dfa5da3250b3"],
                "2205e6ce544c8261",
            ),
            (
                bytes(range(32)),
                ["f35676fa4dcdd484", "89aa945e6bf8e55f", "8ee62e1d7855d634"],
                "d29c2037d6d52c82",
            ),
        ],
    )
    def test_pinned_words(self, seed, words, word_1000):
        stream = seeded_stream(seed)
        assert [f"{stream.next_word():016x}" for _ in words] == words
        assert f"{stream.word(1000):016x}" == word_1000


def ref_below(seed: bytes, bounds: list[int]) -> tuple[list[int], int]:
    """Independent trace of `next_below` over `bounds`: the draws, and how
    many words they took."""
    counter = 0
    draws = []
    for bound in bounds:
        limit = ((1 << 64) // bound) * bound
        while True:
            w = int.from_bytes(ref_hash(b"stream", seed + counter.to_bytes(8, "big"))[:8], "big")
            counter += 1
            if w < limit:
                draws.append(w % bound)
                break
    return draws, counter


class TestNextBelow:
    # at bound 2**63 + 1 about half of all words fall at or above the limit
    BOUNDS = [2**63 + 1, 2**64 - 1, 100, 2**63 + 1, 1, 2**64, 7, 2**63 + 1] * 8

    @pytest.mark.parametrize("seed", [b"\x00" * 32, b"\x07" * 32, bytes(range(32))])
    def test_rejection_matches_reference_trace(self, seed):
        stream = seeded_stream(seed)
        draws = [stream.next_below(b) for b in self.BOUNDS]
        want, words = ref_below(seed, self.BOUNDS)
        assert draws == want
        assert stream.next_word() == stream.word(words)  # no word skipped or reused
        assert words > len(self.BOUNDS)  # the rejection branch ran

    def test_rejected_word_is_skipped(self):
        # word 2 of this stream (0x81e9...) is at or above the limit for
        # 2**63 + 1, which is 2**63 + 1 itself; word 3 is below it
        seed = b"\x07" * 32
        stream = seeded_stream(seed)
        assert stream.word(2) >= 2**63 + 1 > stream.word(3)
        stream.next_word(), stream.next_word()
        assert stream.next_below(2**63 + 1) == stream.word(3)
        assert stream.next_word() == stream.word(4)

    @pytest.mark.parametrize("bound", [0, -1, 2**64 + 1])
    def test_bound_out_of_range_rejected(self, bound):
        stream = seeded_stream(b"\x01" * 32)
        with pytest.raises(ValueError):
            stream.next_below(bound)
        assert stream.next_word() == stream.word(0)


class TestStakingSignature:
    @pytest.mark.parametrize("seed", [b"\x01" * 32, b"\x05" * 32, bytes(range(32))])
    def test_sign_and_verify_match_framing(self, seed):
        kp = StakingKeyPair.from_seed(seed)
        secret = ref_hash(b"stakesk", seed)
        assert (kp.secret, kp.public) == (secret, ref_hash(b"stakepk", secret))
        for message in (b"", b"vote", b"vote", b"x" * 200):
            expected = ref_hash(b"stakesig", len(secret).to_bytes(8, "big") + secret + message)
            assert kp.sign(message) == expected
            assert staking_verify(kp.public, message, expected)
            assert not staking_verify(kp.public, message + b"!", expected)

    def test_pinned_signature(self):
        kp = StakingKeyPair.from_seed(b"\x05" * 32)
        assert kp.sign(b"vector").hex() == (
            "c315f7e02d4016c2ed24cf5c08fb47175d34bc209440077a04e23dc4b2fd8568"
        )

    def test_keys_do_not_share_signatures(self):
        a, b = StakingKeyPair.from_seed(b"\x11" * 32), StakingKeyPair.from_seed(b"\x12" * 32)
        assert a.sign(b"m") != b.sign(b"m")
        assert not staking_verify(b.public, b"m", a.sign(b"m"))

    def test_unregistered_key(self):
        """A pair built directly signs with its own secret but is not
        registered, so nothing it signs verifies."""
        kp = StakingKeyPair(secret=b"\x33" * 32, public=b"\x44" * 32)
        expected = ref_hash(b"stakesig", (32).to_bytes(8, "big") + b"\x33" * 32 + b"m")
        assert kp.sign(b"m") == expected
        assert not staking_verify(kp.public, b"m", expected)


def ref_shuffle(seed: bytes, items: list) -> list:
    # independent trace of the stream/rejection spec
    out = list(items)
    counter = 0

    def word():
        nonlocal counter
        w = int.from_bytes(
            ref_hash(b"stream", seed + counter.to_bytes(8, "big"))[:8], "big"
        )
        counter += 1
        return w

    for i in range(len(out) - 1, 0, -1):
        limit = ((1 << 64) // (i + 1)) * (i + 1)
        w = word()
        while w >= limit:
            w = word()
        j = w % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


class TestShuffle:
    def test_empty_and_singleton(self):
        seed = b"\x05" * 32
        assert fisher_yates_shuffle(seed, []) == []
        assert fisher_yates_shuffle(seed, ["A"]) == ["A"]

    def test_matches_reference_trace(self):
        seed = b"\x00" * 32
        assert fisher_yates_shuffle(seed, list("ABCD")) == ref_shuffle(seed, list("ABCD"))

    def test_permutation_property(self):
        rng = random.Random(1)
        for trial in range(20):
            n = rng.randrange(0, 1000)
            items = [rng.randrange(10**6) for _ in range(n)]
            seed = rng.randbytes(32)
            shuffled = fisher_yates_shuffle(seed, items)
            assert sorted(shuffled) == sorted(items)

    def test_deterministic(self):
        seed = b"\x11" * 32
        items = list(range(100))
        assert fisher_yates_shuffle(seed, items) == fisher_yates_shuffle(seed, items)


class TestThresholdT:
    @pytest.mark.parametrize("n_s,expected", [(7, 3), (1, 0), (10, 4)])
    def test_values(self, n_s, expected):
        assert compute_threshold_t(n_s) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            compute_threshold_t(0)


def entropy(n: int) -> list[bytes]:
    return [bytes([i + 1]) * 32 for i in range(n)]


def ref_lagrange_f0(points: list[tuple[int, int]], q: int) -> int:
    # brute-force Lagrange interpolation at x=0
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = num * (0 - xj) % q
            den = den * (xi - xj) % q
        total = (total + yi * num * pow(den, q - 2, q)) % q
    return total


class TestDkg:
    def test_single_party(self):
        params = make_params(1)
        res = dkg_setup(params, entropy(1))
        sk_g = res.shares[0].value  # t=0: share is the constant term
        assert res.verification_vector.group_public_key == pow(G, sk_g, P)

    def test_share_reconstruction_matches_constant_terms(self):
        params = make_params(4)
        assert params.t == 1
        res = dkg_setup(params, entropy(4))
        # any 2 shares interpolate to the same group secret
        f0s = set()
        for pair in itertools.combinations(res.shares, 2):
            pts = [(s.party_index, s.value) for s in pair]
            f0s.add(ref_lagrange_f0(pts, Q))
        assert len(f0s) == 1
        sk_g = f0s.pop()
        assert res.verification_vector.group_public_key == pow(G, sk_g, P)

    def test_corrupted_dealer_excluded(self):
        params = make_params(4)
        res = dkg_setup(params, entropy(4), corrupt_evaluations={2: {3: 1}})
        assert (3, 2) in res.complaints
        assert res.excluded_dealers == {2}
        # remaining dealers still yield a consistent key
        pts = [(s.party_index, s.value) for s in res.shares[:2]]
        sk_g = ref_lagrange_f0(pts, Q)
        assert res.verification_vector.group_public_key == pow(G, sk_g, P)

    def test_feldman_soundness_small_field(self):
        # every accepted share equals the sum of the qualified dealers'
        # polynomial evaluations (recomputed here from the same seeds)
        params = make_params(5)
        seeds = entropy(5)
        res = dkg_setup(params, seeds)
        for share in res.shares:
            expected = 0
            for seed in seeds:
                stream = crypto.SeededStream(seed)
                coeffs = [stream.next_below(Q) for _ in range(params.t + 1)]
                acc = 0
                for k, c in enumerate(coeffs):
                    acc = (acc + c * pow(share.party_index, k, Q)) % Q
                expected = (expected + acc) % Q
            assert share.value == expected


class TestThresholdSignature:
    def setup_method(self):
        self.params = make_params(4)
        self.dkg = dkg_setup(self.params, entropy(4))
        self.vv = self.dkg.verification_vector
        self.msg = b"beacon message"

    def test_sign_deterministic(self):
        s1 = threshold_sign(self.params, self.dkg.shares[0], self.msg)
        s2 = threshold_sign(self.params, self.dkg.shares[0], self.msg)
        assert s1 == s2

    def test_tiny_field_arithmetic(self):
        # sk_i = 5, e(m) = 7, q = 1439 -> sigma_i = 35
        share = SecretShare(party_index=1, value=5)
        e = 7
        assert share.value * e % Q == 35

    def test_share_verifies_against_party_key(self):
        share = self.dkg.shares[2]
        sig = threshold_sign(self.params, share, self.msg)
        assert signature_share_verify(self.params, self.vv, sig, self.msg)
        bad = SignatureShare(party_index=sig.party_index, value=(sig.value + 1) % Q)
        assert not signature_share_verify(self.params, self.vv, bad, self.msg)

    def test_recover_identical_across_subsets(self):
        shares = [threshold_sign(self.params, s, self.msg) for s in self.dkg.shares]
        sig_a = threshold_recover(self.params, self.vv, [shares[0], shares[1]], self.msg)
        sig_b = threshold_recover(self.params, self.vv, [shares[1], shares[2]], self.msg)
        assert sig_a == sig_b
        assert threshold_verify(self.params, sig_a, self.vv.group_public_key, self.msg)

    def test_recover_t0_equals_single_share(self):
        params = make_params(1)
        dkg = dkg_setup(params, entropy(1))
        sig = threshold_sign(params, dkg.shares[0], self.msg)
        rec = threshold_recover(params, dkg.verification_vector, [sig], self.msg)
        assert rec.value == sig.value

    def test_insufficient_shares(self):
        shares = [threshold_sign(self.params, self.dkg.shares[0], self.msg)]
        with pytest.raises(InsufficientShares):
            threshold_recover(self.params, self.vv, shares, self.msg)

    def test_invalid_share_rejected_attributably(self):
        shares = [threshold_sign(self.params, s, self.msg) for s in self.dkg.shares[:2]]
        forged = SignatureShare(party_index=3, value=123)
        rec = threshold_recover(self.params, self.vv, shares + [forged], self.msg)
        assert threshold_verify(self.params, rec, self.vv.group_public_key, self.msg)
        with pytest.raises(InsufficientShares):
            threshold_recover(self.params, self.vv, [shares[0], forged], self.msg)

    def test_verify_rejects_tampered_and_wrong_message(self):
        shares = [threshold_sign(self.params, s, self.msg) for s in self.dkg.shares[:2]]
        sig = threshold_recover(self.params, self.vv, shares, self.msg)
        tampered = crypto.GroupSignature(value=(sig.value + 1) % Q)
        assert not threshold_verify(self.params, tampered, self.vv.group_public_key, self.msg)
        assert not threshold_verify(self.params, sig, self.vv.group_public_key, b"other")

    @pytest.mark.parametrize("n_s", [4, 5, 6])
    def test_uniqueness_exhaustive(self, n_s):
        params = make_params(n_s)
        dkg = dkg_setup(params, entropy(n_s))
        vv = dkg.verification_vector
        shares = [threshold_sign(params, s, self.msg) for s in dkg.shares]
        sigs = set()
        for subset in itertools.combinations(shares, params.t + 1):
            rec = threshold_recover(params, vv, list(subset), self.msg)
            sigs.add(rec.value)
            assert threshold_verify(params, rec, vv.group_public_key, self.msg)
        assert len(sigs) == 1
        # every t-subset fails
        for subset in itertools.combinations(shares, params.t):
            with pytest.raises(InsufficientShares):
                threshold_recover(params, vv, list(subset), self.msg)

    def test_message_exponent_nonzero(self):
        assert message_exponent(self.params, b"m") != 0


class TestStakingSignatures:
    def test_roundtrip(self):
        kp = StakingKeyPair.from_seed(b"\x01" * 32)
        sig = kp.sign(b"msg")
        assert staking_verify(kp.public, b"msg", sig)
        assert not staking_verify(kp.public, b"other", sig)
        assert not staking_verify(b"\x00" * 32, b"msg", sig)

    def test_deterministic_keys(self):
        a = StakingKeyPair.from_seed(b"\x02" * 32)
        b = StakingKeyPair.from_seed(b"\x02" * 32)
        assert a == b
