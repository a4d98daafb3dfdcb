"""Golden-vector checks: digests, stream words, shuffles, tiny-field
threshold signatures and the sparse Merkle state commitment must stay
bit-identical across implementations."""

import pathlib

from flowpipe import crypto
from flowpipe.encoding import hexify
from flowpipe.merkle import EMPTY_ROOT, ExecutionState, value_proof_vrfy

VECTORS = pathlib.Path(__file__).parent.parent / "vectors"


def load(name: str) -> dict[str, str]:
    out = {}
    for line in (VECTORS / name).read_text().splitlines():
        key, value = line.split()
        out[key] = value
    return out


class TestDigestVectors:
    def test_hashes(self):
        v = load("digests.hex")
        assert hexify(crypto.hash("", b"")) == v["hash_empty_tag_empty"]
        assert hexify(crypto.hash("x", b"")) == v["hash_x_empty"]
        assert hexify(crypto.hash("y", b"")) == v["hash_y_empty"]
        assert hexify(crypto.hash("block", b"abc")) == v["hash_block_abc"]

    def test_seed_derivation(self):
        v = load("digests.hex")
        assert hexify(crypto.derive_seed(["a", "b"], b"\x00" * 32)) == v["derive_seed_zero"]
        assert (
            hexify(crypto.derive_seed(["epoch"], b"\x00" * 32))
            == v["derive_seed_epoch_zero"]
        )


class TestStreamVectors:
    def test_words(self):
        v = load("stream.hex")
        stream = crypto.seeded_stream(b"\x00" * 32)
        for i in range(8):
            assert f"{stream.word(i):016x}" == v[f"word_{i}"]

    def test_rejection_draw(self):
        v = load("stream.hex")
        stream = crypto.seeded_stream(b"\x00" * 32)
        assert f"{stream.next_below(100):02x}" == v["next_below_100_first"]


class TestShuffleVectors:
    def test_zero_seed_permutation(self):
        v = load("shuffle.hex")
        perm = crypto.fisher_yates_shuffle(b"\x00" * 32, list(range(8)))
        assert "".join(f"{x:02x}" for x in perm) == v["shuffle_zero_8"]

    def test_ones_seed_bytes(self):
        v = load("shuffle.hex")
        perm = crypto.fisher_yates_shuffle(b"\x01" * 32, [b"a", b"b", b"c", b"d"])
        assert "".join(x.decode() for x in perm) == v["shuffle_ones_abcd"]


class TestSignatureVectors:
    def test_tiny_field_transcript(self):
        v = load("signatures.hex")
        params = crypto.make_params(5, crypto.TEST_FIELD)
        entropy = [crypto.derive_seed(["vec-dkg", str(i)], b"\x02" * 32) for i in range(5)]
        dkg = crypto.dkg_setup(params, entropy)
        assert f"{dkg.verification_vector.group_public_key:04x}" == v["group_public_key"]
        msg = crypto.hash("vector-msg", b"")
        assert hexify(msg) == v["message"]
        shares = [crypto.threshold_sign(params, s, msg) for s in dkg.shares]
        for sig in shares:
            assert f"{sig.value:04x}" == v[f"share_sig_{sig.party_index}"]
        sigma = crypto.threshold_recover(
            params, dkg.verification_vector, shares[: params.t + 1], msg
        )
        assert f"{sigma.value:04x}" == v["group_signature"]


class TestMerkleVectors:
    REGISTERS = {b"alice": b"\x01", b"bob": b"\x02", b"carol": b"\x03", b"dave": b"\x04", b"erin": b"\x05"}

    def test_roots(self):
        v = load("merkle.hex")
        assert hexify(ExecutionState().root()) == hexify(EMPTY_ROOT) == v["empty_root"]
        assert hexify(ExecutionState(self.REGISTERS).root()) == v["root_alice_to_erin"]

    def test_membership_proof(self):
        v = load("merkle.hex")
        st = ExecutionState(self.REGISTERS)
        proof = st.prove(b"carol")
        assert "".join(hexify(s) for s in proof.siblings) == v["member_carol_siblings"]
        assert proof.other is None
        assert value_proof_vrfy(b"carol", b"\x03", proof, st.root())

    def test_non_membership_proof(self):
        v = load("merkle.hex")
        st = ExecutionState(self.REGISTERS)
        proof = st.prove(b"zed")
        assert "".join(hexify(s) for s in proof.siblings) == v["absent_zed_siblings"]
        assert hexify(proof.other[0] + proof.other[1]) == v["absent_zed_other"]
        assert value_proof_vrfy(b"zed", None, proof, st.root())
