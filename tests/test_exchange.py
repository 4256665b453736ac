"""The exchange skeleton both schemes share: key pairs, the honest run, the JSON envelope."""

import hashlib
import json
from random import Random

import pytest

from twoside import digital_kex, twisted_kex
from twoside.exchange import KeyPair, Transcript


def honest(module, shape, seed=1):
    rng = Random(seed)
    return module.run_exchange(module.random_params(*shape, rng), rng)


# SHA-256 of json.dumps(transcript_to_json(..., include_secrets=True), sort_keys=True)
# for honest(module, shape): a change to either scheme's envelope, codecs or
# RNG draws changes its digest
ENVELOPES = [
    (digital_kex, (3,), "037d9aff26a991935e6f4539ffafc53d20229ff6e63835b1861877062a8b4190"),
    (digital_kex, (8,), "3a79c1c92b400378cf90dd00fc8d42dd907d93f4165f394b346b431296f87c4f"),
    (twisted_kex, (2, 2, 3), "8dfbe4caafa737e17c36cc36241c493210b68b2d7bad7e5b6ce18ab679f31ffa"),
    (twisted_kex, (3, 2, 4), "bcb73e59448e9029c7323092d291ec1b1890bf71fb5f7400683b5150821ac8d6"),
    (twisted_kex, (2, 4, 6), "d082dd7be17b2e03ac56c41202c5ddf92f8f93501cb3bca01cb0b4a3af1487a0"),
]

SCHEMES = [(digital_kex, (3,)), (twisted_kex, (2, 2, 3))]


@pytest.mark.parametrize(
    "module,shape,digest", ENVELOPES, ids=[f"{m.CODEC.scheme}-{s}" for m, s, _ in ENVELOPES]
)
def test_transcript_envelope_is_pinned(module, shape, digest):
    obj = module.transcript_to_json(honest(module, shape), include_secrets=True)
    assert hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("module,shape", SCHEMES, ids=["digital", "twisted"])
def test_both_schemes_share_one_key_pair_and_transcript(module, shape):
    tr = honest(module, shape)
    assert type(tr) is Transcript
    assert type(tr.alice) is type(tr.bob) is KeyPair
    assert tr.keys_agree
    assert module.transcript_from_json(module.transcript_to_json(tr, include_secrets=True)) == tr


@pytest.mark.parametrize("module,shape", SCHEMES, ids=["digital", "twisted"])
@pytest.mark.parametrize("secrets", ["absent", "empty"])
def test_transcript_without_secrets_is_public_only(module, shape, secrets):
    tr = honest(module, shape)
    obj = module.transcript_to_json(tr)
    if secrets == "empty":
        obj["secrets"] = {}
    back = module.transcript_from_json(obj)
    assert (back.alice.left, back.alice.right, back.bob.left, back.bob.right) == (None,) * 4
    assert back.shared_key is None
    assert (back.params, back.alice.pk, back.bob.pk) == (tr.params, tr.alice.pk, tr.bob.pk)
    assert back.keys_agree is True


@pytest.mark.parametrize("module,shape", SCHEMES, ids=["digital", "twisted"])
@pytest.mark.parametrize("value", ["false", 0, [1], None], ids=repr)
def test_keys_agree_must_be_a_json_bool(module, shape, value):
    obj = module.transcript_to_json(honest(module, shape))
    obj["keys_agree"] = value
    with pytest.raises(ValueError, match="keys_agree must be true or false"):
        module.transcript_from_json(obj)


@pytest.mark.parametrize("module,shape", SCHEMES, ids=["digital", "twisted"])
def test_keys_agree_false_parses_as_false(module, shape):
    obj = module.transcript_to_json(honest(module, shape))
    obj["keys_agree"] = False
    assert module.transcript_from_json(obj).keys_agree is False
