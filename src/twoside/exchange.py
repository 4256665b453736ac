"""The protocol both schemes share: key pairs, the honest run, the transcript.

Each party publishes pk = L * h * R with its secrets L and R drawn from
commuting key spaces, and wraps the peer's public key in its own secrets to
reach the shared key.  A scheme supplies keygen, shared_key and a Codec;
the rest is written here once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from random import Random
from typing import Any, Callable, NamedTuple


@dataclass(frozen=True)
class KeyPair:
    left: Any  # None when the secrets are unknown
    right: Any
    pk: Any
    # what the scheme's keygen formed from the secrets, for its shared_key;
    # outside init, equality and repr, so replace and parsing drop it
    multipliers: Any = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Transcript:
    params: Any
    alice: KeyPair
    bob: KeyPair
    shared_key: Any  # None, like every secret, in a public-only transcript
    keys_agree: bool


class Codec(NamedTuple):
    """A scheme's JSON codecs; the key and secret readers take the params first."""

    scheme: str
    params_to_json: Callable
    params_from_json: Callable
    key_to_json: Callable  # public keys and the shared key
    key_from_json: Callable
    secret_to_json: Callable
    secret_from_json: Callable


def run_exchange(params, rng: Random, keygen: Callable, shared_key: Callable) -> Transcript:
    alice = keygen(params, rng)
    bob = keygen(params, rng)
    k_a = shared_key(alice, bob.pk)
    k_b = shared_key(bob, alice.pk)
    return Transcript(params, alice, bob, k_a, k_a == k_b)


def transcript_to_json(tr: Transcript, include_secrets: bool, codec: Codec) -> dict:
    key, secret = codec.key_to_json, codec.secret_to_json
    obj = {
        "scheme": codec.scheme,
        "params": codec.params_to_json(tr.params),
        "alice_public": key(tr.alice.pk),
        "bob_public": key(tr.bob.pk),
        "keys_agree": tr.keys_agree,
    }
    if include_secrets:
        obj["secrets"] = {
            "alice_left": secret(tr.alice.left),
            "alice_right": secret(tr.alice.right),
            "bob_left": secret(tr.bob.left),
            "bob_right": secret(tr.bob.right),
            "shared_key": key(tr.shared_key),
        }
    return obj


def transcript_from_json(obj: dict, codec: Codec) -> Transcript:
    """Parse a transcript; without (or with empty) secrets it is public-only.

    Raises ValueError unless keys_agree is a JSON boolean.
    """
    agree = obj["keys_agree"]
    if not isinstance(agree, bool):
        raise ValueError(f"keys_agree must be true or false, not {type(agree).__name__}")
    params = codec.params_from_json(obj["params"])
    key, secret = partial(codec.key_from_json, params), partial(codec.secret_from_json, params)
    alice_pk, bob_pk = key(obj["alice_public"]), key(obj["bob_public"])
    secrets = obj.get("secrets")
    if secrets:
        alice = KeyPair(secret(secrets["alice_left"]), secret(secrets["alice_right"]), alice_pk)
        bob = KeyPair(secret(secrets["bob_left"]), secret(secrets["bob_right"]), bob_pk)
        shared = key(secrets["shared_key"])
    else:
        alice, bob, shared = KeyPair(None, None, alice_pk), KeyPair(None, None, bob_pk), None
    return Transcript(params, alice, bob, shared, agree)
