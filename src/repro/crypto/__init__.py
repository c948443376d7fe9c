"""Cryptographic substrate — implemented from scratch, except hashing.

Layout:

* :mod:`repro.crypto.numbers` — number theory (primality, modular sqrt...).
* :mod:`repro.crypto.field`, :mod:`repro.crypto.fq2` — GF(p) and GF(p^2).
* :mod:`repro.crypto.polynomial`, :mod:`repro.crypto.shamir` — Lagrange
  interpolation and Shamir's (k, n) secret sharing (paper section III-B).
* :mod:`repro.crypto.hashes`, :mod:`repro.crypto.mac`,
  :mod:`repro.crypto.kdf` — SHA-1 / SHA-256 / SHA-3 and HMAC as thin
  wrappers over the standard library's :mod:`hashlib` / :mod:`hmac`,
  plus HKDF and OpenSSL's EVP_BytesToKey.
* :mod:`repro.crypto.aes`, :mod:`repro.crypto.modes`,
  :mod:`repro.crypto.gibberish` — AES with CBC/CTR and the GibberishAES
  ``Salted__`` container used by the paper's Implementation 1.
* :mod:`repro.crypto.ec`, :mod:`repro.crypto.pairing`,
  :mod:`repro.crypto.params`, :mod:`repro.crypto.hash_to_group` — the
  type-A supersingular curve, symmetric Tate pairing and hashing into G0
  (paper section III-A).
* :mod:`repro.crypto.bls` — BLS signatures for the tamper-detection
  countermeasures of the paper's security analysis (section VI).
* :mod:`repro.crypto.accel` — acceleration-tier selection (compiled GMP
  kernels with the pure-Python path as the always-tested reference,
  ``REPRO_CRYPTO_TIER=pure|compiled|auto``).
"""

from repro.crypto.ec import CurveParams, Point
from repro.crypto.field import FieldElement, PrimeField
from repro.crypto.pairing import Pairing
from repro.crypto.params import DEFAULT, SMALL, TOY, generate_type_a_params, get_params
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrScheme, SchnorrSignature
from repro.crypto.shamir import Share, ShamirDealer, reconstruct_secret, split_secret

# Probe and install the acceleration tier exactly once, at import: after
# the submodules above exist, before any caller can hit a hot path.
from repro.crypto import accel as _accel

_accel.initialize()

__all__ = [
    "CurveParams",
    "Point",
    "FieldElement",
    "PrimeField",
    "Pairing",
    "TOY",
    "SMALL",
    "DEFAULT",
    "get_params",
    "generate_type_a_params",
    "Share",
    "SchnorrScheme",
    "SchnorrKeyPair",
    "SchnorrSignature",
    "ShamirDealer",
    "split_secret",
    "reconstruct_secret",
]
