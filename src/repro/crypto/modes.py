"""Block-cipher modes of operation and padding.

CBC with PKCS#7 padding is what GibberishAES (the paper's Implementation 1
symmetric cryptosystem) uses; CTR is provided for streaming payloads, and
an encrypt-then-MAC authenticated wrapper gives the integrity property the
paper's security analysis achieves with signatures.

The public functions own the contract: IV and nonce checks, length
checks and PKCS#7 pad/unpad always run here, in Python. Only the block
chain is tiered. On the compiled tier :mod:`repro.crypto.accel` installs
the kernel table as ``_KERNELS`` and its ``aes_cbc_encrypt`` /
``aes_cbc_decrypt`` / ``aes_ctr`` run the chain in C; on the pure tier
the ``_*_pure`` loops below run it one :class:`~repro.crypto.aes.AES`
block at a time. Both produce the same bytes. Neither is constant-time
against cache timing (see :mod:`repro.crypto.aes`).
"""

from __future__ import annotations

import secrets

from repro.crypto.aes import AES
from repro.crypto.mac import constant_time_compare, hmac_digest

__all__ = [
    "pkcs7_pad",
    "pkcs7_unpad",
    "cbc_encrypt",
    "cbc_decrypt",
    "ctr_transform",
    "seal",
    "unseal",
    "PaddingError",
    "IntegrityError",
]

# Installed by repro.crypto.accel: the kernel table whose aes_* block
# chains replace the _*_pure loops below, or None on the pure tier.
_KERNELS = None


class PaddingError(ValueError):
    """Raised when PKCS#7 padding is malformed."""


class IntegrityError(ValueError):
    """Raised when an authenticated ciphertext fails its MAC check."""


def pkcs7_pad(data: bytes, block_size: int = 16) -> bytes:
    if not 0 < block_size < 256:
        raise ValueError("block size must be in 1..255")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = 16) -> bytes:
    if not data or len(data) % block_size != 0:
        raise PaddingError("padded data length %d is invalid" % len(data))
    pad_len = data[-1]
    if not 0 < pad_len <= block_size:
        raise PaddingError("invalid padding byte %d" % pad_len)
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise PaddingError("inconsistent padding bytes")
    return data[:-pad_len]


def cbc_encrypt(key: bytes, plaintext: bytes, iv: bytes | None = None) -> bytes:
    """AES-CBC with PKCS#7; returns ``iv || ciphertext``."""
    cipher = AES(key)
    if iv is None:
        iv = secrets.token_bytes(16)
    if len(iv) != 16:
        raise ValueError("IV must be 16 bytes")
    chain = _KERNELS.aes_cbc_encrypt if _KERNELS is not None else _cbc_encrypt_pure
    return iv + chain(cipher, iv, pkcs7_pad(plaintext))


def cbc_decrypt(key: bytes, data: bytes) -> bytes:
    """Inverse of :func:`cbc_encrypt` (expects ``iv || ciphertext``)."""
    if len(data) < 32 or len(data) % 16 != 0:
        raise ValueError("CBC ciphertext length %d is invalid" % len(data))
    cipher = AES(key)
    chain = _KERNELS.aes_cbc_decrypt if _KERNELS is not None else _cbc_decrypt_pure
    return pkcs7_unpad(chain(cipher, data[:16], data[16:]))


def ctr_transform(key: bytes, data: bytes, nonce: bytes) -> bytes:
    """AES-CTR keystream XOR (its own inverse)."""
    if len(nonce) != 16:
        raise ValueError("CTR nonce must be 16 bytes")
    cipher = AES(key)
    chain = _KERNELS.aes_ctr if _KERNELS is not None else _ctr_pure
    return chain(cipher, nonce, data)


# -- the block chains on the pure tier -------------------------------------------
#
# Each takes the expanded cipher, the 16-byte IV (or initial counter) and
# the data, and returns the transformed data: whole blocks for CBC, any
# length for CTR. The compiled kernels mirror these signatures exactly.


def _cbc_encrypt_pure(cipher: AES, iv: bytes, padded: bytes) -> bytes:
    out = bytearray()
    previous = iv
    for offset in range(0, len(padded), 16):
        block = bytes(a ^ b for a, b in zip(padded[offset : offset + 16], previous))
        previous = cipher.encrypt_block(block)
        out += previous
    return bytes(out)


def _cbc_decrypt_pure(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    out = bytearray()
    previous = iv
    for offset in range(0, len(ciphertext), 16):
        block = ciphertext[offset : offset + 16]
        decrypted = cipher.decrypt_block(block)
        out += bytes(a ^ b for a, b in zip(decrypted, previous))
        previous = block
    return bytes(out)


def _ctr_pure(cipher: AES, nonce: bytes, data: bytes) -> bytes:
    counter = int.from_bytes(nonce, "big")
    out = bytearray()
    for offset in range(0, len(data), 16):
        keystream = cipher.encrypt_block(
            (counter % (1 << 128)).to_bytes(16, "big")
        )
        chunk = data[offset : offset + 16]
        out += bytes(a ^ b for a, b in zip(chunk, keystream))
        counter += 1
    return bytes(out)


def seal(key: bytes, plaintext: bytes, associated_data: bytes = b"") -> bytes:
    """Encrypt-then-MAC: AES-CBC + HMAC-SHA3-256 over AD || ciphertext."""
    ciphertext = cbc_encrypt(key, plaintext)
    tag = hmac_digest(key, associated_data + ciphertext)
    return ciphertext + tag


def unseal(key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
    """Inverse of :func:`seal`; raises :class:`IntegrityError` on tampering."""
    if len(sealed) < 32 + 32:
        raise IntegrityError("sealed blob too short")
    ciphertext, tag = sealed[:-32], sealed[-32:]
    expected = hmac_digest(key, associated_data + ciphertext)
    if not constant_time_compare(tag, expected):
        raise IntegrityError("MAC verification failed")
    return cbc_decrypt(key, ciphertext)
