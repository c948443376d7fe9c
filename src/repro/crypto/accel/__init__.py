"""Tier selection for the crypto hot path.

The crypto substrate ships two tiers of every hot primitive, following
bzrlib's ``_dirstate_helpers_c`` / ``*_py`` convention of an optional
compiled implementation over an always-tested pure-Python reference:

* **pure** — the existing from-scratch Python in
  :mod:`repro.crypto.numbers`, :mod:`repro.crypto.fq2`,
  :mod:`repro.crypto.field`, :mod:`repro.crypto.ec`,
  :mod:`repro.crypto.modes` and :mod:`repro.crypto.pairing`.  Always
  present, always the semantic reference.
* **compiled** — kernels built on first use by
  :mod:`repro.crypto.accel._compiled` (``cc -O2 -shared`` against the
  system libgmp, loaded with ctypes) covering ``modinv`` /
  ``batch_modinv``, field ``mulmod``, G0 scalar multiplication (the
  whole Jacobian double-and-add ladder), the point lift's square root
  (``powmod``), GF(q²) exponentiation, the
  Straus ``gt_multi_exp`` chain, the whole merged Miller loop, and the
  AES-CBC/CTR block chains (plain C over the round keys and T-tables of
  :mod:`repro.crypto.aes`; like the pure tier, T-table AES is not
  cache-timing constant-time).

The tier is probed **once at import** of :mod:`repro.crypto` (the
package ``__init__`` calls :func:`initialize`): by default the compiled
backend is attempted and silently falls back to pure when there is no
compiler, no GMP, or the known-answer self-test fails.  The environment
variable ``REPRO_CRYPTO_TIER`` overrides the probe:

* ``REPRO_CRYPTO_TIER=pure`` — never probe; reference tier only (this is
  what the ``crypto-accel`` CI job forces).
* ``REPRO_CRYPTO_TIER=compiled`` — require the compiled tier; raise
  :class:`CompiledBackendUnavailable` instead of degrading.
* unset or ``auto`` — probe, prefer compiled, fall back to pure.

Selection is *per primitive*: installing the compiled tier routes the
Miller loop, batch/scalar inversion, GF(q²) power chains and AES block
chains through the kernels, but single base-field multiplications stay
on native CPython ints unless the probe's calibration finds the FFI
crossing profitable
(it is not for ≤512-bit operands — one ``a*b % m`` is cheaper than one
ctypes call).  Operation counters always tick in the Python wrappers, so
``Pairing.op_counts`` is tier-invariant.

:func:`set_tier` re-installs at runtime (used by the cross-tier
equivalence suite); :func:`describe` feeds the ``crypto:`` stats line.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.crypto.accel._compiled import CompiledBackendUnavailable
from repro.crypto.accel._pure import PureKernels

__all__ = [
    "CompiledBackendUnavailable",
    "PureKernels",
    "TierState",
    "active",
    "describe",
    "initialize",
    "set_tier",
]

_VALID_TIERS = ("auto", "pure", "compiled")

_lock = threading.RLock()
_state: "TierState | None" = None
_probe_result = None  # cached GmpKernels | CompiledBackendUnavailable
_MULMOD_BITS = 512  # calibrate at the widest preset's operand size


@dataclass(frozen=True)
class TierState:
    """What the tier layer decided and why."""

    requested: str  # the REPRO_CRYPTO_TIER / set_tier value
    active: str  # "pure" | "compiled"
    library: "str | None"  # path of the loaded kernel .so, if any
    reason: "str | None"  # why compiled is not active, if it isn't
    field_mulmod: str  # "native" | "compiled" (per-primitive selection)


def _probe_compiled():
    """Build/load/self-test the kernels once; cache the outcome."""
    global _probe_result
    if _probe_result is None:
        from repro.crypto.accel import _compiled

        try:
            _probe_result = _compiled.probe()
        except CompiledBackendUnavailable as exc:
            _probe_result = exc
    if isinstance(_probe_result, CompiledBackendUnavailable):
        raise _probe_result
    return _probe_result


def _calibrate_mulmod(kernels) -> bool:
    """True when routing single field muls through the FFI is a win.

    On CPython the native ``a*b % m`` for ≤512-bit operands beats one
    ctypes crossing, so this normally selects the native path; the hook
    stays available for wider moduli or faster FFI stacks.
    """
    m = (1 << _MULMOD_BITS) - 569  # arbitrary odd 512-bit modulus
    a = (1 << (_MULMOD_BITS - 1)) + 12345
    b = m - 98765
    rounds = 64
    start = time.perf_counter()
    for _ in range(rounds):
        _ = a * b % m
    native = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(rounds):
        kernels.mulmod(a, b, m)
    compiled = time.perf_counter() - start
    return compiled * 1.1 < native


def _install(kernels, requested: str, reason: "str | None") -> "TierState":
    """Push the chosen backend into the consumer modules."""
    import repro.crypto.ec as ec
    import repro.crypto.field as field
    import repro.crypto.fq2 as fq2
    import repro.crypto.modes as modes
    import repro.crypto.numbers as numbers
    import repro.crypto.pairing as pairing

    use_mulmod = bool(kernels) and _calibrate_mulmod(kernels)
    numbers._BACKEND = kernels
    fq2._BACKEND = kernels
    ec._KERNELS = kernels
    modes._KERNELS = kernels
    pairing._KERNELS = kernels
    field._MULMOD = kernels.mulmod if use_mulmod else None
    return TierState(
        requested=requested,
        active="compiled" if kernels else "pure",
        library=getattr(kernels, "lib_path", None),
        reason=reason,
        field_mulmod="compiled" if use_mulmod else "native",
    )


def initialize(requested: "str | None" = None) -> "TierState":
    """Select and install a tier (idempotent unless ``requested`` given).

    Called once from ``repro.crypto.__init__``; reads
    ``REPRO_CRYPTO_TIER`` when ``requested`` is None.
    """
    global _state
    with _lock:
        if _state is not None and requested is None:
            return _state
        if requested is None:
            requested = os.environ.get("REPRO_CRYPTO_TIER", "auto") or "auto"
        requested = requested.lower()
        if requested not in _VALID_TIERS:
            raise ValueError(
                "REPRO_CRYPTO_TIER must be one of %s, got %r"
                % ("/".join(_VALID_TIERS), requested)
            )
        if requested == "pure":
            _state = _install(None, requested, "pure tier requested")
        elif requested == "compiled":
            _state = _install(_probe_compiled(), requested, None)
        else:  # auto: prefer compiled, degrade silently
            try:
                _state = _install(_probe_compiled(), requested, None)
            except CompiledBackendUnavailable as exc:
                _state = _install(None, requested, str(exc))
    return _state


def set_tier(name: str) -> "TierState":
    """Force a tier at runtime (``pure`` / ``compiled`` / ``auto``).

    Raises :class:`CompiledBackendUnavailable` when ``compiled`` is
    forced on a machine where the kernels cannot be built.
    """
    return initialize(requested=name)


def active() -> "TierState":
    """The installed tier, initializing with the default probe if needed."""
    state = _state
    if state is None:
        state = initialize()
    return state


def describe() -> dict:
    """Plain-dict view of the active tier for stats/banner lines."""
    state = active()
    return {
        "tier": state.active,
        "requested": state.requested,
        "library": state.library,
        "reason": state.reason,
        "field_mulmod": state.field_mulmod,
    }
