"""Shared harness for reproducing the paper's Figure 10 series.

The paper's evaluation (section VIII) fixes messages at 100 characters,
answers at 20, questions at 50, threshold k = 1, and varies the number of
contexts N (from 2, because CP-ABE rejects a (1,1) gate). Each figure
plots, per N, the breakdown into *local processing delay* and *network
delay (incl. server-side processing)* for one role (sharer or receiver) —
comparing Implementation 1 vs 2 on the PC (10a, 10b) and PC vs tablet for
Implementation 1 (10c, 10d).

:func:`measure_point` runs the real metered application flow once for one
(construction, role, device, N) combination and returns the modelled
breakdown; the figure modules assemble series from it, print the table the
paper plots, and assert the expected shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.clients import SocialPuzzleAppC1, SocialPuzzleAppC2
from repro.core.context import Context
from repro.crypto.ec import CurveParams
from repro.crypto.params import DEFAULT
from repro.osn.provider import ServiceProvider
from repro.osn.storage import StorageHost
from repro.osn.workload import PaperWorkload
from repro.sim.devices import DeviceProfile, PC

# The paper varies N starting at 2; we sample the same range.
N_VALUES = [2, 4, 6, 8, 10]
THRESHOLD_K = 1


@dataclass(frozen=True)
class FigurePoint:
    """One bar of a Figure 10 series."""

    n: int
    local_ms: float
    network_ms: float

    @property
    def total_ms(self) -> float:
        return self.local_ms + self.network_ms


def _fresh_apps(
    params: CurveParams, file_size_model: str
) -> tuple[SocialPuzzleAppC1, SocialPuzzleAppC2, ServiceProvider, StorageHost]:
    provider = ServiceProvider()
    storage = StorageHost()
    app1 = SocialPuzzleAppC1(provider, storage)
    app2 = SocialPuzzleAppC2(
        provider, storage, params, file_size_model=file_size_model
    )
    return app1, app2, provider, storage


def _full_display_rng(n: int, k: int = THRESHOLD_K, limit: int = 10_000) -> random.Random:
    """A seed whose DisplayPuzzle draw shows all n questions, so a
    receiver's answers are never hidden by the random subset."""
    for seed in range(limit):
        if random.Random(seed).randint(k, n) == n:
            return random.Random(seed)
    raise RuntimeError("no full-display seed found")


def measure_point(
    construction: int,
    role: str,
    n: int,
    device: DeviceProfile = PC,
    params: CurveParams = DEFAULT,
    file_size_model: str = "paper",
    seed: int = 0,
) -> FigurePoint:
    """Run one metered flow; return its local/network breakdown in ms."""
    workload = PaperWorkload(seed=seed)
    context: Context = workload.context(n)
    message = workload.message()

    app1, app2, provider, _ = _fresh_apps(params, file_size_model)
    sharer = provider.register_user("sharer")
    receiver = provider.register_user("receiver")
    provider.befriend(sharer, receiver)

    app = app1 if construction == 1 else app2
    share = app.share(
        sharer, message, context, k=THRESHOLD_K, n=n, device=device,
        link=device.default_link(),
    )
    if role == "sharer":
        timing = share.timing
    elif role == "receiver":
        result = app.attempt_access(
            receiver, share.puzzle_id, context, device=device,
            link=device.default_link(), rng=_full_display_rng(n),
        )
        assert result.plaintext == message
        timing = result.timing
    else:
        raise ValueError("role must be 'sharer' or 'receiver'")

    return FigurePoint(
        n=n, local_ms=timing.local_s * 1e3, network_ms=timing.network_s * 1e3
    )


def series(
    construction: int,
    role: str,
    device: DeviceProfile = PC,
    params: CurveParams = DEFAULT,
    file_size_model: str = "paper",
    n_values: list[int] | None = None,
) -> list[FigurePoint]:
    return [
        measure_point(
            construction, role, n, device=device, params=params,
            file_size_model=file_size_model,
        )
        for n in (n_values or N_VALUES)
    ]


def print_figure(title: str, labelled_series: dict[str, list[FigurePoint]]) -> None:
    """Print the rows the paper's figure plots (per-N stacked bars)."""
    print(f"\n=== {title} ===")
    print(f"{'N':>3}", end="")
    for label in labelled_series:
        print(f"  {label + ' local(ms)':>22} {label + ' network(ms)':>24}", end="")
    print()
    lengths = {len(s) for s in labelled_series.values()}
    assert len(lengths) == 1, "series must share N values"
    for i in range(lengths.pop()):
        n = next(iter(labelled_series.values()))[i].n
        print(f"{n:>3}", end="")
        for points in labelled_series.values():
            point = points[i]
            print(f"  {point.local_ms:>22.1f} {point.network_ms:>24.1f}", end="")
        print()
