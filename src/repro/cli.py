"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``       — the quickstart flow (share, solve, deny, audit).
* ``figure``     — regenerate a Figure 10 panel (optionally ``--csv``).
* ``attacks``    — stage the section VI attack scenarios and print outcomes.
* ``study``      — run the simulated ISO 9241-11 usability study.
* ``simulate``   — run the system-level deployment simulation.
* ``recommend``  — list recommended context questions for an event kind.
* ``audit``      — strength-audit a context JSON file before sharing.
* ``policy``     — parse, canonicalize and dry-run a nested puzzle policy.
* ``share``      — share an object into a persistent world file.
* ``solve``      — solve a puzzle from a persistent world file.
* ``trace``      — run seeded journeys and print their closed span trees.
* ``stats``      — run seeded journeys and print the metrics registry.
* ``serve``      — serve the protocol engine over TCP (see docs/DEPLOYMENT.md).

The CLI only drives the library; all logic lives in the packages.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.apps.platform import SocialPuzzlePlatform
from repro.core.context import Context
from repro.core.entropy import audit_puzzle_strength
from repro.core.errors import AccessDeniedError, PuzzleParameterError
from repro.core.recommend import ContextRecommender
from repro.crypto.params import get_params

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Social Puzzles (DSN 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the quickstart share/solve flow")
    demo.add_argument("--params", default="small", help="pairing preset (toy/small/default)")
    demo.add_argument("--construction", type=int, default=1, choices=(1, 2))
    demo.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="run the flow against a running `repro serve` instead of "
        "in-process (client-side crypto, every SP/DH step a round trip)",
    )

    figure = sub.add_parser("figure", help="regenerate a Figure 10 panel")
    figure.add_argument("panel", choices=("10a", "10b", "10c", "10d"))
    figure.add_argument("--params", default="default", help="pairing preset")
    figure.add_argument(
        "--file-size-model", default="paper", choices=("paper", "actual")
    )
    figure.add_argument("--csv", default=None, help="also write the series to a CSV file")

    sub.add_parser("attacks", help="stage the section VI attack scenarios")

    study = sub.add_parser("study", help="run the simulated usability study")
    study.add_argument("--participants", type=int, default=30)
    study.add_argument("--questions", type=int, default=5)
    study.add_argument("--threshold", type=int, default=2)
    study.add_argument("--seed", type=int, default=0)

    simulate = sub.add_parser(
        "simulate", help="run the system-level deployment simulation"
    )
    simulate.add_argument("--users", type=int, default=40)
    simulate.add_argument("--ticks", type=int, default=20)
    simulate.add_argument("--threshold", type=int, default=2)
    simulate.add_argument("--construction", type=int, default=1, choices=(1, 2))
    simulate.add_argument("--seed", type=int, default=0)

    recommend = sub.add_parser("recommend", help="suggest context questions")
    recommend.add_argument("kind", help="event kind (party/trip/meeting/wedding)")
    recommend.add_argument("--count", type=int, default=None)

    audit = sub.add_parser("audit", help="strength-audit a context JSON file")
    audit.add_argument("path", help='JSON file: {"k": 2, "context": {"Q?": "A", ...}}')

    policy = sub.add_parser(
        "policy", help="parse, canonicalize and dry-run a puzzle policy"
    )
    policy.add_argument(
        "expression",
        help="policy text, e.g. \"scope:group/trip and (2 of (a, b, c) or"
        " attr:escrow)\"",
    )
    policy.add_argument(
        "--known", default=None, metavar="Q1,Q2,...",
        help="comma-separated requirement labels to treat as proved; prints"
        " the grant/deny derivation (exit 0 grant, 1 deny)",
    )

    share = sub.add_parser(
        "share", help="share an object into a persistent world file"
    )
    share.add_argument("--world", required=True, help="world JSON file (created if absent)")
    share.add_argument("--sharer", required=True, help="sharer user name")
    share.add_argument(
        "--friends", default="", help="comma-separated friend names to (auto-)create"
    )
    share.add_argument("--message", required=True, help="object to protect")
    share.add_argument(
        "--context", required=True, help='context JSON file {"Q?": "A", ...}'
    )
    share.add_argument("-k", "--threshold", type=int, default=2)
    share.add_argument("--construction", type=int, default=1, choices=(1, 2))
    share.add_argument("--params", default="toy", help="pairing preset for new worlds")

    solve = sub.add_parser("solve", help="solve a puzzle from a world file")
    solve.add_argument("--world", required=True)
    solve.add_argument("--viewer", required=True, help="viewer user name")
    solve.add_argument("--puzzle", type=int, required=True, help="puzzle id")
    solve.add_argument(
        "--answers", required=True, help='answers JSON file {"Q?": "A", ...}'
    )
    solve.add_argument("--construction", type=int, default=1, choices=(1, 2))
    solve.add_argument("--seed", type=int, default=None, help="display-subset seed (C1)")

    serve = sub.add_parser(
        "serve", help="serve the protocol engine over TCP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free one; the bound address is printed)",
    )
    serve.add_argument("--params", default="small", help="pairing preset")
    serve.add_argument(
        "--max-in-flight", type=int, default=8,
        help="per-connection pipelining window (backpressure beyond it)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="dispatch threads shared by all connections",
    )
    serve.add_argument(
        "--cluster-nodes", type=int, default=None, metavar="N",
        help="back the DH with an N-node quorum storage cluster",
    )
    serve.add_argument(
        "--storage-engine", default="dict", metavar="ENGINE",
        help="per-node blob engine under the cluster "
        "(dict=in-memory reference, segment=log-structured store)",
    )
    serve.add_argument(
        "--crypto-tier", default=None, choices=("auto", "pure", "compiled"),
        help="force the crypto acceleration tier "
        "(default: REPRO_CRYPTO_TIER, else probe compiled, fall back pure)",
    )

    for name, help_text, default_journeys in (
        ("trace", "run seeded journeys and print their span trees", 1),
        ("stats", "run seeded journeys and print the metrics registry", 3),
    ):
        observed = sub.add_parser(name, help=help_text)
        observed.add_argument("--construction", type=int, default=1, choices=(1, 2))
        observed.add_argument(
            "--journeys", type=int, default=default_journeys,
            help="number of share+solve journeys to run",
        )
        observed.add_argument("--seed", type=int, default=0)
        observed.add_argument(
            "--fault-rate", type=float, default=0.0,
            help="transient-fault probability per substrate call (wires retries)",
        )
        observed.add_argument("--params", default="small", help="pairing preset")
        observed.add_argument(
            "--cluster-nodes", type=int, default=None, metavar="N",
            help="back the DH with an N-node quorum storage cluster "
            "(cluster.* metrics appear in the output)",
        )
        observed.add_argument(
            "--storage-engine", default="dict", metavar="ENGINE",
            help="per-node blob engine under the cluster "
            "(dict=in-memory reference, segment=log-structured store)",
        )
        observed.add_argument(
            "--crypto-tier", default=None, choices=("auto", "pure", "compiled"),
            help="force the crypto acceleration tier "
            "(default: REPRO_CRYPTO_TIER, else probe compiled, fall back pure)",
        )

    return parser


def _load_world(path: str, params_name: str) -> "SocialPuzzlePlatform":
    import os

    from repro.osn.persistence import load_platform

    if os.path.exists(path):
        return load_platform(path)
    return SocialPuzzlePlatform(params=get_params(params_name))


def _user_by_name(platform: "SocialPuzzlePlatform", name: str, create: bool = False):
    for account in platform.provider._accounts.values():
        if account.user.name == name:
            return account.user
    if create:
        return platform.join(name)
    raise SystemExit(f"error: no user named {name!r} in this world")


def _cmd_share(args) -> int:
    from repro.osn.persistence import save_platform

    platform = _load_world(args.world, args.params)
    sharer = _user_by_name(platform, args.sharer, create=True)
    for friend_name in filter(None, args.friends.split(",")):
        friend = _user_by_name(platform, friend_name.strip(), create=True)
        if not platform.provider.are_friends(sharer, friend):
            platform.befriend(sharer, friend)
    with open(args.context) as handle:
        context = Context.from_mapping(json.load(handle))
    share = platform.share(
        sharer,
        args.message.encode(),
        context,
        k=args.threshold,
        construction=args.construction,
    )
    save_platform(platform, args.world)
    print(f"shared puzzle #{share.puzzle_id} (construction {args.construction})")
    print(f"post: {share.post.content}")
    return 0


def _cmd_solve(args) -> int:
    from repro.osn.persistence import save_platform

    platform = _load_world(args.world, "toy")
    viewer = _user_by_name(platform, args.viewer)
    with open(args.answers) as handle:
        knowledge = Context.from_mapping(json.load(handle))
    app = platform.app_c1 if args.construction == 1 else platform.app_c2
    rng = random.Random(args.seed) if args.seed is not None else None
    try:
        result = app.attempt_access(viewer, args.puzzle, knowledge, rng=rng)
    except AccessDeniedError as exc:
        print(f"access denied: {exc}", file=sys.stderr)
        return 1
    save_platform(platform, args.world)
    print(result.plaintext.decode(errors="replace"))
    return 0


def _parse_address(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"error: --connect wants HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


def _cmd_demo_remote(args) -> int:
    """The demo flow against a running ``repro serve``: the crypto runs
    here, every SP/DH interaction is a framed round trip."""
    from repro.serve import RemoteProtocolClient, TcpTransport, run_remote_journey

    host, port = _parse_address(args.connect)
    with RemoteProtocolClient(TcpTransport(host, port)) as client:
        report = run_remote_journey(
            client, construction=args.construction, params_name=args.params
        )
    print(
        f"shared puzzle #{report.puzzle_id} over tcp://{host}:{port} "
        f"(construction {report.construction})"
    )
    print(f"bob solved it: {report.recovered!r}")
    print(f"carol denied the post: {report.acl_denied}")
    print(f"carol denied by the puzzle: {report.answers_denied}")
    return 0 if report.ok else 1


def _cmd_demo(args) -> int:
    if args.connect is not None:
        return _cmd_demo_remote(args)
    params = get_params(args.params)
    platform = SocialPuzzlePlatform(params=params)
    alice = platform.join("alice")
    bob = platform.join("bob")
    carol = platform.join("carol")
    platform.befriend(alice, bob)
    platform.befriend(alice, carol)

    context = Context.from_mapping(
        {
            "Where was the party held?": "Lake Tahoe",
            "Who brought the cake?": "Marguerite",
            "Which song closed the night?": "Wonderwall",
        }
    )
    obj = b"party photos"
    share = platform.share(
        alice, obj, context, k=2, construction=args.construction
    )
    print(f"shared puzzle #{share.puzzle_id} (construction {args.construction})")
    rng = random.Random(5)
    result = platform.solve(
        bob, share, context, construction=args.construction, rng=rng
    )
    print(f"bob solved it: {result.plaintext!r}")
    try:
        wrong = Context.from_mapping({"Where was the party held?": "Las Vegas"})
        platform.solve(carol, share, wrong, construction=args.construction, rng=rng)
    except AccessDeniedError as exc:
        print(f"carol denied: {exc}")
    for pair in context:
        platform.provider.audit.assert_never_saw(pair.answer_bytes(), "answer")
    print("audit: SP never saw a plaintext answer")
    return 0


def _cmd_figure(args) -> int:
    from repro.sim.devices import PC, TABLET
    from repro.sim.figures import print_figure, series

    params = get_params(args.params)
    model = args.file_size_model
    if args.panel == "10a":
        title = "Figure 10(a) — Sharer's Overhead: I1 vs I2 on PC"
        labelled = {
            "I1": series(1, "sharer", params=params, file_size_model=model),
            "I2": series(2, "sharer", params=params, file_size_model=model),
        }
    elif args.panel == "10b":
        title = "Figure 10(b) — Receiver's Overhead: I1 vs I2 on PC"
        labelled = {
            "I1": series(1, "receiver", params=params, file_size_model=model),
            "I2": series(2, "receiver", params=params, file_size_model=model),
        }
    elif args.panel == "10c":
        title = "Figure 10(c) — Sharer's Overhead: PC vs Tablet for I1"
        labelled = {
            "PC": series(1, "sharer", device=PC, params=params),
            "Tablet": series(1, "sharer", device=TABLET, params=params),
        }
    else:
        title = "Figure 10(d) — Receiver's Overhead: PC vs Tablet for I1"
        labelled = {
            "PC": series(1, "receiver", device=PC, params=params),
            "Tablet": series(1, "receiver", device=TABLET, params=params),
        }
    print_figure(title, labelled)
    if args.csv:
        from repro.sim.metrics import write_csv

        write_csv(labelled, args.csv)
        print(f"series written to {args.csv}")
    return 0


def _cmd_attacks(_args) -> int:
    from repro.analysis.scenarios import format_outcomes, run_standard_scenarios

    print(format_outcomes(run_standard_scenarios()))
    return 0


def _cmd_study(args) -> int:
    from repro.analysis.usability import StudyConfig, simulate_user_study

    config = StudyConfig(
        participants_per_class=args.participants,
        num_questions=args.questions,
        threshold=args.threshold,
        seed=args.seed,
    )
    report = simulate_user_study(config)
    print(
        f"simulated study: {args.participants} participants/class, "
        f"N={args.questions}, k={args.threshold}"
    )
    print(
        f"{'class':>16} {'success':>8} {'mean time (s)':>14} "
        f"{'first-try':>10} {'attempts':>9}"
    )
    for row in report.results:
        print(
            f"{row.participant_class:>16} {row.success_rate:>8.0%} "
            f"{row.mean_time_s:>14.1f} {row.first_try_rate:>10.0%} "
            f"{row.mean_attempts:>9.2f}"
        )
    return 0


def _cmd_simulate(args) -> int:
    from repro.sim.driver import SimulationConfig, run_simulation

    config = SimulationConfig(
        num_users=args.users,
        ticks=args.ticks,
        threshold=args.threshold,
        construction=args.construction,
        seed=args.seed,
    )
    print(
        "simulating %d ticks on %d users (construction %d, k=%d)..."
        % (config.ticks, config.num_users, config.construction, config.threshold)
    )
    report = run_simulation(config)
    for line in report.summary_lines():
        print(" ", line)
    return 0 if report.stranger_granted == 0 else 1


def _cmd_recommend(args) -> int:
    recommender = ContextRecommender()
    try:
        candidates = recommender.suggest_questions(args.kind, args.count)
    except PuzzleParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"recommended questions for a {args.kind} (strongest domains first):")
    for candidate in candidates:
        print(f"  [{candidate.domain_size:>8} plausible answers] {candidate.question}")
    return 0


def _cmd_audit(args) -> int:
    with open(args.path) as handle:
        payload = json.load(handle)
    try:
        context = Context.from_mapping(payload["context"])
        k = int(payload["k"])
        report = audit_puzzle_strength(context, k)
    except (KeyError, ValueError, PuzzleParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"puzzle strength audit (k={k}, N={len(context)}):")
    for answer in report.answers:
        marker = "WEAK" if answer.weak else "ok  "
        print(f"  [{marker}] {answer.entropy_bits:5.1f} bits  {answer.question}")
    print(f"attack cost (k weakest answers): ~{report.attack_cost_bits:.0f} bits")
    for note in report.notes:
        print(f"  note: {note}")
    if report.acceptable:
        print("verdict: acceptable")
        return 0
    print("verdict: NOT acceptable")
    for warning in report.warnings:
        print(f"  warning: {warning}")
    return 1


def _cmd_policy(args) -> int:
    """Parse ``expression``; optionally evaluate it against ``--known``.

    Without ``--known`` this is a lint: the canonical rendering, the
    question list and the tree depth, or a caret-annotated syntax error.
    With ``--known`` it additionally runs the same gate-by-gate evaluator
    the SP's Explain verb uses (locally — no answers are involved, only
    which labels count as proved).
    """
    from repro.abe.policy import PolicySyntaxError
    from repro.policy import PolicyError, PuzzlePolicy, explain_tree

    try:
        policy = PuzzlePolicy.from_text(args.expression)
    except (PolicySyntaxError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shape = "flat" if policy.is_flat() else "nested"
    print(f"canonical: {policy.text}")
    print(f"shape: {shape}, depth {policy.depth()}, "
          f"{len(policy.questions)} requirement(s)")
    for question in policy.questions:
        print(f"  - {question}")
    scopes = policy.scope_labels()
    if scopes:
        print("scope gates: " + ", ".join(scopes))
    if args.known is None:
        return 0
    known = {label.strip() for label in args.known.split(",") if label.strip()}
    unknown = known - set(policy.questions)
    if unknown:
        print(
            "warning: not in the policy: " + ", ".join(sorted(unknown)),
            file=sys.stderr,
        )
    explanation = explain_tree(
        policy.tree, known, construction=0, puzzle_id=0, policy_text=policy.text
    )
    print(explanation.render())
    return 0 if explanation.granted else 1


def format_self_healing(registry) -> str:
    """One-line summary of the cluster's self-healing counters.

    Reads the registry without creating instruments, so a run that never
    healed anything reports zeros rather than minting empty counters.

    >>> from repro.obs.metrics import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> registry.counter("cluster.anti_entropy.keys_repaired").add(3)
    >>> format_self_healing(registry)
    'self-healing: anti-entropy rounds=0 repaired=3 bytes=0 | degraded reads=0 | hints dropped=0'
    """

    def value(name: str) -> int:
        counter = registry.counters.get(name)
        return int(counter.value) if counter is not None else 0

    return (
        "self-healing: anti-entropy rounds=%d repaired=%d bytes=%d"
        " | degraded reads=%d | hints dropped=%d"
        % (
            value("cluster.anti_entropy.rounds"),
            value("cluster.anti_entropy.keys_repaired"),
            value("cluster.anti_entropy.bytes_exchanged"),
            value("cluster.degraded_reads"),
            value("cluster.hinted_handoff.dropped"),
        )
    )


def format_crypto_tier(tier) -> str:
    """One-line summary of the crypto acceleration tier.

    Takes :func:`repro.crypto.accel.describe` output; shown by
    ``repro stats`` and the ``repro serve`` banner.

    >>> format_crypto_tier(
    ...     {"tier": "compiled", "requested": "auto",
    ...      "library": "/tmp/spxaccel.so", "reason": None,
    ...      "field_mulmod": "native"})
    'crypto: tier=compiled requested=auto field-mul=native'
    >>> format_crypto_tier(
    ...     {"tier": "pure", "requested": "pure", "library": None,
    ...      "reason": "pure tier requested", "field_mulmod": "native"})
    'crypto: tier=pure requested=pure field-mul=native'
    """
    return "crypto: tier=%s requested=%s field-mul=%s" % (
        tier["tier"],
        tier["requested"],
        tier["field_mulmod"],
    )


def format_storage_engine(stats) -> str:
    """One-line summary of the cluster's storage-engine counters.

    Takes the aggregate :class:`~repro.store.interface.StoreStats` from
    ``StorageCluster.storage_stats()`` — segments and live/dead bytes
    describe the log right now; compactions and reclaimed bytes are
    lifetime totals.

    >>> from repro.store.interface import StoreStats
    >>> format_storage_engine(StoreStats(
    ...     engine="segment", segments=3, live_bytes=2048, dead_bytes=512,
    ...     physical_bytes=900, payload_bytes=1500, objects=12,
    ...     tombstones=1, compactions=2, bytes_reclaimed=4096))
    'storage: engine=segment segments=3 live=2048B dead=512B physical=900B | compactions=2 reclaimed=4096B'
    """
    return (
        "storage: engine=%s segments=%d live=%dB dead=%dB physical=%dB"
        " | compactions=%d reclaimed=%dB"
        % (
            stats.engine,
            stats.segments,
            stats.live_bytes,
            stats.dead_bytes,
            stats.physical_bytes,
            stats.compactions,
            stats.bytes_reclaimed,
        )
    )


def _observed_journeys(args):
    """Run seeded share+solve journeys under an Observability hub.

    Returns ``(obs, completed, failed, cluster-or-None)``. With
    ``--fault-rate`` the platform runs on flaky substrates behind a
    retry policy, so the traces and metrics show retries, backoff and
    (possibly) give-ups.
    """
    from repro.core.errors import SocialPuzzleError
    from repro.obs import Observability
    from repro.osn.resilience import RetryPolicy
    from repro.sim.metrics import ResilienceMetrics
    from repro.sim.timing import SimClock

    clock = SimClock()
    obs = Observability(clock=clock)
    substrates = {}
    cluster_nodes = getattr(args, "cluster_nodes", None)
    if args.fault_rate > 0:
        from repro.osn.faults import FlakyServiceProvider, FlakyStorageHost

        substrates["provider"] = FlakyServiceProvider(
            post_failure_rate=args.fault_rate,
            read_failure_rate=args.fault_rate,
            seed=args.seed,
        )
        if cluster_nodes is None:
            substrates["storage"] = FlakyStorageHost(
                put_failure_rate=args.fault_rate,
                get_failure_rate=args.fault_rate,
                seed=args.seed + 1,
            )
    if cluster_nodes is not None:
        from repro.cluster import StorageCluster, flaky_node_factory

        engine = getattr(args, "storage_engine", "dict")
        factory = None
        if args.fault_rate > 0:
            factory = flaky_node_factory(
                store_failure_rate=args.fault_rate,
                fetch_failure_rate=args.fault_rate,
                seed=args.seed + 1,
                engine=engine,
            )
        substrates["storage"] = StorageCluster(
            num_nodes=cluster_nodes, clock=clock, node_factory=factory,
            engine=engine,
        )
    retry = RetryPolicy(
        clock=clock, seed=args.seed, metrics=ResilienceMetrics(registry=obs.registry)
    )
    if getattr(args, "crypto_tier", None):
        from repro.crypto import accel

        accel.set_tier(args.crypto_tier)
    platform = SocialPuzzlePlatform(
        params=get_params(args.params),
        retry_policy=retry,
        observability=obs,
        **substrates,
    )
    alice = platform.join("alice")
    bob = platform.join("bob")
    platform.befriend(alice, bob)
    context = Context.from_mapping(
        {
            "Where was the party held?": "Lake Tahoe",
            "Who brought the cake?": "Marguerite",
            "Which song closed the night?": "Wonderwall",
        }
    )
    completed = failed = 0
    for i in range(args.journeys):
        rng = random.Random(args.seed + i)
        try:
            share = platform.share(
                alice,
                b"party photos #%d" % i,
                context,
                k=2,
                construction=args.construction,
            )
            platform.solve(
                bob, share, context, construction=args.construction, rng=rng
            )
            completed += 1
        except SocialPuzzleError:
            failed += 1
    cluster = substrates.get("storage") if cluster_nodes is not None else None
    if cluster is not None:
        # Close out the run the way a real deployment's background tasks
        # would: one anti-entropy sweep so divergence the journeys left
        # behind (flaky stores, shed hints) heals before we report, then
        # one compaction round so the storage gauges describe a settled
        # log rather than mid-churn garbage.
        from repro.obs.runtime import use as use_observer

        with use_observer(obs):
            cluster.run_anti_entropy()
            cluster.run_compaction(min_garbage=0.0)
    return obs, completed, failed, cluster


def _cmd_trace(args) -> int:
    obs, completed, failed, _ = _observed_journeys(args)
    obs.tracer.assert_quiescent()  # every journey left a *closed* tree
    for root in obs.tracer.finished:
        print(obs.tracer.format_tree(root))
        print()
    print(
        f"{completed} journey(s) completed, {failed} failed "
        f"(construction {args.construction}); "
        f"{len(obs.tracer.finished)} closed traces, all quiescent"
    )
    return 0 if failed == 0 else 1


def _cmd_stats(args) -> int:
    from repro.crypto import accel

    obs, completed, failed, cluster = _observed_journeys(args)
    print(obs.registry.render())
    print()
    print(format_crypto_tier(accel.describe()))
    if cluster is not None:
        print(format_self_healing(obs.registry))
        print(format_storage_engine(cluster.storage_stats()))
    print(
        f"\n{completed} journey(s) completed, {failed} failed "
        f"(construction {args.construction}); "
        f"{len(obs.events.serialized())} events, {obs.events.dropped} dropped"
    )
    return 0 if failed == 0 else 1


def _cmd_serve(args) -> int:
    """Boot a TCP smart server around a fresh platform and block.

    Prints the bound address on a line of its own (flushed) so scripts —
    and the serve-smoke CI job — can parse it, then serves until
    interrupted; the per-connection metrics summary prints on the way
    out.
    """
    import threading

    from repro.crypto import accel
    from repro.serve import TcpSmartServer

    substrates = {}
    if args.cluster_nodes is not None:
        from repro.cluster import StorageCluster
        from repro.sim.timing import SimClock

        substrates["storage"] = StorageCluster(
            num_nodes=args.cluster_nodes, clock=SimClock(),
            engine=args.storage_engine,
        )
    if args.crypto_tier:
        accel.set_tier(args.crypto_tier)
    platform = SocialPuzzlePlatform(params=get_params(args.params), **substrates)
    server = TcpSmartServer(
        platform.engine,
        host=args.host,
        port=args.port,
        max_in_flight=args.max_in_flight,
        workers=args.workers,
    )
    server.start()
    host, port = server.address
    # The bound address stays the FIRST line (scripts and the serve-smoke
    # CI job grep for it); the crypto banner follows.
    print(f"listening on {host}:{port}", flush=True)
    print(format_crypto_tier(accel.describe()), flush=True)
    try:
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print(server.metrics.summary())
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "serve": _cmd_serve,
    "figure": _cmd_figure,
    "attacks": _cmd_attacks,
    "study": _cmd_study,
    "simulate": _cmd_simulate,
    "recommend": _cmd_recommend,
    "audit": _cmd_audit,
    "policy": _cmd_policy,
    "share": _cmd_share,
    "solve": _cmd_solve,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
