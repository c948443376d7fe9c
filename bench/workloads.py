"""The four workloads: seeded inputs, set-up, the measured loop, checks.

Each workload boots its own server process and drives it from this
process over one TCP connection, with at most two threads (the loop and
the connection's reply reader). All inputs come from the seeded
``random.Random`` handed in; the program under test sees only them.

* ``mix-small`` — a closed-loop mix of share, access, deny and explain
  journeys over small objects. Client crypto (hashing, Shamir, G0
  scalar multiplication, pairing) does most of the work.
* ``photo-32k`` — closed-loop share-then-access of 32 KiB objects: the
  bulk path (AES-CBC, HMAC/KDF over the ciphertext, large frames).
* ``sp-storm`` — an open loop of pre-encoded SP and DH reads at a fixed
  Poisson rate on a 3-node segment-engine cluster: framing, server
  queue, dispatch, SP verify/explain and quorum reads.
* ``store-churn`` — a pipelined closed loop of DH writes, reads and
  deletes on the same cluster: the store and the cluster.
"""

from __future__ import annotations

import functools
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from collections import defaultdict, deque
from dataclasses import dataclass, field

from bench import adapter
from bench.metrics import group, kind_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCOPE = "scope:group/trip"
CONTEXT = ("ctx_a", "ctx_b", "ctx_c")
CLUSTER = ["--cluster-nodes", "3", "--storage-engine", "segment"]
PROBE_EVERY_S = 0.2  # how often a storm pauses for the CPU gauge
PAUSE_S = 0.002


class ServerProcess:
    """``bench/server.py`` with the workload's flags, on a free port."""

    def __init__(self, flags: list[str], trace_out: str | None = None):
        env = dict(os.environ)
        if trace_out:
            env["BENCH_TRACE_OUT"] = trace_out
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "bench", "server.py"),
             "--port", "0", *flags],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError("server did not start: %r" % line)
        host, _, port = line.split()[-1].rpartition(":")
        self.address = (host, int(port))

    def cpu_s(self) -> float:
        """User plus system CPU the server has used so far."""
        with open("/proc/%d/stat" % self.proc.pid) as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def hwm_mb(self) -> float:
        """The server's peak resident set so far (VmHWM)."""
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (the server dumps its trace, if any, and exits)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Outcome:
    """What one measured loop did."""

    samples: dict = field(default_factory=lambda: defaultdict(list))  # label -> [s]
    stamps: dict = field(default_factory=lambda: defaultdict(list))  # label -> [end]
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    late: list = field(default_factory=list)  # open loop: seconds behind schedule
    wire: list = field(default_factory=list)  # storms: (request crc, round trip s)
    final_exps: dict = field(default_factory=lambda: defaultdict(int))  # label -> n
    gauge: list = field(default_factory=list)  # (time, probe() result)
    server_hwm_mb: float = 0.0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    errors: list = field(default_factory=list)

    def record(self, label: str, seconds: float, end: float) -> None:
        self.samples[label].append(seconds)
        self.stamps[label].append(end)

    def probe(self, repeats: int = 1) -> None:
        self.gauge.append(
            (time.perf_counter(), statistics.fmean(probe() for _ in range(repeats))))

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("%s: %s" % (type(exc).__name__, exc))


def probe() -> float:
    """Seconds per iteration of a fixed pure-Python loop: a gauge of how
    fast this CPU runs right now, independent of the program under test.

    On a shared host, neighbours can slow the CPU by ~40% for
    milliseconds to minutes at a time. Timings are scaled by this gauge
    (see ``metrics.scaled``) so runs agree whatever the neighbours do.
    """
    began = time.perf_counter()
    x = 0
    for i in range(500):
        x += i * i % 7
    return (time.perf_counter() - began) / 500


def _answers(rng: random.Random) -> dict:
    return {q: "w%08x" % rng.getrandbits(32) for q in adapter.QUESTIONS}


def grant_knowledge(shared: adapter.Shared, rng: random.Random) -> dict:
    """Answers that satisfy the puzzle (every displayed subset, for C1)."""
    a = shared.answers
    if not shared.nested:
        return {q: a[q] for q in CONTEXT}
    return {SCOPE: a[SCOPE], **{q: a[q] for q in rng.sample(CONTEXT, 2)}}


def deny_knowledge(shared: adapter.Shared, rng: random.Random) -> dict:
    """Answers that fall short: one right context answer on a flat
    puzzle, all of them but no scope secret on a nested one."""
    a = shared.answers
    if shared.nested:
        return {q: a[q] for q in CONTEXT}
    right = rng.choice(CONTEXT)
    return {q: a[q] if q == right else "x%08x" % rng.getrandbits(32) for q in CONTEXT}


SHAPES = [(c, nested) for c in (1, 2) for nested in (False, True)]


class Journeys:
    """A closed loop of user journeys on one ``RemoteProtocolClient``.

    The plan deals journeys in rounds: each round holds every group in
    its fixed share of the mix, in a seeded order, so each run does the
    same proportions of work.
    """

    flags: list[str] = []
    open_loop = False
    weights: dict = {}  # group -> journeys per round
    memory_point = 0  # journeys done when the server's memory is read

    def setup(self, address, rng: random.Random, seconds: float):
        client = adapter.JourneyClient.connect(*address)
        self.fixtures(client, rng)
        return client

    def fixtures(self, client, rng: random.Random) -> None:
        pass

    def close(self, client) -> None:
        client.close()

    def plan(self, client, rng: random.Random):
        while True:
            deck = [label for label, n in self.weights.items() for _ in range(n)]
            rng.shuffle(deck)
            for label in deck:
                yield label, self.journey(client, label, rng)

    def journey(self, client, label: str, rng: random.Random):
        raise NotImplementedError

    def run(self, client, seconds, rng, tracer, server) -> Outcome:
        out = Outcome()
        plan = self.plan(client, rng)
        cpu0, server_cpu0 = time.process_time(), server.cpu_s()
        start = time.perf_counter()
        end = start
        while end - start < seconds:
            label, journey = next(plan)
            root = tracer.open("journey", kind_of(label)) if tracer else None
            if tracer and root is None:  # span cap reached: stop tracing here
                tracer.close(root)
                break
            exps = client.final_exps
            began = time.perf_counter()
            try:
                journey()
            except Exception as exc:  # any failure counts; the loop goes on
                out.fail(exc)
            else:
                now = time.perf_counter()
                out.record(label, now - began, now)
            finally:
                if tracer:
                    tracer.close(root)
            end = time.perf_counter()
            out.probe(8)  # the server is idle between journeys
            out.final_exps[kind_of(label)] += client.final_exps - exps
            out.attempted += 1
            if out.attempted == self.memory_point:
                out.server_hwm_mb = server.hwm_mb()
        out.elapsed = end - start
        out.client_cpu_s = time.process_time() - cpu0
        out.server_cpu_s = server.cpu_s() - server_cpu0
        if not out.server_hwm_mb:
            out.server_hwm_mb = server.hwm_mb()
        return out


class MixSmall(Journeys):
    # Per round of 80: 25% share, 35% access, 20% deny, 20% explain,
    # each spread evenly over the four shapes.
    weights = {group(c, nested, kind): n for c, nested in SHAPES
               for kind, n in (("share", 5), ("access", 7), ("deny", 4), ("explain", 4))}
    memory_point = 100

    def fixtures(self, client, rng):
        self.grants, self.decoys = {}, {}
        for c, nested in SHAPES:
            self.grants[c, nested] = [
                client.share(c, nested, _answers(rng), rng.randbytes(1024))
                for _ in range(8)]
            # Decoys take every deny and deny-explain and no grant, so a
            # guess budget on the served path can only lock out decoys.
            self.decoys[c, nested] = [
                client.share(c, nested, _answers(rng), rng.randbytes(1024))
                for _ in range(2)]

    def journey(self, client, label, rng):
        c, shape, kind = label.split(".")
        c, nested, seed = int(c[1]), shape == "nested", rng.getrandbits(32)
        if kind == "share":
            return functools.partial(
                client.share, c, nested, _answers(rng), rng.randbytes(1024))
        if kind == "access":
            shared = rng.choice(self.grants[c, nested])
            return functools.partial(
                client.access, shared, grant_knowledge(shared, rng), seed)
        shared = rng.choice(self.decoys[c, nested])
        return functools.partial(
            getattr(client, kind), shared, deny_knowledge(shared, rng), seed)


class Photo32k(Journeys):
    weights = {group(c, False, kind): 1 for c in (1, 2) for kind in ("share", "access")}
    memory_point = 8
    size = 32 * 1024

    def fixtures(self, client, rng):
        for c in (1, 2):  # one photo each, so first-use costs fall in set-up
            client.share(c, False, _answers(rng), rng.randbytes(self.size))

    def plan(self, client, rng):
        while True:  # each photo is shared, then viewed
            for c in (1, 2):
                shared: list = []
                answers, photo = _answers(rng), rng.randbytes(self.size)
                seed = rng.getrandbits(32)
                yield group(c, False, "share"), functools.partial(
                    lambda *args: shared.append(client.share(*args)),
                    c, False, answers, photo)
                yield group(c, False, "access"), functools.partial(
                    lambda s: client.access(s[0], grant_knowledge(s[0], rng), seed),
                    shared)


class SpStorm:
    """Open loop: pre-encoded reads at a Poisson rate, timed from when
    each request was due."""

    flags = CLUSTER
    open_loop = True
    weights = {"request": 1.0}
    rate = 3000.0  # about a third of the served read capacity measured
    mix = {"display": 25, "grant": 25, "deny": 10, "explain": 10,
           "post": 15, "dh.get": 15}
    memory_point = 3000

    def setup(self, address, rng, seconds):
        conn = adapter.FramedConnection(*address)
        journeys = adapter.framed_journeys(conn)
        pools = defaultdict(list)
        for c, nested in SHAPES:
            for granted in (True, False, True, False):
                shared = journeys.share(c, nested, _answers(rng), rng.randbytes(1024))
                knowledge = (grant_knowledge if granted else deny_knowledge)(shared, rng)
                display, verify, explain = adapter.storm_requests(
                    journeys, shared, knowledge, granted, rng.getrandbits(32))
                pools["display"].append(display)
                pools[verify.expect].append(verify)
                if not granted:
                    pools["explain"].append(explain)
                pools["post"].append(adapter.post_request(journeys, shared))
        for _ in range(32):
            data = rng.randbytes(1024)
            pools["dh.get"].append(adapter.get_request(adapter.put_blob(journeys, data), data))
        kinds, weights = list(self.mix), list(self.mix.values())
        # Poisson arrivals, paused for PAUSE_S every PROBE_EVERY_S so the
        # CPU gauge can run while the server is idle.
        schedule, pauses, due, shift = [], [], 0.0, 0.0
        while True:
            due += rng.expovariate(self.rate)
            if due + shift >= (len(pauses) + 0.5) * PROBE_EVERY_S:
                pauses.append(due + shift)
                shift += PAUSE_S
            if due + shift >= seconds:
                break
            schedule.append((due + shift, rng.choice(pools[rng.choices(kinds, weights)[0]])))
        return conn, schedule, pauses

    def close(self, state) -> None:
        state[0].close()

    def run(self, state, seconds, rng, tracer, server) -> Outcome:
        conn, schedule, pauses = state
        pauses = deque(pauses)
        out = Outcome(attempted=len(schedule))
        done = [0.0] * len(schedule)
        sent = [0.0] * len(schedule)
        cpu0, server_cpu0 = time.process_time(), server.cpu_s()
        start = time.perf_counter() + 0.005

        received = [0]

        def receive() -> None:
            for i, (_, request) in enumerate(schedule):
                try:
                    frame = conn.recv()
                except OSError as exc:
                    for _ in range(i, len(schedule)):
                        out.fail(exc)
                    return
                done[i] = time.perf_counter()
                received[0] = i + 1
                try:
                    adapter.check_reply(request, frame)
                except adapter.Mismatch as exc:
                    done[i] = 0.0
                    out.fail(exc)
                if i + 1 == self.memory_point:
                    out.server_hwm_mb = server.hwm_mb()

        reader = threading.Thread(target=receive, name="storm-reader")
        reader.start()
        try:
            for i, (due, request) in enumerate(schedule):
                if pauses and pauses[0] <= due:
                    pause = start + pauses.popleft()
                    while received[0] < i and time.perf_counter() < pause + PAUSE_S / 2:
                        time.sleep(0.0001)  # let the last replies in
                    out.probe(8)
                delay = start + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent[i] = time.perf_counter()
                conn.send(request.frame)
        except OSError:
            pass  # the reader counts every reply that never came
        finally:
            reader.join(timeout=60)
            if reader.is_alive():
                conn.close()
                reader.join()
        out.client_cpu_s = time.process_time() - cpu0
        out.server_cpu_s = server.cpu_s() - server_cpu0
        if not out.server_hwm_mb:
            out.server_hwm_mb = server.hwm_mb()
        for i, (due, request) in enumerate(schedule):
            if done[i]:
                out.record("request", done[i] - start - due, done[i])
                out.late.append(sent[i] - start - due)
                if tracer:
                    out.wire.append((zlib.crc32(request.frame), done[i] - sent[i]))
        out.elapsed = max(done) - start
        return out


class StoreChurn(SpStorm):
    """Pipelined closed loop of DH puts, gets and deletes."""

    # One dispatch worker: with concurrent dispatch the segment engine
    # answers overlapping puts, gets and deletes with internal errors
    # (lost keys, truncated bodies), so the writes are served in order.
    flags = CLUSTER + ["--workers", "1"]
    open_loop = False
    window = 8
    mix = {"put": 50, "get": 30, "delete": 20}
    memory_point = 2000

    def setup(self, address, rng, seconds):
        conn = adapter.FramedConnection(*address)
        journeys = adapter.framed_journeys(conn)
        photo = rng.randbytes(1024)
        live, ciphertexts = [], []
        for _ in range(16):  # near-identical: one object, fresh keys each
            url, ct = adapter.c2_ciphertext(journeys, _answers(rng), photo)
            ciphertexts.append(ct)
            live.append(url)
        live += [adapter.put_blob(journeys, ciphertexts[i % 16]) for i in range(48)]
        # Live entries: [op index of the put, bytes, url, op index of last get].
        entries = [[i - len(live), ciphertexts[i % 16], url, -len(live) - 1]
                   for i, url in enumerate(live)]
        return conn, entries, [adapter.put_request(ct) for ct in ciphertexts]

    def run(self, state, seconds, rng, tracer, server) -> Outcome:
        conn, live, puts = state
        out = Outcome()
        window = threading.Semaphore(self.window)
        in_flight: deque = deque()
        urls: dict[int, str] = {}
        kinds, weights = list(self.mix), list(self.mix.values())
        completed = 0

        def receive() -> None:
            nonlocal completed
            while True:
                try:
                    frame = conn.recv()
                except OSError:
                    return  # closed once every reply is in, or broken
                now = time.perf_counter()
                index, request, began = in_flight.popleft()
                try:
                    url = adapter.check_reply(request, frame)
                except adapter.Mismatch as exc:
                    out.fail(exc)
                else:
                    if request.expect == "dh.put":
                        urls[index] = url
                    out.record("request", now - began, now)
                    if tracer:
                        out.wire.append((zlib.crc32(request.frame), now - began))
                completed += 1
                if completed == self.memory_point:
                    out.server_hwm_mb = server.hwm_mb()
                window.release()

        def resolve(entry) -> bool:
            """Fill in a put's URL; false if that put failed."""
            if entry[2] is None:
                entry[2] = urls.pop(entry[0], None)
            return entry[2] is not None

        reader = threading.Thread(target=receive, name="churn-reader")
        reader.start()
        cpu0, server_cpu0 = time.process_time(), server.cpu_s()
        start = time.perf_counter()
        index = 0
        next_probe = start
        try:
            while time.perf_counter() - start < seconds:
                if time.perf_counter() >= next_probe:
                    # Drain the window so the probe runs while the server
                    # is idle, as it does between journeys.
                    for _ in range(self.window):
                        window.acquire(timeout=60)
                    out.probe(8)
                    for _ in range(self.window):
                        window.release()
                    next_probe += 0.2
                if not window.acquire(timeout=60):
                    break
                # Only puts at least one window old are known to have
                # finished, so targets depend on the seed, not on timing.
                horizon = index - self.window
                eligible = len(live)
                while eligible and live[eligible - 1][0] > horizon:
                    eligible -= 1
                kind = rng.choices(kinds, weights)[0]
                request = None
                if kind == "get" and eligible:
                    entry = live[rng.randrange(eligible)]
                    if resolve(entry):
                        entry[3] = index
                        request = adapter.get_request(entry[2], entry[1])
                elif kind == "delete":
                    for k in range(eligible):
                        if live[k][3] <= horizon:  # no get of it in flight
                            entry = live.pop(k)
                            if resolve(entry):
                                request = adapter.delete_request(entry[2])
                            break
                if request is None:
                    request = rng.choice(puts)
                    live.append([index, request.data, None, horizon])
                in_flight.append((index, request, time.perf_counter()))
                conn.send(request.frame)
                out.attempted += 1
                index += 1
            for _ in range(self.window):  # wait for the last replies
                window.acquire(timeout=60)
            out.elapsed = time.perf_counter() - start
        except OSError as exc:
            out.fail(exc)
        finally:
            conn.close()
            reader.join()
        out.failed += len(in_flight)
        out.client_cpu_s = time.process_time() - cpu0
        out.server_cpu_s = server.cpu_s() - server_cpu0
        if not out.server_hwm_mb:
            out.server_hwm_mb = server.hwm_mb()
        return out


WORKLOADS = {
    "mix-small": MixSmall,
    "photo-32k": Photo32k,
    "sp-storm": SpStorm,
    "store-churn": StoreChurn,
}
