"""The ``serve-readwrite`` workload.

``simra-dram serve`` runs as a subprocess on port 0 over a store filled
before set-up.  Two client threads, one keep-alive connection each,
run a closed loop over a seeded request order while a writer thread
re-commits one figure every ``WRITE_INTERVAL_S`` through
``ResultStore.save``, alternating between two versions it computed
itself.  Server, clients and writer share one CPU.  A round is each
client sending its fixed request list once; a run makes a fixed number
of rounds, ``ROUNDS_PER_SECOND`` per ``--seconds``, so a slower server
takes longer rather than doing less.

Traced runs alternate rounds between a plain server and one started by
``serve_launcher.py`` with the query-path spans installed, so the
tracing overhead is measured in the same run.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import procstat
from common import (
    ROOT,
    SETUP_REPEATS,
    Checks,
    Context,
    Outcome,
    digest,
    import_seconds,
    now,
    tail_percentile,
    wire_form,
)
from serve_launcher import ROUTES
from spans import COUNT, END, NAME, START, Patches, SpanRecorder, in_window, self_times

from repro.characterization.campaign import EXPERIMENTS, Campaign
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.reader import ResultReader
from repro.characterization.store import ResultStore
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import make_executor
from repro.service.api import ResultService

SIM_SEED = 2024
FILL_SCOPE = {"columns": 64, "groups": 1, "trials": 2}
WRITTEN = "fig7"
"""The figure the writer re-commits (the largest payload)."""
WRITE_INTERVAL_S = 1.4
"""The writer's cadence: how often a paper-fused campaign commits into
its store (12 artifacts in a 16.6 s median round on the reference
machine), i.e. a store served while a full campaign writes into it."""
ROUNDS_PER_SECOND = 0.9
"""Rounds per ``--seconds``: one round (528 requests) took about
1.07 s on the reference machine, so ``--seconds`` is about the load's
length today."""
CI_QUERY = "?resamples=200&seed={seed}"
"""The CI parameters of benchmarks/run_service_benchmark.py."""
LISTING_ROUTES = {"figures": "/figures", "fleet_summary": "/fleet/summary"}
"""The routes whose ETag is a ``state:`` token of the whole store."""
CONNECTIONS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


# -- the store and the writer's two versions ---------------------------------


def _scope(groups: int) -> CharacterizationScope:
    return CharacterizationScope.build(
        config=SimulationConfig(seed=SIM_SEED,
                                columns_per_row=FILL_SCOPE["columns"]),
        specs=TESTED_MODULES,
        modules_per_spec=1,
        groups_per_size=groups,
        trials=FILL_SCOPE["trials"],
    )


def fill_store(ctx: Context, checks: Checks):
    """A store of all 11 figures, plus the writer's second version.

    Version B re-runs the written figure with one more row group per
    size under the same configuration header, as a re-run that widened
    its sample would commit it.
    """
    store_dir = ctx.new_dir("serve-store")
    scope = _scope(FILL_SCOPE["groups"])
    executor = make_executor("fused")
    result = Campaign(scope, store=ResultStore(store_dir),
                      executor=executor).run(list(EXPERIMENTS))
    checks.check("fill-store", result.succeeded,
                 [f.error for f in result.failures])
    version_b = EXPERIMENTS[WRITTEN](_scope(FILL_SCOPE["groups"] + 1),
                                     executor=executor)
    versions = [result.data[WRITTEN], version_b]
    expected = {name: {digest(wire_form(data))}
                for name, data in result.data.items()}
    ci_names = sorted(name for name, data in result.data.items()
                      if "__distribution_summary__" in json.dumps(wire_form(data)))
    return store_dir, scope.benches[0].module.config, versions, expected, ci_names


class Writer:
    """Re-commits the written figure, alternating versions A and B.

    Generation 0 is the fill's version A; generation ``g`` holds
    version ``g % 2``.  ``started`` moves before a save and ``finished``
    after it, so a request sent when ``finished == f`` and answered when
    ``started == s`` may have seen any generation in ``[f, s]``.
    """

    def __init__(self, store_dir: Path, config, versions) -> None:
        self.store = ResultStore(store_dir)
        self.config = config
        self.versions = versions
        self.digests = [digest(wire_form(v)) for v in versions]
        self.started = 0
        self.finished = 0

    def possible(self, finished_at_send: int, started_at_recv: int) -> set:
        return {self.digests[g % 2]
                for g in range(finished_at_send, started_at_recv + 1)}

    def write_until(self, stop: threading.Event) -> None:
        next_due = now()
        while not stop.is_set():
            next_due += WRITE_INTERVAL_S
            if stop.wait(max(0.0, next_due - now())):
                return
            self.started += 1
            self.store.save(WRITTEN, self.versions[self.started % 2],
                            config=self.config,
                            notes=f"campaign experiment {WRITTEN}")
            self.finished += 1


# -- servers ------------------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    spans_path: Optional[Path] = None
    start_s: float = 0.0


def start_server(ctx: Context, store_dir: Path,
                 spans_path: Optional[Path] = None) -> Server:
    """Start ``simra-dram serve`` on port 0; return once /readyz is 200."""
    serve = ["serve", "--results-dir", str(store_dir),
             "--host", "127.0.0.1", "--port", "0"]
    if spans_path is None:
        argv = [sys.executable, "-m", "repro.cli"] + serve
    else:
        launcher = Path(__file__).resolve().parent / "serve_launcher.py"
        argv = [sys.executable, str(launcher), str(spans_path)] + serve
    started = now()
    stderr = open(ctx.new_dir("server-log") / "stderr.txt", "w")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                            cwd=ROOT, env=ctx.env(), text=True)
    os.sched_setaffinity(proc.pid, {load_cpu()})
    stderr.close()
    try:
        port = _await_port(proc)
        _await_ready(port)
    except BaseException:
        _terminate(proc)
        raise
    return Server(proc=proc, port=port, spans_path=spans_path,
                  start_s=now() - started)


def load_cpu() -> int:
    """The one CPU the server and the client threads run on."""
    return min(os.sched_getaffinity(0))


def _await_port(proc: subprocess.Popen) -> int:
    deadline = now() + START_TIMEOUT_S
    while now() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving ") and "http://" in line:
                return int(line.strip().rsplit(":", 1)[1])
        elif proc.poll() is not None:
            break
    raise RuntimeError(f"server did not report its port (exit {proc.poll()})")


def _await_ready(port: int) -> None:
    deadline = now() + START_TIMEOUT_S
    while now() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/readyz")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return
        except OSError:
            pass
        finally:
            conn.close()
        threading.Event().wait(0.005)
    raise RuntimeError("server never answered /readyz with 200")


def _terminate(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def read_spans(server: Server) -> List[list]:
    """The spans a stopped traced server wrote (none for a plain one)."""
    if server.spans_path is None or not server.spans_path.exists():
        return []
    return json.loads(server.spans_path.read_text())


def get_json(port: int, path: str) -> Dict[str, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


# -- the load -----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    path: str
    route: str
    name: str = ""
    revalidate: bool = False


def request_mix(seed: int, connection: int, names: List[str],
                ci_names: List[str]) -> List[Request]:
    """One connection's request list for a round, in seeded order.

    The mix of benchmarks/run_service_benchmark.py, in equal quarters:
    figure reads, figure revalidations (``If-None-Match`` with the
    client's last ETag for that figure), listings and bootstrap CIs at
    ``CI_QUERY``.  Two departures, both for a store with a writer: the
    named reads spread evenly over every stored figure (that script
    gives each reader one hot figure, which with two connections would
    never be the rewritten one), and the listing quarter alternates
    ``/figures`` and ``/fleet/summary`` (that script asks for the
    summary only where no figure has a CI).  Every seed gets the same
    composition -- only the order differs -- so a seed cannot change
    the cost of a round: at 11 figures, 6 with CIs, 264 requests.
    """
    quarter = math.lcm(len(names), len(ci_names), 2)
    mix = [Request(f"/figures/{name}", "figure", name, revalidate)
           for revalidate in (False, True)
           for name in names * (quarter // len(names))]
    mix += [Request("/figures", "figures"),
            Request("/fleet/summary", "fleet_summary")] * (quarter // 2)
    query = CI_QUERY.format(seed=connection % 7)
    mix += [Request(f"/ci/{name}{query}", "ci", name)
            for name in ci_names * (quarter // len(ci_names))]
    random.Random(f"serve-readwrite:{seed}:{connection}").shuffle(mix)
    return mix


class Connection:
    """A minimal HTTP/1.1 keep-alive client (GET only, Content-Length).

    Lighter than ``http.client``, so the client threads spend little of
    the one CPU they share with the server.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def get(self, path: str, etag: Optional[str] = None
            ) -> Tuple[int, Dict[str, str], bytes]:
        head = f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if etag is not None:
            head += f"If-None-Match: {etag}\r\n"
        self.sock.sendall((head + "\r\n").encode("latin1"))
        while b"\r\n\r\n" not in self.buffer:
            self._receive()
        head_bytes, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self.buffer) < length:
            self._receive()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return int(lines[0].split()[1]), headers, body

    def _receive(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


@dataclass
class Sample:
    request: Request
    sent_etag: Optional[str]
    send: float
    recv: float
    finished_at_send: int
    started_at_recv: int
    status: int
    etag: Optional[str]
    body_sha: str
    round_index: int


@dataclass
class Client:
    """One keep-alive connection per server, reused across rounds."""

    mix: List[Request]
    samples: List[Sample] = field(default_factory=list)
    bodies: Dict[str, bytes] = field(default_factory=dict)
    etags: Dict[str, str] = field(default_factory=dict)
    conns: Dict[int, Connection] = field(default_factory=dict)
    error: Optional[BaseException] = None

    def run_round(self, port: int, writer: Writer, round_index: int) -> None:
        conn = self.conns.get(port)
        if conn is None:
            conn = self.conns[port] = Connection(port)
        for request in self.mix:
            sent_etag = (self.etags.get(request.name)
                         if request.revalidate else None)
            finished = writer.finished
            send = now()
            status, headers, body = conn.get(request.path, sent_etag)
            recv = now()
            started = writer.started
            etag = headers.get("etag")
            body_sha = sha256(body).hexdigest()
            if body_sha not in self.bodies:
                self.bodies[body_sha] = body
            if request.route == "figure" and status == 200 and etag:
                self.etags[request.name] = etag
            self.samples.append(Sample(
                request, sent_etag, send, recv, finished, started,
                status, etag, body_sha, round_index))

    def close(self) -> None:
        for conn in self.conns.values():
            conn.close()


def round_count(ctx: Context) -> int:
    """Whole rounds a run makes: even when traced, so both servers get half."""
    rounds = max(1, round(ctx.seconds * ROUNDS_PER_SECOND))
    return 2 * max(1, rounds // 2) if ctx.trace else rounds


def run_load(rounds: int, servers: List[Server], writer: Writer,
             clients: List[Client], on_round) -> List[Tuple[float, float, int]]:
    """``rounds`` closed-loop rounds; returns the round windows.

    Round ``i`` goes to ``servers[i % len(servers)]``.  ``on_round(i,
    starting)`` brackets every round, in a client thread.
    """
    windows: List[Tuple[float, float, int]] = []
    state = {"index": 0, "stop": False, "started": 0.0}
    stop_writer = threading.Event()

    def between_rounds() -> None:
        index = state["index"]
        windows.append((state["started"], now(), index))
        on_round(index, False)
        state["index"] = index + 1
        state["stop"] = state["index"] == rounds
        if not state["stop"]:
            on_round(state["index"], True)
            state["started"] = now()

    barrier = threading.Barrier(len(clients), action=between_rounds)

    def client_loop(client: Client) -> None:
        try:
            while not state["stop"]:
                index = state["index"]
                client.run_round(servers[index % len(servers)].port, writer,
                                 index)
                barrier.wait()
        except BaseException as exc:  # noqa: BLE001 -- reported as a failure
            client.error = exc
            barrier.abort()

    on_round(0, True)
    state["started"] = now()
    threads = [threading.Thread(target=client_loop, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    writer_thread = threading.Thread(target=writer.write_until,
                                     args=(stop_writer,))
    writer_thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        stop_writer.set()
        writer_thread.join()
        for client in clients:
            client.close()
    return windows


# -- checks -------------------------------------------------------------------


def check_samples(checks: Checks, samples: List[Sample],
                  bodies: Dict[str, bytes], writer: Writer,
                  expected: Dict[str, set]) -> int:
    """One check per request against what the writer knows it wrote.

    Returns how many listing responses reused an ETag for another body.
    Those are not failed checks: the listing ETag race (see
    ``probe_listing_etags``) shows in live traffic only when a commit
    happens to land inside a listing request, so their number varies
    from run to run; the probe counts the same fault once a round.
    """
    listing_mismatches = 0
    data_digest: Dict[str, str] = {}
    body_etag: Dict[str, Optional[str]] = {}
    for sha, body in bodies.items():
        try:
            payload = json.loads(body)
        except ValueError:
            continue
        if isinstance(payload, dict) and "data" in payload:
            data_digest[sha] = digest(payload["data"])
            body_etag[sha] = payload.get("etag")
    # The version each figure ETag was first seen serving.
    etag_version: Dict[str, str] = {}
    etag_body: Dict[Tuple[str, str], str] = {}
    for sample in samples:
        request = sample.request
        problem = ""
        if sample.status == 200:
            # An ETag names one representation of one resource.
            if sample.etag is not None:
                key = (request.path, sample.etag)
                if etag_body.setdefault(key, sample.body_sha) \
                        != sample.body_sha:
                    if request.route in LISTING_ROUTES:
                        listing_mismatches += 1
                    else:
                        problem = f"ETag {sample.etag} served two bodies"
            if request.route == "figure" and not problem:
                got = data_digest.get(sample.body_sha)
                allowed = (writer.possible(sample.finished_at_send,
                                           sample.started_at_recv)
                           if request.name == WRITTEN
                           else expected[request.name])
                if got not in allowed:
                    problem = "data matches no version current in flight"
                elif body_etag.get(sample.body_sha) != sample.etag:
                    problem = "body etag differs from the ETag header"
                else:
                    etag_version.setdefault(sample.etag, got)
        elif sample.status == 304:
            version = etag_version.get(sample.sent_etag or "")
            allowed = (writer.possible(sample.finished_at_send,
                                       sample.started_at_recv)
                       if request.name == WRITTEN
                       else expected.get(request.name, set()))
            if request.route != "figure" or version not in allowed:
                problem = "304 for an ETag not current at send time"
        else:
            problem = f"status {sample.status}"
        checks.check(f"{request.path}@{sample.send:.3f}", not problem, problem)
    return listing_mismatches


def probe_listing_etags(ctx: Context, template: Path, config, versions,
                        checks: Checks) -> None:
    """Does a commit during a listing request pair its ETag and body wrongly?

    For each listing route, on a fresh copy of the filled store, the
    service's reader commits version B of the written figure just
    before ``state_token`` is read -- where a concurrent writer's
    commit can land.  Then the route is fetched again.  One ETag must
    name one body, so the second response may reuse the first one's
    ETag only with the same body.  The program builds the listing body
    before it reads the state token, so today the check fails every
    time, on every seed; it is counted as a known fault.
    """
    for route, path in LISTING_ROUTES.items():
        store_dir = ctx.new_dir(f"probe-{route}")
        shutil.copytree(template, store_dir, dirs_exist_ok=True)
        reader = ResultReader(store_dir)
        token = reader.state_token

        def commit_then_token(token=token, store_dir=store_dir,
                              reader=reader) -> str:
            del reader.state_token  # once: back to the class's method
            ResultStore(store_dir).save(
                WRITTEN, versions[1], config=config,
                notes=f"campaign experiment {WRITTEN}")
            return token()

        reader.state_token = commit_then_token
        service = ResultService(reader)
        first = service.handle("GET", path)
        second = service.handle("GET", path)
        shutil.rmtree(store_dir, ignore_errors=True)
        etags = (first.headers.get("ETag"), second.headers.get("ETag"))
        ok = (first.status == second.status == 200
              and (etags[0] != etags[1] or first.body == second.body))
        checks.known_fault(f"listing-etag-race:{path}", ok,
                           f"statuses {first.status}/{second.status}, "
                           f"ETags {etags[0]} / {etags[1]}")


# -- per-layer numbers --------------------------------------------------------


_ROUTE_METRIC = {code: f"service.api.{route}_s" for route, code in ROUTES.items()}


def serve_layers(server_spans: List[list], local_spans: List[list],
                 windows: List[Tuple[float, float, int]],
                 samples: List[Sample], cache_delta: Dict[str, int]
                 ) -> Dict[str, float]:
    rounds = len(windows)
    server = [s for start, end, _ in windows
              for s in in_window(server_spans, start, end)]
    local = [s for start, end, _ in windows
             for s in in_window(local_spans, start, end)]
    own = self_times(server)
    out = {metric: 0.0 for metric in _ROUTE_METRIC.values()}
    out.update({"service.api.handle_s": 0.0,
                "characterization.reader.load_s": 0.0,
                "characterization.reader.digest_recomputes": 0})
    handled = 0.0
    for index, span in enumerate(server):
        if span[NAME] == "handle" and span[COUNT] in _ROUTE_METRIC:
            out[_ROUTE_METRIC[span[COUNT]]] += own[index]
            out["service.api.handle_s"] += own[index]
            handled += span[END] - span[START]
        elif span[NAME].startswith("reader."):
            out["characterization.reader.load_s"] += own[index]
            if span[NAME] == "reader.content_digest":
                out["characterization.reader.digest_recomputes"] += span[COUNT]
    local_own = self_times(local)
    out["characterization.store.commit_s"] = sum(local_own)
    out["characterization.store.commits"] = len(local)
    out["characterization.store.bytes_written"] = sum(s[COUNT] for s in local)
    latency = sum(s.recv - s.send for s in samples)
    out["service.http.transport_s"] = latency - handled
    out["service.http.not_modified"] = sum(s.status == 304 for s in samples)
    out["trace.spans"] = len(server) + len(local)
    totals = {key: value / rounds for key, value in out.items()}
    hits, misses = cache_delta["hits"], cache_delta["misses"]
    totals["service.cache.hits"] = hits / rounds
    totals["service.cache.misses"] = misses / rounds
    totals["service.cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    return totals


# -- the workload ------------------------------------------------------------


def run(ctx: Context) -> Outcome:
    checks = Checks()
    store_dir, config, versions, expected, ci_names = fill_store(ctx, checks)
    names = sorted(name for name in expected)
    template = ctx.new_dir("probe-template")
    shutil.copytree(store_dir, template, dirs_exist_ok=True)
    repeats = 1 if ctx.smoke else SETUP_REPEATS
    imports = import_seconds(ctx, repeats)
    servers: List[Server] = []
    starts = []
    try:
        for attempt in range(repeats):
            server = start_server(ctx, store_dir)
            starts.append(server.start_s)
            if attempt + 1 < repeats:
                _terminate(server.proc)
            else:
                servers.append(server)
        setup_s = imports + statistics.median(starts)
        if ctx.trace:
            servers.append(start_server(
                ctx, store_dir, spans_path=ctx.new_dir("spans") / "spans.json"))
        outcome = _measure(ctx, servers, store_dir, config, versions,
                           expected, names, ci_names, checks)
    finally:
        for server in servers:
            _terminate(server.proc)
    for _ in outcome["windows"]:
        probe_listing_etags(ctx, template, config, versions, checks)
    if outcome["listing_mismatches"]:
        print(f"listing ETags that named a second body in live traffic: "
              f"{outcome['listing_mismatches']} (the listing ETag race; "
              f"counted by its probe, not here)", file=sys.stderr)
    if ctx.trace:
        traced_windows = [w for w in outcome["windows"] if w[2] % 2 == 1]
        traced_samples = [s for s in outcome["samples"]
                          if s.round_index % 2 == 1]
        metrics = serve_layers(read_spans(servers[1]), outcome["local_spans"],
                               traced_windows, traced_samples,
                               outcome["cache_delta"])
        walls = {parity: statistics.median(
            end - start for start, end, i in outcome["windows"]
            if i % 2 == parity) for parity in (0, 1)}
        metrics["trace.wall_s"] = walls[1]
        metrics["trace.overhead_frac"] = walls[1] / walls[0] - 1.0
    else:
        # Latencies are medians over rounds, so a burst of load from
        # outside the benchmark moves a few rounds, not the result.  The
        # rate is every request over wall_s, which varies between runs
        # less than a median of per-round rates does.
        samples = outcome["samples"]
        rounds: Dict[int, List[float]] = {}
        for sample in samples:
            rounds.setdefault(sample.round_index, []).append(
                sample.recv - sample.send)
        wall_s = max(s.recv for s in samples) - min(s.send for s in samples)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": outcome["cpu"],
            "peak_rss_mb": outcome["rss"],
            "ops_per_s": len(samples) / wall_s,
            "op_p50_ms": statistics.median(
                statistics.median(lat) for lat in rounds.values()) * 1e3,
        }
        p95s = [tail_percentile(lat, 95) for lat in rounds.values()]
        if None not in p95s:
            metrics["op_p95_ms"] = statistics.median(p95s) * 1e3
    samples = outcome["samples"]
    info = {
        "rounds": len(outcome["windows"]),
        "round_wall_s": [round(end - start, 4)
                         for start, end, _ in outcome["windows"]],
        "requests": len(samples),
        "writes": outcome["writes"],
        "not_modified": sum(s.status == 304 for s in samples),
        "listing_etag_mismatches": outcome["listing_mismatches"],
        "setup_imports_s": imports,
        "server_start_s": starts,
    }
    return Outcome(
        attempted=checks.attempted,
        failed=checks.failed,
        metrics=metrics,
        info=info,
        failures=checks.failures,
        known_failed=checks.known_failed,
    )


def _measure(ctx, servers, store_dir, config, versions, expected, names,
             ci_names, checks) -> Dict[str, Any]:
    writer = Writer(store_dir, config, versions)
    clients = [Client(request_mix(ctx.seed, i, names, ci_names))
               for i in range(CONNECTIONS)]
    recorder = SpanRecorder()
    patches = Patches(recorder)
    cache_marks: List[Dict[str, int]] = []

    def on_round(index: int, starting: bool) -> None:
        if index % len(servers) != 1:
            return  # only rounds on the traced server are traced
        if starting:
            if not cache_marks:
                cache_marks.append(get_json(servers[1].port, "/metrics")["cache"])
            patches.span(ResultStore, "save", "store.save",
                         count=lambda a, k, path: path.stat().st_size)
        else:
            patches.undo()

    before = procstat.snapshot()
    # The client, writer and server threads share one CPU: cross-CPU
    # wakeups cost whatever the host's scheduler charges, which varied
    # twofold between runs on a 2-vCPU VM; one CPU keeps the latency a
    # measure of the program's work.
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {load_cpu()})
    try:
        windows = run_load(round_count(ctx), servers, writer, clients,
                           on_round)
    finally:
        os.sched_setaffinity(0, usable)
    after = procstat.snapshot()
    # The server's own: the benchmark process also holds the fill
    # campaign and every recorded response, which says nothing of serve.
    rss = max(procstat.peak_rss_mb(server.proc.pid) for server in servers)
    patches.undo()
    cache_delta = {"hits": 0, "misses": 0}
    if ctx.trace:
        final = get_json(servers[1].port, "/metrics")["cache"]
        cache_delta = {key: final[key] - cache_marks[0][key]
                       for key in cache_delta}
    for client in clients:
        if client.error is not None:
            checks.check("client", False, repr(client.error))
    samples = sorted((s for c in clients for s in c.samples),
                     key=lambda s: s.send)
    bodies = {sha: body for c in clients for sha, body in c.bodies.items()}
    listing_mismatches = check_samples(checks, samples, bodies, writer,
                                       expected)
    return {
        "listing_mismatches": listing_mismatches,
        "windows": windows,
        "samples": samples,
        "cpu": procstat.cpu_between(before, after),
        "rss": rss,
        "writes": writer.finished,
        "local_spans": recorder.spans,
        "cache_delta": cache_delta,
    }
