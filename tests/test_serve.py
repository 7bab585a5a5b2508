"""The ``repro-serve`` battery: wire-protocol framing, the one admission rule
(the per-client window: an overrun is a protocol error), the shared result
cache, server-side poison isolation, record parity with the file-queue
worker, and the network transport's error paths — server down at submit,
server killed mid-batch."""

from __future__ import annotations

import contextlib
import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np
import pytest

from repro.cli.serve import build_parser, main as serve_cli_main
from repro.config import PipelineConfig
from repro.engine import (
    BaselineFoldSpec,
    FileQueueSpool,
    FileQueueWorker,
    NetworkTransport,
    RemoteTier,
)
from repro.engine.core import execute_baseline_job
from repro.exceptions import EngineError
from repro.serve import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameBuffer,
    ProtocolError,
    ReproServer,
    connect,
    encode_frame,
    recv_message,
    send_message,
)
from repro.utils.io import _NumpyJSONEncoder

BASE_CONFIG = PipelineConfig(seed=5)


def _baseline_spec(pdb_id: str = "3eax", sequence: str = "RYRDV", method: str = "AF2"):
    return BaselineFoldSpec(pdb_id=pdb_id, sequence=sequence, method=method, config=BASE_CONFIG)


def _canonical(outcome) -> str:
    return json.dumps(outcome.to_payload(), sort_keys=True, cls=_NumpyJSONEncoder)


@dataclass(frozen=True)
class PingSpec:
    """A minimal picklable spec for raw-socket admission-control tests."""

    name: str

    kind: ClassVar[str] = "ping"

    def content_hash(self) -> str:
        return hashlib.sha256(f"ping/v1\x1f{self.name}".encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PoisonSpec:
    """Pickles fine; fingerprinting it explodes."""

    name: str

    kind: ClassVar[str] = "ping"

    def content_hash(self) -> str:
        raise RuntimeError(f"hash of {self.name} exploded")


class _FakeOutcome:
    def __init__(self, payload: dict[str, Any]):
        self._payload = payload

    def to_payload(self) -> dict[str, Any]:
        return self._payload


def _fake_execute(spec: PingSpec) -> _FakeOutcome:
    return _FakeOutcome({"spec_hash": spec.content_hash(), "schema": "ping/v1", "name": spec.name})


def _hello(sock: socket.socket, client_id: str = "raw-test") -> dict[str, Any]:
    send_message(sock, {"type": "hello", "client_id": client_id, "protocol": PROTOCOL_VERSION})
    return recv_message(sock)


# -- the wire protocol ---------------------------------------------------------------


def test_frame_round_trip_through_a_socketpair():
    left, right = socket.socketpair()
    try:
        message = {"type": "job", "index": 3, "spec": PingSpec("a")}
        send_message(left, message)
        received = recv_message(right)
        assert received["type"] == "job" and received["index"] == 3
        assert received["spec"] == PingSpec("a")
        left.close()
        with pytest.raises(ConnectionError, match="closed"):
            recv_message(right)
    finally:
        for sock in (left, right):
            try:
                sock.close()
            except OSError:
                pass


def test_frame_buffer_reassembles_split_frames():
    frame = encode_frame({"type": "result", "index": 0}) + encode_frame({"type": "bye"})
    buffer = FrameBuffer()
    messages = []
    for offset in range(0, len(frame), 3):  # drip-feed 3 bytes at a time
        buffer.feed(frame[offset : offset + 3])
        while (message := buffer.next_message()) is not None:
            messages.append(message)
    assert [m["type"] for m in messages] == ["result", "bye"]
    assert buffer.next_message() is None


def test_protocol_rejects_oversize_and_malformed_frames():
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame({"type": "blob", "data": bytearray(MAX_FRAME_BYTES + 1)})
    buffer = FrameBuffer()
    buffer.feed(b"\xff\xff\xff\xff")  # a 4 GiB frame announcement
    with pytest.raises(ProtocolError, match="cap"):
        buffer.next_message()
    buffer = FrameBuffer()
    buffer.feed(encode_frame({"no-type-key": 1}))
    with pytest.raises(ProtocolError, match="not a message dict"):
        buffer.next_message()


# -- handshake and admission control -------------------------------------------------


def test_server_welcome_advertises_its_admission_window():
    with ReproServer(workers=0, max_inflight=7, execute=_fake_execute) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            welcome = _hello(sock)
            assert welcome["type"] == "welcome"
            assert welcome["protocol"] == PROTOCOL_VERSION
            assert welcome["max_inflight"] == 7
            assert welcome["server_id"] == server.server_id


def test_server_counts_clients_at_the_handshake_not_at_connect():
    """A readiness probe that connects and closes without a hello is no client."""
    with ReproServer(workers=0, execute=_fake_execute) as server:
        socket.create_connection(("127.0.0.1", server.port), timeout=5.0).close()
        transport = NetworkTransport("127.0.0.1", server.port, poll_interval=0.01)
        assert len(list(transport.stream([PingSpec("a")]))) == 1
        assert server.stats()["clients_served"] == 1


def test_server_rejects_a_protocol_version_mismatch():
    with ReproServer(workers=0, execute=_fake_execute) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            send_message(sock, {"type": "hello", "client_id": "old", "protocol": 99})
            reply = recv_message(sock)
            assert reply["type"] == "error"
            assert "version mismatch" in reply["reason"]


@contextlib.contextmanager
def _fake_peer(reply: dict[str, Any]):
    """A listener answering every ``hello`` with ``reply``; yields its port
    and the list of client ids that said hello."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    hellos: list[str] = []
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                hellos.append(recv_message(conn)["client_id"])
                send_message(conn, reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], hellos
    finally:
        stop.set()
        thread.join(timeout=5.0)
        listener.close()


@pytest.mark.parametrize(
    "reply, reason",
    [
        ({"type": "error", "reason": "draining"}, "rejected the connection: draining"),
        (
            {"type": "welcome", "protocol": PROTOCOL_VERSION + 1},
            f"speaks protocol {PROTOCOL_VERSION + 1}",
        ),
    ],
    ids=["error-frame", "protocol-mismatch"],
)
def test_clients_surface_a_rejected_handshake(reply, reason):
    """The shared handshake's rejection path: ``connect`` and the network
    transport raise naming the reason; the remote cache tier retries once,
    then reports a miss."""
    with _fake_peer(reply) as (port, hellos):
        with pytest.raises(EngineError, match=reason):
            connect("127.0.0.1", port, "probe", timeout=5.0)
        transport = NetworkTransport("127.0.0.1", port, client_id="submitter", connect_timeout=5.0)
        with pytest.raises(EngineError, match=reason):
            transport.submit([_baseline_spec()])
        transport.cancel()
        tier = RemoteTier("127.0.0.1", port, timeout=5.0)
        assert tier.get("0" * 64) is None
        assert tier.stats.misses == 1
    assert hellos == ["probe", "submitter", tier.client_id, tier.client_id]


def test_server_enforces_the_per_client_quota():
    """The window advertised in ``welcome`` is binding: a job frame over it
    is a protocol violation — an ``error`` frame naming the overrun, then the
    server closes the connection."""
    gate = threading.Event()

    def blocked(spec):
        gate.wait(timeout=10.0)
        return _fake_execute(spec)

    try:
        with ReproServer(workers=0, max_inflight=1, execute=blocked) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
                assert _hello(sock)["max_inflight"] == 1
                send_message(sock, {"type": "job", "index": 0, "spec": PingSpec("a")})
                send_message(sock, {"type": "job", "index": 1, "spec": PingSpec("b")})
                error = recv_message(sock)  # the window is full: job 1 overruns it
                assert error["type"] == "error"
                assert "window overrun" in error["reason"] and "job 1" in error["reason"]
                assert "max 1 per client" in error["reason"]
                with pytest.raises(ConnectionError):
                    recv_message(sock)  # closed: no result for job 0 either
                assert server.stats()["jobs_accepted"] == 1
    finally:
        gate.set()


def test_server_isolates_a_spec_whose_content_hash_raises():
    """Same lesson as the file-queue crash-loop fix, applied server-side: a
    poison spec resolves as a failed result, the service stays up."""
    with ReproServer(workers=0, execute=_fake_execute) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            _hello(sock)
            send_message(sock, {"type": "job", "index": 0, "spec": PoisonSpec("p")})
            result = recv_message(sock)
            assert result["type"] == "result" and result["index"] == 0
            assert result["record"]["status"] == "failed"
            assert result["record"]["error_type"] == "RuntimeError"
            assert "cannot fingerprint job spec" in result["record"]["error_message"]
            # The service survived and still executes good jobs.
            send_message(sock, {"type": "job", "index": 1, "spec": PingSpec("a")})
            assert recv_message(sock)["record"]["status"] == "completed"


def test_server_turns_an_unserialisable_payload_into_a_failure():
    with ReproServer(workers=0, execute=lambda spec: _FakeOutcome({"oops": object()})) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            _hello(sock)
            send_message(sock, {"type": "job", "index": 0, "spec": PingSpec("a")})
            record = recv_message(sock)["record"]
            assert record["status"] == "failed"
            assert "not JSON-serialisable" in record["error_message"]


def _numpy_execute(spec: PingSpec) -> _FakeOutcome:
    return _FakeOutcome({
        "spec_hash": spec.content_hash(), "value": np.float64(1.5), "coords": np.arange(3.0),
    })


def _raising_execute(spec: PingSpec) -> _FakeOutcome:
    raise ValueError(f"job {spec.name} exploded")


def _unserialisable_execute(spec: PingSpec) -> _FakeOutcome:
    return _FakeOutcome({"spec_hash": spec.content_hash(), "oops": object()})


@pytest.mark.parametrize("spec, execute, expected, message", [
    pytest.param(
        PingSpec("a"), _numpy_execute,
        {"status": "completed", "payload": {
            "spec_hash": PingSpec("a").content_hash(), "value": 1.5, "coords": [0.0, 1.0, 2.0],
        }},
        None, id="numpy-payload",
    ),
    pytest.param(
        PingSpec("a"), _raising_execute, {"status": "failed", "error_type": "ValueError"},
        "job a exploded", id="raising-executor",
    ),
    pytest.param(
        PoisonSpec("p"), _fake_execute, {"status": "failed", "error_type": "RuntimeError"},
        "cannot fingerprint job spec: hash of p exploded", id="poison-content-hash",
    ),
    pytest.param(
        PingSpec("a"), _unserialisable_execute, {"status": "failed", "error_type": "TypeError"},
        "result payload is not JSON-serialisable", id="unserialisable-payload",
    ),
])
def test_worker_and_server_produce_the_same_record(tmp_path, spec, execute, expected, message):
    """``repro-worker`` and ``repro-serve`` build a job's record with one
    function: the same spec gives the same record on both, apart from the ids
    naming where it ran and its timing — and neither side raises."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", spec)
    worker = FileQueueWorker(spool, worker_id="w1", lease_timeout=5.0, execute=execute)
    assert worker.run_once() == "t1"
    assert spool.task_ids() == [] and spool.claim_ids() == []
    from_worker = spool.read_result("t1")

    with ReproServer(workers=0, execute=execute) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            _hello(sock)
            send_message(sock, {"type": "job", "index": 0, "spec": spec})
            from_server = recv_message(sock)["record"]

    where = {"task_id", "worker_id", "server_id", "duration_s"}
    assert where <= set(from_worker) | {"server_id"}
    assert where <= set(from_server) | {"task_id", "worker_id"}
    same = {k: v for k, v in from_worker.items() if k not in where}
    assert same == {k: v for k, v in from_server.items() if k not in where}
    assert expected.items() <= same.items()
    if message is not None:
        assert message in same["error_message"]


# -- the network transport -----------------------------------------------------------


def test_transport_raises_immediately_when_no_server_listens():
    # Bind-then-close: the port existed a moment ago, nobody listens now.
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    transport = NetworkTransport("127.0.0.1", port, connect_timeout=2.0)
    with pytest.raises(EngineError, match="cannot reach repro-serve"):
        transport.submit([_baseline_spec()])
    transport.cancel()


def test_transport_end_to_end_matches_local_execution():
    specs = [_baseline_spec(method="AF2"), _baseline_spec(method="AF3")]
    with ReproServer(workers=0) as server:
        transport = NetworkTransport("127.0.0.1", server.port, poll_interval=0.01)
        completions = sorted(transport.stream(specs), key=lambda c: c[0])
    assert [index for index, _, _ in completions] == [0, 1]
    for (index, result, exc), spec in zip(completions, specs):
        assert exc is None
        assert not result.from_cache  # executed remotely, not a local hit
        assert _canonical(result) == _canonical(execute_baseline_job(spec))


def test_transport_serves_a_second_client_from_the_shared_cache(tmp_path):
    spec = _baseline_spec()
    with ReproServer(workers=0, cache=tmp_path / "serve-cache") as server:
        first = NetworkTransport("127.0.0.1", server.port, poll_interval=0.01)
        [(_, result1, _)] = list(first.stream([spec]))
        second = NetworkTransport("127.0.0.1", server.port, poll_interval=0.01)
        [(_, result2, _)] = list(second.stream([spec]))
        stats = server.stats()
    assert stats["jobs_completed"] == 2 and stats["cache_hits"] == 1
    assert _canonical(result1) == _canonical(result2)
    # Server-cache hits still count as remote executions to the *session*,
    # which caches and journals them locally like any other completion.
    assert not result2.from_cache


def test_clients_keep_to_their_window_and_every_queued_job_completes():
    """The window is the only admission rule: two clients each stream four
    jobs through a 1-job window, the server queues whatever arrives, and
    every job completes; none waits on a retry or fails for waiting."""

    def slow(spec):
        time.sleep(0.02)
        return execute_baseline_job(spec)

    results: dict[str, list] = {}
    with ReproServer(workers=0, max_inflight=1, execute=slow) as server:

        def run(name: str) -> None:
            transport = NetworkTransport(
                "127.0.0.1", server.port, client_id=name, poll_interval=0.01
            )
            specs = [_baseline_spec(pdb_id=f"{name}{i}") for i in range(4)]
            results[name] = list(transport.stream(specs))

        threads = [threading.Thread(target=run, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stats = server.stats()
    for name in ("a", "b"):
        assert sorted(index for index, _, _ in results[name]) == [0, 1, 2, 3]
        assert all(exc is None for _, _, exc in results[name])
    assert (stats["jobs_accepted"], stats["jobs_completed"], stats["jobs_failed"]) == (8, 8, 0)


def test_transport_fails_outstanding_jobs_when_the_server_dies_mid_batch():
    """A SIGKILLed server surfaces as RemoteJobError completions — the batch
    *finishes* (journalled as failures, ready for resume), it never hangs."""
    gate = threading.Event()

    def blocked(spec):
        gate.wait(timeout=10.0)
        return _fake_execute(spec)

    server = ReproServer(workers=0, max_inflight=4, execute=blocked).start()
    try:
        transport = NetworkTransport("127.0.0.1", server.port, poll_interval=0.01)
        assert transport.submit([PingSpec("a"), PingSpec("b"), PingSpec("c")]) == 3
        deadline = time.monotonic() + 5.0
        while server.stats()["jobs_accepted"] < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        server.shutdown()  # the service dies with the whole batch in flight
    finally:
        gate.set()
    completions = []
    deadline = time.monotonic() + 10.0
    while transport.outstanding() and time.monotonic() < deadline:
        completions.extend(transport.poll(timeout=1.0))
    transport.cancel()
    assert len(completions) == 3
    for _, result, exc in completions:
        assert result is None
        assert exc.error_type == "ServerDisconnected"
        assert "unreachable" in exc.error_message


def test_transport_submit_refuses_while_a_batch_is_outstanding():
    """Batches run one after another on one transport, each on its own
    connection; a submit that would overlap the running batch is refused."""
    with ReproServer(workers=0, execute=_fake_execute) as server:
        transport = NetworkTransport("127.0.0.1", server.port, poll_interval=0.01)
        assert transport.submit([PingSpec("a")]) == 1
        with pytest.raises(EngineError, match="one batch at a time"):
            transport.submit([PingSpec("b")])
        first = []
        while transport.outstanding():
            first.extend(transport.poll(timeout=1.0))
        second = list(transport.stream([PingSpec("b"), PingSpec("c")]))
        assert [index for index, _, _ in first] == [0]
        assert sorted(index for index, _, _ in second) == [0, 1]
        stats = server.stats()
        assert (stats["clients_served"], stats["jobs_completed"]) == (2, 3)


# -- the repro-serve CLI -------------------------------------------------------------


def test_serve_cli_parser_defaults():
    args = build_parser().parse_args([])
    assert args.host == "127.0.0.1"
    assert args.port == 7377
    assert args.workers == 0
    assert args.cache_dir is None


def test_serve_cli_rejects_a_bad_preload(capsys):
    rc = serve_cli_main(["--preload", "no.such.module"])
    assert rc == 2
    assert "cannot preload" in capsys.readouterr().err
