"""Transport v2: codec negotiation, framed codecs, and pipelining.

The ``hello`` verb is a *transport* op — answered by the connection
layer in whatever codec the connection currently speaks, with the
upgrade applying only to messages after the response.  These tests run
the real daemon over loopback TCP: negotiation shapes, binary-codec
round-trips, pipelined bursts (including out-of-order completion and
window-overflow BUSY), transparent re-negotiation after reconnect, and
the chaos transport's honest JSON-only hello mirror.
"""

import asyncio
import json

import pytest

from repro.broker import (
    BrokerClient,
    BrokerDaemonThread,
    BrokerError,
    BrokerServer,
    BrokerService,
)
from repro.broker.protocol import CODECS, PROTOCOL_VERSION
from repro.chaos.transport import ScriptedSocketFactory
from repro.monitor.snapshot import CachedSnapshotSource


@pytest.fixture(scope="module")
def daemon(scenario):
    source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
    service = BrokerService(source, default_ttl_s=30.0)
    server = BrokerServer(service, port=0)
    with BrokerDaemonThread(server) as d:
        yield d


@pytest.fixture
def client(daemon):
    with BrokerClient(port=daemon.port, timeout_s=10.0) as c:
        yield c


class TestHelloNegotiation:
    def test_default_hello_shape(self, client):
        result = client.hello()
        assert result["codec"] == "json"
        assert result["pipeline"] is False
        assert result["max_inflight"] == 1
        assert result["protocol_version"] == PROTOCOL_VERSION
        assert "json" in result["codecs"] and "binary" in result["codecs"]

    def test_binary_codec_round_trip(self, client):
        result = client.hello(codec="binary")
        assert result["codec"] == "binary"
        grant = client.allocate(8, ppn=4, ttl_s=20.0)
        assert sum(grant.procs.values()) == 8
        renewed = client.renew(grant.lease_id, ttl_s=40.0)
        assert renewed["ttl_s"] == 40.0
        released = client.release(grant.lease_id)
        assert released["released"] is True
        assert client.status()["protocol_version"] == PROTOCOL_VERSION

    def test_unsupported_codec_rejected_connection_survives(self, client):
        with pytest.raises(BrokerError) as err:
            client.hello(codec="zstd")
        assert err.value.code == "BAD_REQUEST"
        assert "zstd" in err.value.message
        # the hello error did not upgrade anything: same connection,
        # still JSON lines, still serving
        client._negotiate = None  # drop the refused wish before reconnects
        assert client.status()["protocol_version"] == PROTOCOL_VERSION

    def test_msgpack_gated_on_import(self, client):
        if "msgpack" in CODECS:  # pragma: no cover — env-dependent
            result = client.hello(codec="msgpack")
            assert result["codec"] == "msgpack"
            assert client.status()["protocol_version"] == PROTOCOL_VERSION
        else:
            with pytest.raises(BrokerError) as err:
                client.hello(codec="msgpack")
            assert err.value.code == "BAD_REQUEST"

    def test_hello_before_connect_negotiates_on_connect(self, daemon):
        client = BrokerClient(port=daemon.port, timeout_s=10.0)
        try:
            result = client.hello(codec="binary", pipeline=True, max_inflight=4)
            assert result["codec"] == "binary"
            assert result["pipeline"] is True
            assert result["max_inflight"] == 4
        finally:
            client.close()

    def test_window_capped_by_server_queue(self, client):
        # 1024 is the protocol's hard validation cap; the server then
        # grants no more than its own admission-queue depth (128 default)
        result = client.hello(pipeline=True, max_inflight=1024)
        assert result["max_inflight"] == 128
        with pytest.raises(BrokerError) as err:
            client.hello(pipeline=True, max_inflight=100_000)
        assert err.value.code == "BAD_REQUEST"


class TestPipelinedBursts:
    def test_call_many_requires_negotiation(self, client):
        with pytest.raises(BrokerError) as err:
            client.call_many("status", [None])
        assert err.value.code == "BAD_REQUEST"

    def test_status_burst_exceeding_window(self, client):
        client.hello(pipeline=True, max_inflight=8)
        results = client.call_many("status", [None] * 20)
        assert len(results) == 20
        for r in results:
            assert not isinstance(r, BrokerError)
            assert r["protocol_version"] == PROTOCOL_VERSION

    def test_allocate_burst_mixes_grants_and_errors(self, client):
        client.hello(pipeline=True, max_inflight=8)
        results = client.call_many(
            "allocate",
            [{"n": 4, "ppn": 4}, {"n": -1}, {"n": 4, "ppn": 4}],
        )
        good = [r for r in results if not isinstance(r, BrokerError)]
        bad = [r for r in results if isinstance(r, BrokerError)]
        assert len(good) == 2 and len(bad) == 1
        assert isinstance(results[1], BrokerError)
        assert bad[0].code == "BAD_REQUEST"
        granted = {n for r in good for n in r["nodes"]}
        assert len(granted) == sum(len(r["nodes"]) for r in good)  # disjoint
        for r in good:
            client.release(r["lease_id"])

    def test_binary_pipelined_burst(self, client):
        client.hello(codec="binary", pipeline=True, max_inflight=4)
        results = client.call_many("status", [None] * 10)
        assert len(results) == 10
        assert all(not isinstance(r, BrokerError) for r in results)

    def test_binary_burst_matches_bad_request_to_its_request(self, daemon):
        # A framed request that decodes but fails validation must keep
        # its id, or the burst cannot match the error and times out.
        with BrokerClient(port=daemon.port, timeout_s=3.0) as client:
            client.hello(codec="binary", pipeline=True, max_inflight=4)
            results = client.call_many(
                "fleet_plan", [{"dry_run": True}, {"max_actions": 0}]
            )
        assert not isinstance(results[0], BrokerError)
        assert isinstance(results[1], BrokerError)
        assert results[1].code == "BAD_REQUEST"

    def test_empty_burst(self, client):
        client.hello(pipeline=True)
        assert client.call_many("status", []) == []


class TestReconnectRenegotiation:
    def test_reconnect_replays_negotiation(self, client):
        client.hello(codec="binary", pipeline=True, max_inflight=4)
        client.close()  # simulate transport death
        # plain call reconnects; connect() must replay the negotiation
        # before this request goes out, or the codecs would disagree
        assert client.status()["protocol_version"] == PROTOCOL_VERSION
        assert client._codec == "binary"
        results = client.call_many("status", [None] * 3)
        assert all(not isinstance(r, BrokerError) for r in results)


class TestWireLevelPipelining:
    """Raw asyncio conversations pinning server-side semantics."""

    def test_inline_ops_overtake_pending_allocates(self, scenario):
        """Out-of-order by design: status answers while allocate batches."""

        async def run():
            source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
            service = BrokerService(source)
            # a generous straggler window keeps the allocate undecided
            # long enough that ordering is deterministic
            server = BrokerServer(service, port=0, batch_window_s=0.5)
            await server.start(start_sweeper=False)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                hello = {
                    "v": 1, "id": "h", "op": "hello",
                    "params": {"pipeline": True, "max_inflight": 8},
                }
                writer.write((json.dumps(hello) + "\n").encode())
                obj = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert obj["ok"] is True
                alloc = {
                    "v": 1, "id": "slow", "op": "allocate",
                    "params": {"n": 4},
                }
                status = {"v": 1, "id": "fast", "op": "status"}
                writer.write(
                    (json.dumps(alloc) + "\n" + json.dumps(status) + "\n").encode()
                )
                first = json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                second = json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                assert first["id"] == "fast"  # overtook the batching allocate
                assert second["id"] == "slow" and second["ok"] is True
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_window_overflow_answers_busy(self, scenario):
        """The (N+1)-th in-flight allocate is refused, not queued."""

        async def run():
            source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
            service = BrokerService(source)
            server = BrokerServer(service, port=0)
            # batcher paused: pipelined allocates stay in flight forever
            await server.start(start_batcher=False, start_sweeper=False)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                hello = {
                    "v": 1, "id": "h", "op": "hello",
                    "params": {"pipeline": True, "max_inflight": 2},
                }
                writer.write((json.dumps(hello) + "\n").encode())
                obj = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert obj["result"]["max_inflight"] == 2
                for rid in ("a1", "a2", "a3"):
                    req = {
                        "v": 1, "id": rid, "op": "allocate",
                        "params": {"n": 4},
                    }
                    writer.write((json.dumps(req) + "\n").encode())
                busy = json.loads(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                assert busy["id"] == "a3"
                assert busy["error"]["code"] == "BUSY"
                assert "pipeline window" in busy["error"]["message"]
                assert service.metrics.busy_rejected == 1
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_binary_frames_on_the_wire(self, scenario):
        """After a binary hello, responses are length-prefixed frames."""
        from repro.broker.protocol import FRAME_HEADER, encode_frame

        async def run():
            source = CachedSnapshotSource(scenario.snapshot, max_age_s=1e9)
            service = BrokerService(source)
            server = BrokerServer(service, port=0, max_queue=4)
            await server.start(start_sweeper=False)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                hello = {
                    "v": 1, "id": "h", "op": "hello",
                    "params": {"codec": "binary"},
                }
                writer.write((json.dumps(hello) + "\n").encode())
                # hello response still travels as a JSON line
                obj = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                assert obj["ok"] is True and obj["result"]["codec"] == "binary"
                # ...but the next exchange is framed in both directions
                frame = encode_frame(
                    {"v": 1, "id": "s1", "op": "status"}, "binary"
                )
                writer.write(frame)
                header = await asyncio.wait_for(
                    reader.readexactly(FRAME_HEADER.size), 5.0
                )
                (length,) = FRAME_HEADER.unpack(header)
                payload = await asyncio.wait_for(reader.readexactly(length), 5.0)
                response = json.loads(payload)
                assert response["id"] == "s1" and response["ok"] is True
                writer.close()
            finally:
                await server.stop()

        asyncio.run(run())


class TestChaosTransportMirror:
    def test_chaos_hello_grants_json_only(self, scenario, clock):
        source = CachedSnapshotSource(
            scenario.snapshot, max_age_s=1e9, clock=clock
        )
        service = BrokerService(source, clock=clock)
        factory = ScriptedSocketFactory(service)
        client = BrokerClient(socket_factory=factory, connect_retries=0)
        result = client.hello()
        assert result == {
            "codec": "json",
            "pipeline": False,
            "max_inflight": 1,
            "codecs": ["json"],
            "protocol_version": PROTOCOL_VERSION,
        }
        assert client.status()["protocol_version"] == PROTOCOL_VERSION

    def test_chaos_hello_refuses_upgrades(self, scenario, clock):
        source = CachedSnapshotSource(
            scenario.snapshot, max_age_s=1e9, clock=clock
        )
        service = BrokerService(source, clock=clock)
        client = BrokerClient(
            socket_factory=ScriptedSocketFactory(service), connect_retries=0
        )
        with pytest.raises(BrokerError) as err:
            client.hello(codec="binary")
        assert err.value.code == "BAD_REQUEST"
        with pytest.raises(BrokerError) as err:
            client.hello(pipeline=True)
        assert err.value.code == "BAD_REQUEST"
