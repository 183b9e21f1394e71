"""Golden wire transcript: every op's response bytes, pinned.

A scripted session sends every protocol op — a success and a typed
failure each, ``hello`` accept and reject, an unknown op, a wrong
version and a malformed message — to a live single-broker daemon and a
live federation daemon, once over JSON lines and once over binary
framing.  Every response is compared byte for byte with the committed
``wire_transcript.json``.  Only wall-clock readings are masked: the
``uptime_s`` field and the decision/plan latency fields.

Regenerate the golden file (only when a wire change is intended) with::

    PYTHONPATH=src python -m tests.broker.test_wire_transcript
"""

from __future__ import annotations

import json
import re
import socket
from pathlib import Path
from typing import Any

import pytest

from repro.broker import BrokerDaemonThread, BrokerServer, BrokerService
from repro.broker.protocol import CODECS, FRAME_HEADER
from repro.experiments.scenario import small_scenario
from repro.federation import (
    FederationDaemon,
    build_federation,
    snapshot_switches,
    subtree_partition,
)

GOLDEN = Path(__file__).with_name("wire_transcript.json")

#: the transcript pins the codec list of a build without msgpack
pytestmark = pytest.mark.skipif(
    CODECS != ("json", "binary"),
    reason="golden transcript pins the json/binary codec list",
)

_MASKS = (
    (re.compile(r'"uptime_s":[-0-9.eE+]+'), '"uptime_s":"*"'),
    (re.compile(r'"plan_latency_s":[-0-9.eE+]+'), '"plan_latency_s":"*"'),
    (re.compile(r'"decision_latency_ms":\{[^}]*\}'),
     '"decision_latency_ms":"*"'),
)

#: a lease id no daemon ever granted
_NO_LEASE = "L99999999"


def _script(federated: bool) -> list[tuple[str, Any]]:
    """``(label, request)`` pairs; ``request`` is a dict or raw bytes.

    ``{lease}`` in a request is replaced by the lease id the first
    allocate granted.
    """
    steps: list[tuple[str, Any]] = [
        ("allocate ok", {"op": "allocate", "params": {
            "n": 4, "ppn": 2, "ttl_s": 600, "token": "tok-1"}}),
        ("allocate unknown policy", {"op": "allocate", "params": {
            "n": 4, "policy": "bogus"}}),
        ("renew ok", {"op": "renew", "params": {
            "lease_id": "{lease}", "ttl_s": 900}}),
        ("renew unknown lease", {"op": "renew", "params": {
            "lease_id": _NO_LEASE}}),
        ("reconfigure ok", {"op": "reconfigure", "params": {
            "lease_id": "{lease}", "remaining_s": 600}}),
        ("reconfigure unknown lease", {"op": "reconfigure", "params": {
            "lease_id": _NO_LEASE}}),
        ("fleet_plan ok", {"op": "fleet_plan", "params": {"dry_run": True}}),
        ("fleet_plan bad request", {"op": "fleet_plan", "params": {
            "max_actions": 0}}),
        ("fleet_status ok", {"op": "fleet_status"}),
        ("fleet_status bad request", {"op": "fleet_status", "params": "x"}),
        ("status bad request", {"op": "status", "params": "x"}),
    ]
    if federated:
        steps += [
            ("shards ok", {"op": "shards"}),
            ("shards bad request", {"op": "shards", "params": "x"}),
            ("resolve ok", {"op": "resolve", "params": {
                "lease_id": "{lease}"}}),
            ("resolve unknown lease", {"op": "resolve", "params": {
                "lease_id": "nowhere:" + _NO_LEASE}}),
        ]
    steps += [
        ("release ok", {"op": "release", "params": {"lease_id": "{lease}"}}),
        ("release twice", {"op": "release", "params": {
            "lease_id": "{lease}"}}),
        ("unknown op", {"op": "teleport"}),
        ("unsupported version", {"v": 2, "op": "status"}),
        ("malformed", b"%%% not json %%%"),
        ("status ok", {"op": "status"}),
    ]
    return steps


class _Wire:
    """A raw socket speaking one framing, switched by ``hello``."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.rfile = self.sock.makefile("rb")
        self.codec = "json"
        self.ids = 0

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def send(self, request: Any) -> str:
        if isinstance(request, bytes):
            payload = request
        else:
            self.ids += 1
            obj = {"v": 1, "id": f"g{self.ids}"}
            obj.update(request)
            payload = json.dumps(obj, separators=(",", ":")).encode()
        if self.codec == "json":
            self.sock.sendall(payload + b"\n")
            line = self.rfile.readline()
            assert line.endswith(b"\n")
            return line[:-1].decode()
        self.sock.sendall(FRAME_HEADER.pack(len(payload)) + payload)
        (length,) = FRAME_HEADER.unpack(self.rfile.read(FRAME_HEADER.size))
        data = self.rfile.read(length)
        assert len(data) == length
        return data.decode()


def _mask(text: str) -> str:
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return text


def _session(port: int, codec: str, federated: bool) -> list[list[str]]:
    wire = _Wire(port)
    rows: list[list[str]] = []
    lease = ""
    try:
        hello = [
            ("hello reject", {"op": "hello", "params": {"codec": "bogus"}}),
            ("hello accept", {"op": "hello", "params": {"codec": codec}}),
        ]
        if codec != "json":
            # accept first so the reject travels in the new framing
            hello.reverse()
        for label, request in hello + _script(federated):
            if isinstance(request, dict) and lease:
                request = json.loads(
                    json.dumps(request).replace("{lease}", lease)
                )
            response = wire.send(request)
            if label == "hello accept":
                wire.codec = codec
            if label == "allocate ok":
                lease = json.loads(response)["result"]["lease_id"]
            rows.append([label, _mask(response)])
    finally:
        wire.close()
    return rows


@pytest.fixture(scope="module")
def worlds():
    small = small_scenario(8, seed=3, warmup_s=600.0).snapshot()
    fleet = small_scenario(16, seed=7, warmup_s=600.0).snapshot()
    return small, fleet


def _server(worlds, federated: bool) -> BrokerServer:
    small, fleet = worlds
    clock = lambda: 1000.0  # noqa: E731 — a frozen clock pins expiries
    if federated:
        partition = subtree_partition(snapshot_switches(fleet), 2)
        router = build_federation(
            lambda: fleet, partition, clock=clock, default_ttl_s=600.0
        )
        return FederationDaemon(router, port=0, sweep_period_s=60.0)
    service = BrokerService(lambda: small, clock=clock, default_ttl_s=600.0)
    return BrokerServer(service, port=0, sweep_period_s=60.0)


def record(worlds) -> dict[str, list[list[str]]]:
    """Every transcript, keyed ``<daemon>/<codec>``."""
    out: dict[str, list[list[str]]] = {}
    for daemon in ("broker", "federation"):
        for codec in ("json", "binary"):
            server = _server(worlds, daemon == "federation")
            with BrokerDaemonThread(server) as d:
                out[f"{daemon}/{codec}"] = _session(
                    d.port, codec, daemon == "federation"
                )
    return out


def test_transcript_matches_golden(worlds):
    golden = json.loads(GOLDEN.read_text())
    got = record(worlds)
    assert list(got) == list(golden)
    for key, rows in golden.items():
        assert [label for label, _ in got[key]] == [l for l, _ in rows], key
        for (label, expected), (_, actual) in zip(rows, got[key]):
            assert actual == expected, f"{key}: {label}"


if __name__ == "__main__":
    small = small_scenario(8, seed=3, warmup_s=600.0).snapshot()
    fleet = small_scenario(16, seed=7, warmup_s=600.0).snapshot()
    GOLDEN.write_text(json.dumps(record((small, fleet)), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
