"""Wire-protocol parsing, validation and encoding."""

import inspect
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.broker import BrokerClient, BrokerDaemonThread, BrokerServer, BrokerService
from repro.broker.client import _RETRY_SAFE_OPS, BrokerError
from repro.broker.protocol import (
    MAX_LINE_BYTES,
    OP_TABLE,
    PROTOCOL_VERSION,
    AllocateParams,
    ErrorCode,
    ProtocolError,
    encode_request,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)
from repro.chaos.transport import dispatch_line


def line(**overrides) -> str:
    obj = {"v": PROTOCOL_VERSION, "id": "r1", "op": "status"}
    obj.update(overrides)
    return json.dumps(obj)


class TestParseRequest:
    def test_roundtrip_allocate(self):
        raw = encode_request(
            "c7", "allocate", {"n": 32, "ppn": 4, "alpha": 0.4, "ttl_s": 60}
        )
        req = parse_request(raw)
        assert req.id == "c7" and req.op == "allocate"
        assert req.params == AllocateParams(
            n_processes=32, ppn=4, alpha=0.4, ttl_s=60
        )

    def test_defaults(self):
        req = parse_request(line(op="allocate", params={"n": 8}))
        assert req.params.ppn is None
        assert req.params.alpha == 0.3
        assert req.params.policy is None and req.params.ttl_s is None

    def test_renew_release_status(self):
        renew = parse_request(
            line(op="renew", params={"lease_id": "L1", "ttl_s": 5})
        )
        assert renew.params.lease_id == "L1" and renew.params.ttl_s == 5
        release = parse_request(line(op="release", params={"lease_id": "L1"}))
        assert release.params.lease_id == "L1"
        status = parse_request(line(op="status"))
        assert status.op == "status"

    def test_numeric_id_coerced_to_string(self):
        assert parse_request(line(id=12)).id == "12"

    @pytest.mark.parametrize("bad", [
        "not json at all",
        "[1, 2, 3]",
        '"a string"',
        line(op="allocate"),                        # missing n
        line(op="allocate", params={"n": 0}),       # non-positive n
        line(op="allocate", params={"n": -4}),
        line(op="allocate", params={"n": 8, "ppn": 0}),
        line(op="allocate", params={"n": 8, "alpha": 1.5}),
        line(op="allocate", params={"n": 8, "ttl_s": -1}),
        line(op="allocate", params={"n": True}),    # bool is not an int here
        line(op="allocate", params={"n": "8"}),
        line(op="renew", params={}),                # missing lease_id
        line(op="renew", params={"lease_id": ""}),
        line(op="release", params={"lease_id": 7}),
        line(op="status", params="nope"),
        json.dumps({"id": "x", "op": "status"}),    # missing v
    ])
    def test_bad_requests(self, bad):
        with pytest.raises(ProtocolError) as err:
            parse_request(bad)
        assert err.value.code == ErrorCode.BAD_REQUEST

    def test_wrong_version(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(line(v=99))
        assert err.value.code == ErrorCode.UNSUPPORTED_VERSION

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(line(op="teleport"))
        assert err.value.code == ErrorCode.UNKNOWN_OP

    def test_oversized_line_rejected(self):
        huge = line(op="allocate", params={"n": 8, "policy": "x" * MAX_LINE_BYTES})
        with pytest.raises(ProtocolError) as err:
            parse_request(huge)
        assert err.value.code == ErrorCode.BAD_REQUEST


class TestEncodeResponse:
    def test_ok_roundtrip(self):
        raw = encode_response(ok_response("r9", {"lease_id": "L1"}))
        obj = json.loads(raw)
        assert obj == {
            "v": PROTOCOL_VERSION,
            "id": "r9",
            "ok": True,
            "result": {"lease_id": "L1"},
        }

    def test_error_roundtrip(self):
        err = ProtocolError(ErrorCode.BUSY, "queue full")
        obj = json.loads(encode_response(error_response("r2", err)))
        assert obj["ok"] is False
        assert obj["error"] == {"code": "BUSY", "message": "queue full"}

    def test_one_line_per_message(self):
        raw = encode_response(ok_response("a", {"x": 1}))
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1


class TestOpTable:
    def test_every_service_verb_has_a_client_method(self, monkeypatch):
        called: list[str] = []
        grant = {"lease_id": "L1", "nodes": [], "procs": {}, "hostfile": "",
                 "policy": "p", "ttl_s": 1.0, "expires_at": 1.0}
        monkeypatch.setattr(
            BrokerClient, "call",
            lambda self, op, params=None: called.append(op) or dict(grant),
        )
        client = BrokerClient()
        args = {"n": 4, "lease_id": "L1"}
        for name, spec in OP_TABLE.items():
            if spec.transport:
                continue
            method = getattr(client, name)
            required = [
                p.name for p in inspect.signature(method).parameters.values()
                if p.default is inspect.Parameter.empty
                and p.kind is not inspect.Parameter.VAR_KEYWORD
            ]
            method(*(args[p] for p in required))
            assert called[-1] == name

    def test_retry_safe_ops_are_the_retry_safe_rows(self):
        assert _RETRY_SAFE_OPS == {
            name for name, spec in OP_TABLE.items() if spec.retry_safe
        }


_ROUTER_VERBS = [("shards", None), ("resolve", {"lease_id": "L00000001"})]


class TestRouterVerbsOnASingleBroker:
    """``shards``/``resolve`` are router verbs: a single broker answers
    a typed ``UNKNOWN_OP``, over the daemon and the chaos transport."""

    @pytest.mark.parametrize("op, params", _ROUTER_VERBS)
    def test_daemon_answers_unknown_op(self, scenario, caplog, op, params):
        service = BrokerService(scenario.snapshot)
        with BrokerDaemonThread(BrokerServer(service, port=0)) as daemon:
            with BrokerClient(port=daemon.port) as client:
                with pytest.raises(BrokerError) as err:
                    client.call(op, params)
                assert client.status()["protocol_version"] == PROTOCOL_VERSION
        assert err.value.code == "UNKNOWN_OP"
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    @pytest.mark.parametrize("op, params", _ROUTER_VERBS)
    def test_chaos_transport_answers_unknown_op(self, scenario, op, params):
        service = BrokerService(scenario.snapshot)
        obj = json.loads(dispatch_line(service, encode_request("r1", op, params)))
        assert obj["ok"] is False
        assert obj["error"]["code"] == "UNKNOWN_OP"

    def test_unknown_op_without_asserts(self):
        # ``python -O`` strips asserts: no op check may be an assert.
        code = (
            "from repro.broker.service import BrokerService\n"
            "from repro.chaos.transport import dispatch_line\n"
            "line = b'{\"v\": 1, \"id\": \"r\", \"op\": \"shards\"}'\n"
            "print(dispatch_line(BrokerService(lambda: None), line).decode())\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        ).stdout
        assert json.loads(out)["error"]["code"] == "UNKNOWN_OP"
