"""PRO rules on broker-shaped corpora.

Corpora with op tuples, ``op ==`` ladders and a retry set must lint
clean; PRO008 must flag exactly the federation ``AllocateParams``
constructed without an idempotency token.
"""

from __future__ import annotations

from tests.analysis.conftest import rules_of

_PROTOCOL = """
    OPS = ("allocate", "status")

    def parse_request(op):
        if op == "allocate":
            return 1
        if op == "status":
            return 2
"""

_SERVER = """
    def dispatch(request):
        if request.op == "allocate":
            return 1
        if request.op == "status":
            return 2
"""

_CLIENT = """
    _RETRY_SAFE_OPS = frozenset({"status"})

    class BrokerClient:
        def allocate(self):
            return self.call("allocate", {})

        def status(self):
            return self.call("status", {})
"""


def corpus(**overrides):
    files = {
        "src/repro/broker/protocol.py": _PROTOCOL,
        "src/repro/broker/server.py": _SERVER,
        "src/repro/broker/client.py": _CLIENT,
    }
    files.update(overrides)
    return files


class TestProtocolDrift:
    def test_synced_corpus_is_clean(self, lint):
        assert lint(corpus()) == []

    def test_match_statement_ladder_counts(self, lint):
        files = corpus()
        files["src/repro/broker/server.py"] = """
            def dispatch(request):
                op = request.op
                match op:
                    case "allocate":
                        return 1
                    case "status":
                        return 2
        """
        assert lint(files) == []

    def test_corpus_without_ops_is_exempt(self, lint):
        findings = lint({
            "src/repro/broker/protocol.py": "X = 1\n",
        })
        assert findings == []


_FED_PROTOCOL = """
    OPS = ("allocate", "status")
    FEDERATION_OPS = ("shards", "resolve")

    def parse_request(op):
        if op == "allocate":
            return 1
        if op == "status":
            return 2
        if op == "shards":
            return 3
        if op == "resolve":
            return 4
"""

_FED_DAEMON = """
    class FederationDaemon:
        async def _dispatch(self, request):
            if request.op == "shards":
                return 1
            if request.op == "resolve":
                return 2
            return await super()._dispatch(request)
"""

_FED_CLIENT = """
    _RETRY_SAFE_OPS = frozenset({"status", "shards", "resolve"})

    class BrokerClient:
        def allocate(self):
            return self.call("allocate", {})

        def status(self):
            return self.call("status", {})

        def shards(self):
            return self.call("shards")

        def resolve(self, lease_id):
            return self.call("resolve", {"lease_id": lease_id})
"""


def fed_corpus(**overrides):
    files = {
        "src/repro/broker/protocol.py": _FED_PROTOCOL,
        "src/repro/broker/server.py": _SERVER,
        "src/repro/broker/client.py": _FED_CLIENT,
        "src/repro/federation/daemon.py": _FED_DAEMON,
    }
    files.update(overrides)
    return files


class TestFederationDrift:
    def test_synced_federation_corpus_is_clean(self, lint):
        assert lint(fed_corpus()) == []

    def test_base_daemon_needs_no_federation_branches(self, lint):
        # _SERVER has no shards/resolve branch: a single broker does
        # not serve the router verbs, which is not a finding
        assert lint(fed_corpus()) == []

    def test_retry_safe_may_name_federation_ops(self, lint):
        # a retry set naming the router verbs trips no protocol rule
        assert lint(fed_corpus()) == []

    def test_tokenless_allocate_params_in_federation(self, lint):
        files = fed_corpus()
        files["src/repro/federation/router.py"] = """
            def split(params, take):
                return AllocateParams(n_processes=take, ppn=params.ppn)
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO008"]
        assert "token" in findings[0].message

    def test_token_forwarding_allocate_params_is_clean(self, lint):
        files = fed_corpus()
        files["src/repro/federation/router.py"] = """
            def split(params, take, sub):
                return AllocateParams(n_processes=take, token=sub)
        """
        assert lint(files) == []

    def test_token_via_splat_is_trusted(self, lint):
        files = fed_corpus()
        files["src/repro/federation/router.py"] = """
            def split(kwargs):
                return AllocateParams(**kwargs)
        """
        assert lint(files) == []

    def test_tokenless_outside_federation_is_fine(self, lint):
        files = fed_corpus()
        files["src/repro/broker/helper.py"] = """
            def probe():
                return AllocateParams(n_processes=1)
        """
        assert lint(files) == []


_FLEET_PROTOCOL = """
    OPS = ("allocate", "status")
    FLEET_OPS = ("fleet_plan", "fleet_status")

    def parse_request(op):
        if op == "allocate":
            return 1
        if op == "status":
            return 2
        if op == "fleet_plan":
            return 3
        if op == "fleet_status":
            return 4
"""

_FLEET_SERVER = """
    def dispatch(request):
        if request.op == "allocate":
            return 1
        if request.op == "fleet_plan":
            return 2
        if request.op == "fleet_status":
            return 3
        if request.op == "status":
            return 4
"""

_FLEET_CLIENT = """
    _RETRY_SAFE_OPS = frozenset({"status", "fleet_status"})

    class BrokerClient:
        def allocate(self):
            return self.call("allocate", {})

        def status(self):
            return self.call("status", {})

        def fleet_plan(self):
            return self.call("fleet_plan", {})

        def fleet_status(self):
            return self.call("fleet_status")
"""


def fleet_corpus(**overrides):
    files = {
        "src/repro/broker/protocol.py": _FLEET_PROTOCOL,
        "src/repro/broker/server.py": _FLEET_SERVER,
        "src/repro/broker/client.py": _FLEET_CLIENT,
    }
    files.update(overrides)
    return files


class TestFleetDrift:
    def test_synced_fleet_corpus_is_clean(self, lint):
        assert lint(fleet_corpus()) == []

    def test_retry_safe_may_name_fleet_status(self, lint):
        # a retry set naming a fleet verb trips no protocol rule
        assert lint(fleet_corpus()) == []
