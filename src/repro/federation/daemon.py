"""The federation daemon — the broker transport over a router.

:class:`FederationDaemon` is a :class:`~repro.broker.server.BrokerServer`
whose service is a :class:`~repro.federation.router.FederationRouter`.
Every transport feature (JSON-lines and binary codecs, pipelining, the
bounded admission queue, the micro-batcher, the sweeper) and the
dispatch itself are inherited unchanged.  The router verbs ``shards``
and ``resolve`` need no extra code: the shared
:func:`~repro.broker.server.dispatch` serves each inline verb by the
service method of the same name, and only the router has these two.
"""

from __future__ import annotations

from typing import Any

from repro.broker.server import BrokerServer
from repro.federation.router import FederationRouter


class FederationDaemon(BrokerServer):
    """Asyncio TCP daemon around a :class:`FederationRouter`."""

    def __init__(self, router: FederationRouter, **kwargs: Any) -> None:
        # The router duck-types the BrokerService surface the transport
        # drives (allocate_batch, the inline verbs, sweep_expired,
        # metrics).
        super().__init__(router, **kwargs)  # type: ignore[arg-type]
