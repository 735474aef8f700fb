"""The network API front end of the serving layer.

``repro.serving.http`` puts a REST + background-job surface over one
:class:`~repro.serving.aio.AsyncMapService`, built entirely on stdlib
asyncio (no web framework, no new runtime dependency):

* :mod:`repro.serving.http.wire` -- HTTP/1.1 framing over asyncio streams
  and the JSON codecs of the serving-layer dataclasses (the network wire
  format).
* :mod:`repro.serving.http.jobs` -- background jobs with polling handles:
  long operations (map export, flush-all) run as asyncio tasks behind 202 +
  job-id responses, with a stage history and TTL'd completed records.
* :mod:`repro.serving.http.server` -- :class:`HttpMapServer`, the
  ``asyncio.start_server`` acceptor, route table and error mapping.
* :mod:`repro.serving.http.client` -- a small asyncio client driving the
  same API (tests, the demo and the latency benchmark use it).

Serve with ``repro-serve --http --port 8080`` or embed::

    async with AsyncMapService(default_config=config) as service:
        async with HttpMapServer(service, port=8080) as server:
            await server.serve_forever()
"""

from repro.serving.http.client import HttpResponse, MapServiceClient, ServerError, http_request
from repro.serving.http.jobs import JobManager, JobRecord
from repro.serving.http.server import API, HttpMapServer
from repro.serving.http.wire import HttpError, HttpRequest

__all__ = [
    "API",
    "HttpError",
    "HttpMapServer",
    "HttpRequest",
    "HttpResponse",
    "JobManager",
    "JobRecord",
    "MapServiceClient",
    "ServerError",
    "http_request",
]
