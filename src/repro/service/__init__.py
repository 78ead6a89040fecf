"""The serving layer: shared chunk cache, batched queries, and the service.

Everything the PR-3/PR-4 readers decode is chunk-granular; this package makes
those chunks *shareable*:

* :mod:`repro.service.cache` — a byte-budgeted LRU :class:`ChunkCache` keyed
  by ``(path, dataset, chunk)``.  Every handle has a private one; handles
  opened onto one shared cache (``repro.open(path, cache=...)``) decode each
  chunk once between them.
* :mod:`repro.service.engine` — a :class:`QueryEngine` holding a pool of lazy
  handles over many plotfiles/series on one shared cache.  It accepts batched
  box-read requests and coalesces requests hitting the same chunk or delta
  chain so each chunk is looked up once and decoded at most once per batch.
* :mod:`repro.service.core` — the transport-neutral :class:`RequestHandler`:
  op dispatch, protocol-version negotiation, bearer-token auth, request-size
  and rate limits, trace binding, per-op tallies and the structured request
  log.  Every transport is a thin shell over it.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  JSON-over-TCP transport and its thin synchronous client
  (``python -m repro serve`` / ``python -m repro query``), plus the
  streaming ``subscribe`` verb: the core polls a live series
  per subscriber and the transport pushes its step-committed events;
  :func:`follow_series` pairs each event with a box read, reconnecting and
  resuming on failure (``python -m repro query follow DIR``).
* :mod:`repro.service.http` — the HTTP/1.1 JSON gateway over the same core
  (``repro serve --http``): ``POST /v1/query``, ``GET /metrics`` (Prometheus),
  ``GET /healthz``, chunked ``GET /v1/subscribe``; :class:`HttpClient`
  mirrors :class:`ReproClient`.
* :mod:`repro.service.lifecycle` — the threaded-server lifecycle
  (construct / ``run`` / ``start`` / ``stop``) both transports inherit.
* :mod:`repro.service.fakes` — in-process :class:`FakeTransport` /
  :class:`FakeClient` driving the real core (through the real wire codec)
  with no sockets, for tests and embedding.
"""

__all__ = [
    "CacheStats",
    "ChunkCache",
    "BoxQuery",
    "QueryEngine",
    "RequestContext",
    "RequestHandler",
    "resolve_auth_token",
    "ReproClient",
    "ReproServer",
    "HttpClient",
    "HttpServer",
    "FakeClient",
    "FakeTransport",
    "ServiceError",
    "follow_series",
]

#: public name -> defining submodule; resolved lazily so importing the cache
#: (or `import repro`, which re-exports ChunkCache) does not pull the engine,
#: the servers and the socket client into every process
_EXPORTS = {
    "CacheStats": "repro.service.cache",
    "ChunkCache": "repro.service.cache",
    "BoxQuery": "repro.service.engine",
    "QueryEngine": "repro.service.engine",
    "RequestContext": "repro.service.core",
    "RequestHandler": "repro.service.core",
    "resolve_auth_token": "repro.service.core",
    "ReproClient": "repro.service.client",
    "ReproServer": "repro.service.server",
    "HttpClient": "repro.service.http",
    "HttpServer": "repro.service.http",
    "FakeClient": "repro.service.fakes",
    "FakeTransport": "repro.service.fakes",
    "ServiceError": "repro.service.client",
    "follow_series": "repro.service.client",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
