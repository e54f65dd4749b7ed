"""Request/response schema of the serve daemon (see ``docs/serve.md``).

A ``/partition`` request is a JSON object:

```
{
  "graph":  {<repro-wgraph-v1 document>},   # or omitted — see "digest"
  "digest": "<64-hex sha256>",              # optional with "graph"
  "k":      4,                              # required
  "method": "gp",                           # default "gp"
  "bmax":   16.0,                           # optional; null/omitted = inf
  "rmax":   165.0,                          # optional; null/omitted = inf
  "seed":   0                               # optional; null/omitted = None
}
```

Exactly the argument surface of :func:`repro.core.api.partition_graph`
(graph model, scalar constraints), so a served result is **bit-identical**
to the direct library call — that equivalence is pinned by
``scripts/serve_smoke.py`` in CI.  A request may carry the ``digest``
*instead of* the graph: it is answered purely from the cache (the digest
keys everything), and misses with 404 rather than guessing.  When both
are present the digest must match the graph's
:meth:`~repro.graph.wgraph.WGraph.content_digest` — a cheap end-to-end
integrity check.

The cache key built here deliberately excludes execution knobs (the
daemon's ``n_jobs``, worker pool, …): by the determinism contract they
cannot change the result, so they must not fragment the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.api import METHODS
from repro.graph.io import graph_from_doc
from repro.graph.wgraph import WGraph
from repro.util.errors import ReproError

__all__ = [
    "ServeError",
    "BadRequest",
    "UnknownDigest",
    "ServeRequest",
    "parse_request",
    "request_cache_key",
    "result_payload",
]


class ServeError(ReproError):
    """A serve-layer error carrying the HTTP status to respond with."""

    status = 500

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        if status is not None:
            self.status = status


class BadRequest(ServeError):
    """Malformed or unsupported request payload."""

    status = 400


class UnknownDigest(ServeError):
    """A digest-only request whose result is not (or no longer) cached."""

    status = 404


@dataclass(frozen=True)
class ServeRequest:
    """A validated ``/partition`` request."""

    digest: str
    k: int
    method: str
    bmax: float
    rmax: float
    seed: int | None
    graph: WGraph | None


def _parse_bound(doc: dict, name: str) -> float:
    value = doc.get(name)
    if value is None:
        return float("inf")
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise BadRequest(f"{name!r} must be a number, got {value!r}") from None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise BadRequest(f"{name!r} must be a number, got {type(value).__name__}")
    value = float(value)
    if math.isnan(value) or value < 0:
        raise BadRequest(f"{name!r} must be a non-negative number, got {value}")
    return value


def parse_request(doc) -> ServeRequest:
    """Validate a decoded request body into a :class:`ServeRequest`.

    Raises :class:`BadRequest` with a message naming the offending field;
    the daemon maps it to a 400 response.
    """
    if not isinstance(doc, dict):
        raise BadRequest(
            f"request body must be a JSON object, got {type(doc).__name__}"
        )
    unknown = set(doc) - {"graph", "digest", "k", "method", "bmax", "rmax", "seed"}
    if unknown:
        raise BadRequest(f"unknown request fields: {sorted(unknown)}")

    k = doc.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise BadRequest(f"'k' must be a positive integer, got {k!r}")

    method = doc.get("method", "gp")
    if method not in METHODS:
        raise BadRequest(
            f"unknown method {method!r}; valid methods: {METHODS}"
        )

    bmax = _parse_bound(doc, "bmax")
    rmax = _parse_bound(doc, "rmax")

    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise BadRequest(f"'seed' must be an integer or null, got {seed!r}")

    graph = None
    graph_doc = doc.get("graph")
    if graph_doc is not None:
        if not isinstance(graph_doc, dict):
            raise BadRequest(
                "'graph' must be a repro-wgraph-v1 JSON object "
                "(see repro.graph.io.graph_to_json)"
            )
        try:
            graph = graph_from_doc(graph_doc)
        except ReproError as exc:
            raise BadRequest(f"bad 'graph' payload: {exc}") from exc

    digest = doc.get("digest")
    if digest is not None and not (
        isinstance(digest, str) and len(digest) == 64
    ):
        raise BadRequest("'digest' must be a 64-hex content digest string")
    if graph is not None:
        computed = graph.content_digest()
        if digest is not None and digest != computed:
            raise BadRequest(
                f"'digest' {digest[:12]}… does not match the graph payload "
                f"({computed[:12]}…)"
            )
        digest = computed
    if digest is None:
        raise BadRequest("request needs a 'graph' payload or a 'digest'")

    return ServeRequest(
        digest=digest, k=k, method=method, bmax=bmax, rmax=rmax,
        seed=seed, graph=graph,
    )


def request_cache_key(req: ServeRequest) -> tuple:
    """The digest-keyed cache/single-flight key of a request.

    Execution knobs (``n_jobs``, pool size) are absent by design: the
    determinism contract says they cannot change the result.
    """
    return ("serve", req.digest, req.method, req.k, req.bmax, req.rmax, req.seed)


def result_payload(req: ServeRequest, result) -> dict:
    """JSON-able response body for a computed result (server fields —
    ``cached``/``deduped`` — are stamped at delivery time, so the same
    stored payload serves every later hit)."""
    m = result.metrics
    return {
        "digest": req.digest,
        "method": req.method,
        "k": req.k,
        "seed": req.seed,
        "algorithm": result.algorithm,
        "assign": [int(p) for p in result.assign],
        "feasible": bool(result.feasible),
        "cut": float(m.cut),
        "metrics": {
            "cut": float(m.cut),
            "max_local_bandwidth": float(m.max_local_bandwidth),
            "max_resource": float(m.max_resource),
            "bandwidth_violation": float(m.bandwidth_violation),
            "resource_violation": float(m.resource_violation),
        },
    }
