"""``repro.serve`` — the preview-table service layer.

Everything below this package turns one Python process into a
multi-client preview-table server over a warm
:class:`~repro.engine.PreviewEngine`: the ROADMAP's "serving heavy
traffic" scenario, built on ``asyncio`` with zero third-party
dependencies.

* :mod:`~repro.serve.protocol` — the JSON-line wire protocol (framing,
  request validation, error codes);
* :mod:`~repro.serve.locks` — the writer-preferring async read/write
  lock that serializes mutations against queries;
* :mod:`~repro.serve.coalescer` — in-flight request coalescing: all
  concurrent identical ``(dataset, query, generation)`` requests await
  one computation and share one result object;
* :mod:`~repro.serve.host` — :class:`EngineHost`, one per dataset: the
  incremental graph, its engine, a long-lived sharded executor, and a
  single worker thread that serializes every engine touch;
* :mod:`~repro.serve.service` — :class:`PreviewService`: sockets,
  admission control (bounded in-flight requests + per-request
  timeouts), error mapping, ``health``/``stats``;
* :mod:`~repro.serve.client` — :class:`ServeClient`, the blocking
  client tests and benchmarks drive the real socket path with.

See ``docs/serving.md`` for the protocol reference with captured
request/response examples, and ``docs/architecture.md`` for where this
layer sits in the stack.
"""

from .client import ServeClient
from .coalescer import RequestCoalescer
from .host import (
    EngineHost,
    apply_mutation,
    parse_mutation,
    parse_query,
    parse_sweep,
)
from .locks import ReadWriteLock
from .protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPERATIONS,
    Request,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
)
from .service import BackgroundServer, LineService, PreviewService, run_in_background

__all__ = [
    "BackgroundServer",
    "ERROR_CODES",
    "EngineHost",
    "LineService",
    "MAX_FRAME_BYTES",
    "OPERATIONS",
    "PreviewService",
    "ReadWriteLock",
    "Request",
    "RequestCoalescer",
    "ServeClient",
    "apply_mutation",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "parse_mutation",
    "parse_query",
    "parse_request",
    "parse_sweep",
    "run_in_background",
]
