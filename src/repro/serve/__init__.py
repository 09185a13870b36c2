"""`repro.serve` — the compile-as-a-service daemon.

A long-running asyncio HTTP/JSON front end over the compilation
pipeline: bounded-queue admission control with priority classes,
request coalescing on content-addressed fingerprints, a worker pool
sharing one tiered mapping cache (with per-server disk shards), and
per-request observability. See ``docs/serve.md``.
"""

from repro.serve.client import (
    DEFAULT_TIMEOUT_S,
    REPORT_SCHEMA,
    HTTPClient,
    LoadtestConfig,
    LoadtestError,
    build_request_mix,
    loadtest,
    run_loadtest,
    write_report,
)
from repro.serve.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    BackgroundServer,
    CompileServer,
)
from repro.serve.service import (
    DEFAULT_MAX_QUEUE,
    DEFAULT_WORKERS,
    PRIORITIES,
    RESPONSE_SCHEMA,
    CompileRequest,
    CompileService,
    QueueFullError,
    RequestError,
    ServiceClosedError,
    StreamRequest,
    canonical_json,
)

__all__ = [
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_TIMEOUT_S",
    "DEFAULT_WORKERS",
    "MAX_BODY_BYTES",
    "MAX_HEADER_LINES",
    "PRIORITIES",
    "REPORT_SCHEMA",
    "RESPONSE_SCHEMA",
    "BackgroundServer",
    "CompileRequest",
    "CompileServer",
    "CompileService",
    "HTTPClient",
    "LoadtestConfig",
    "LoadtestError",
    "QueueFullError",
    "RequestError",
    "ServiceClosedError",
    "StreamRequest",
    "build_request_mix",
    "canonical_json",
    "loadtest",
    "run_loadtest",
    "write_report",
]
