"""The concurrent query service (ROADMAP item 1).

A long-lived daemon over the column store: HTTP query endpoints with
bounded admission, per-tenant quotas, per-request deadlines, snapshot
isolation across catalog generations, and graceful drain on SIGTERM.
See ``docs/service.md`` for the operator's view.

Layering (each importable and testable without the ones above it)::

    wire        binary columnar response framing
    admission   bounded concurrency + bounded queue + immediate shed
    quotas      per-tenant CPU/rows budgets over each request's usage
    snapshot    readers pin a catalog generation; writers publish
    sessions    pooled SQL sessions keyed by generation
    service     the transport-independent request path
    http        QueryDaemon: TelemetryServer + POST /v1/query, /v1/sql
"""

from .admission import AdmissionController, AdmissionRejected
from .http import DEFAULT_SERVE_PORT, QueryDaemon, ServeHandler
from .quotas import (
    DEFAULT_TENANT,
    QuotaExceeded,
    QuotaLedger,
    TenantBudget,
    parse_quota_spec,
)
from .service import BadRequest, QueryService, ServiceConfig, ServiceResponse
from .sessions import SessionPool
from .snapshot import Snapshot, SnapshotManager
from .wire import CONTENT_TYPE, WireFormatError, decode_columns, encode_columns

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "BadRequest",
    "CONTENT_TYPE",
    "DEFAULT_SERVE_PORT",
    "DEFAULT_TENANT",
    "QueryDaemon",
    "QueryService",
    "QuotaExceeded",
    "QuotaLedger",
    "ServeHandler",
    "ServiceConfig",
    "ServiceResponse",
    "SessionPool",
    "Snapshot",
    "SnapshotManager",
    "TenantBudget",
    "WireFormatError",
    "decode_columns",
    "encode_columns",
    "parse_quota_spec",
]
