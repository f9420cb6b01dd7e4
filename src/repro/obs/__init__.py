"""repro.obs — end-to-end request tracing for the serving stack.

Sits at the top of the layer DAG next to :mod:`repro.metrics`: every
serving layer (runtime, serving, wal, gateway, cli) may depend on it,
and it depends only on metrics/utils.  Tracing is strictly opt-in and
never selects a code path: the serving engine stamps the same round
timeline (:mod:`repro.runtime.timeline`) on every round and, only with
a recorder attached, derives its spans from those stamps after the fact
— so scores and the code that runs are identical with tracing on or off.

Span catalog (see README "Observability" for the full table):

================== ======== ===========================================
span name          layer    meaning
================== ======== ===========================================
client.request     client   one GatewayClient ingest/scores round trip
gateway.request    gateway  server-side handling of one request
queue.wait         engine   admission-queue residency of one request
stage.score        engine   the (shard's) scoring that scored the request
stage.ingest       engine   the (shard's) ingest that applied the request
stage.durability   engine   the request's share of the round commit
engine.round       engine   one round, schedule → handoff (own trace)
engine.schedule    engine   policy selection under the engine lock
engine.score       engine   one wave's scoring (envelope over shards)
engine.ingest      engine   one wave's ingest (envelope over shards)
engine.durability  engine   handoff → the round's commit fsync
shard.score        worker   a shard's scoring inside ``serve_round``
shard.ingest       worker   a shard's ingest inside ``serve_round``
wal.fsync          wal      one group-commit fsync
================== ======== ===========================================
"""

from .trace import (
    ActiveSpan,
    Span,
    TraceContext,
    TraceRecorder,
    new_span_id,
    new_trace_id,
)
from .export import (
    chrome_trace,
    load_jsonl,
    span_dicts,
    write_chrome_trace,
    write_jsonl,
)
from .report import (
    REQUEST_STAGE_SPANS,
    check_trace,
    render_report,
    render_tree,
    slowest_traces,
    stage_summary,
    trace_groups,
)

__all__ = [
    "ActiveSpan",
    "Span",
    "TraceContext",
    "TraceRecorder",
    "new_span_id",
    "new_trace_id",
    "chrome_trace",
    "load_jsonl",
    "span_dicts",
    "write_chrome_trace",
    "write_jsonl",
    "REQUEST_STAGE_SPANS",
    "check_trace",
    "render_report",
    "render_tree",
    "slowest_traces",
    "stage_summary",
    "trace_groups",
]
