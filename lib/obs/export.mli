(** Sinks: Prometheus text exposition for metrics, JSONL export for
    spans with the line-oriented parser that reads it back, and
    Chrome/Perfetto trace-event JSON for causal rounds. *)

val render_prometheus : Registry.t -> string
(** Prometheus text exposition format, version 0.0.4: one [# TYPE] line
    per metric family, histograms expanded into cumulative
    [_bucket{le="..."}] series plus [_sum] and [_count]. Families are
    sorted by name, series by label set, so output is deterministic.
    Buckets carrying an {!Registry.exemplar} get the OpenMetrics suffix
    [# {trace_id="..."} value timestamp]; exemplar-free output is
    byte-identical to the pre-exemplar exposition. *)

val spans_jsonl : Span.t -> string
(** One JSON object per finished span, chronological:
    [{"span": name, "id", "parent" (or null), "depth",
      "start_s", "stop_s", "duration_ms", "labels": {...}}]. *)

val parse_jsonl : string -> (Json.t list, string) result
(** Parse a JSONL document (blank lines skipped); the first bad line
    aborts with its line number in the error. *)

(** {2 Causal rounds (flight recorder)} *)

val perfetto :
  ?counters:Profiler.Track.t list ->
  ?phases:Profiler.phase_sample list ->
  Trace.round list ->
  Json.t
(** Chrome/Perfetto trace-event JSON ([chrome://tracing] /
    [ui.perfetto.dev] loadable). Each device becomes a process (pid in
    first-appearance order, with a [process_name] metadata event), each
    round a track (tid = trace id). Spans are complete events
    ([ph:"X"], microsecond [ts]/[dur]); instants are [ph:"i"]. Every
    event's [args] carries [trace_id], [id], [parent] and the event's
    labels, so causal links survive viewer re-sorting.

    [counters] render as [ph:"C"] counter tracks under a dedicated
    pid 0 "counters" process (e.g. [ra_sched_queue_depth] over sim
    time). [phases] render as instants on their device's process with
    tid = the phase's trace id (0 when untraced), cross-linking
    profiler phase attribution to the causal round spans. *)

val perfetto_string :
  ?counters:Profiler.Track.t list ->
  ?phases:Profiler.phase_sample list ->
  Trace.round list ->
  string
