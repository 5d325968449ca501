(** Span-based tracing over an arbitrary clock.

    A span context owns a clock (e.g. [Ra_net.Simtime.now] for wall-clock
    spans, or a device's [Cpu.elapsed_seconds] for prover-work spans) and
    a stack of open spans (children nest under the innermost open span).
    Each context has exactly one sink for finished spans, chosen by its
    constructor: a {!create} context observes each span's duration in a
    registry histogram [ra_span_ms{span="<name>"}], so percentile queries
    and the Prometheus exposition see every span family, and keeps no
    list; a {!no_registry} context keeps the finished list that
    {!finished} and [Export.spans_jsonl] read.

    A context is {e not} domain-safe — give each session/world its own,
    as [Ra_net.Trace] does. The registry histogram it reports into is
    atomic, so many contexts on many domains may share one registry. *)

type t
(** A span context. *)

type span
(** An open span (returned by {!enter}, consumed by {!exit}). *)

type finished = {
  f_name : string;
  f_labels : Registry.labels;
  f_id : int;
  f_parent : int option; (* id of the enclosing span, if any *)
  f_parent_name : string option;
  f_depth : int; (* 0 for root spans *)
  f_start : float; (* clock units (seconds on Simtime/Cpu clocks) *)
  f_stop : float;
}

val create :
  ?registry:Registry.t ->
  ?histogram:string ->
  clock:(unit -> float) ->
  unit ->
  t
(** A context that records each finished span only as an observation
    of [histogram] in [registry] (and hands it to the {!on_finish}
    hook): its {!finished} stays [[]], so a long-lived session pays no
    heap per span. [histogram] defaults to ["ra_span_ms"]; [registry]
    defaults to {!Registry.default}. An exit finds its histogram handle
    in a per-domain cache, so it takes the registry's lock only the
    first time a domain closes a span of that name. *)

val no_registry : clock:(unit -> float) -> unit -> t
(** A context that keeps every finished span in its {!finished} list and
    reports into no registry — for measurements that read their spans
    back. *)

val enter : t -> ?labels:Registry.labels -> string -> span

val start : span -> float
(** The clock reading at which the span was entered. *)

val exit : t -> ?labels:Registry.labels -> span -> unit
(** Close a span; [labels] are appended to the ones given at {!enter}
    (e.g. an outcome decided late). Closing a span that is not the
    innermost open one simply removes it from the open set. *)

val with_span : t -> ?labels:Registry.labels -> string -> (unit -> 'a) -> 'a
(** Enter/exit around [f]; on exception the span is closed with
    [outcome="raised"] and the exception re-raised. *)

val finished : t -> finished list
(** Completion order (chronological) for a {!no_registry} context; always
    [[]] for a {!create} context. *)

val open_count : t -> int
(** Number of still-open spans — 0 when enter/exit calls balance. *)

val duration_ms : finished -> float
(** [(f_stop - f_start) * 1000.] — simulated milliseconds under the
    Simtime and Cpu clocks used in this repository. *)

val on_finish : t -> (finished -> unit) -> unit
(** Install a callback run at every span exit, whichever constructor made
    the context. It is handed the finished span even when the context
    keeps no list ([Ra_core.Session] mirrors the anchor's and the
    service's CPU-clocked spans into the causal trace and the profiler
    this way). Replaces any previous. *)
