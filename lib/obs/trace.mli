(** Request-scoped causal tracing for attestation rounds.

    A tracer mints one monotonically-increasing trace id per round and
    collects a tree of timed events (spans and instants) under it. Sealed
    rounds land in a bounded {!Recorder} ring — the per-device "flight
    recorder" — and can be exported via {!Export.perfetto}.

    Recording only {e reads} the supplied clock: it never advances
    simulated time and never draws randomness, so enabling tracing cannot
    change protocol transcripts (see DESIGN.md, "Causal tracing & SLOs").
    Trace ids are propagated out-of-band through in-process context and
    never appear in any wire message. *)

type kind = Span_event | Instant_event

type event = {
  ev_id : int; (* unique within the round; root span is id 0 *)
  ev_parent : int option; (* [None] only for the root span *)
  ev_name : string;
  ev_cat : string;
  ev_kind : kind;
  ev_start : float;
  ev_stop : float; (* = [ev_start] for instants *)
  ev_labels : Registry.labels;
}

type round = {
  rd_trace_id : int;
  rd_device : string;
  rd_start : float;
  rd_stop : float;
  rd_verdict : string;
  rd_attempts : int;
  rd_dropped : int; (* events discarded beyond [max_events] *)
  rd_events : event list; (* sorted by start time; root span first *)
}

type span
(** Handle for an open span; becomes inert once finished. *)

type t

val create :
  ?capacity:int -> ?max_events:int -> device:string -> clock:(unit -> float) ->
  unit -> t
(** [capacity] (default 64) bounds the sealed-round ring; [max_events]
    (default 4096, min 2) bounds events per round — beyond it events are
    dropped and counted in [rd_dropped]. [clock] is typically
    [Simtime.now] so event times share the protocol timeline. *)

val recorder : t -> round Recorder.t

val rounds : t -> round list
(** Sealed rounds still in the ring, oldest first. *)

val current_trace_id : t -> int option

val root_span_name : string
(** ["attest.round"] — the name of every round's root span (event id 0). *)

val begin_round : t -> int
(** Open a new round and its root span; returns the trace id. An
    already-open round is sealed first with verdict ["abandoned"]. *)

val span : t -> ?cat:string -> ?labels:Registry.labels -> string -> span
(** Open a child span under the innermost open span. A no-op handle is
    returned when no round is open or the event budget is exhausted. *)

val finish_span : t -> ?labels:Registry.labels -> span -> unit
(** Close [span]; extra [labels] are appended. Unknown or inert handles
    are ignored. *)

val with_span : t -> ?cat:string -> ?labels:Registry.labels -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; an escaping exception closes the span
    with label [outcome="raised"] and re-raises. *)

val instant : t -> ?cat:string -> ?labels:Registry.labels -> string -> unit
(** Record a point event under the innermost open span. No-op when no
    round is open. *)

val end_round : t -> verdict:string -> attempts:int -> unit
(** Seal the open round: closes any spans still open at the round's stop
    time, sorts events and pushes the round into the ring. No-op when no
    round is open. *)
