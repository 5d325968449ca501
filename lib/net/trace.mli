(** A protocol run's observability context: the simulated-time span
    context and the optional causal tracer that the channel and the
    session handlers share. It keeps no event list of its own — the
    metrics registry and the causal tracer are the only records of a
    run. *)

type t

val create : Simtime.t -> t

val contains_substring : needle:string -> string -> bool
(** Allocation-free substring search (exposed for property tests). *)

(** {2 Spans}

    Each trace owns a {!Ra_obs.Span} context clocked by its
    {!Simtime.t} and made by {!Ra_obs.Span.create}: every finished span
    is a [ra_span_ms{span="<name>"}] observation in the process-wide
    metrics registry, and the context keeps no finished list. *)

val spans : t -> Ra_obs.Span.t
val with_span : t -> ?labels:Ra_obs.Registry.labels -> string -> (unit -> 'a) -> 'a

(** {2 Causal tracing}

    An optional {!Ra_obs.Trace} flight recorder rides on the trace as
    the out-of-band causal context: the channel and the session handlers
    all reach the same [Trace.t], so per-round trace ids propagate
    through the whole protocol path without ever appearing in a wire
    message. With no tracer attached (the default) the [causal_*]
    helpers are a single option match. *)

val set_tracer : t -> Ra_obs.Trace.t option -> unit
val tracer : t -> Ra_obs.Trace.t option

val causal_instant :
  t -> ?labels:Ra_obs.Registry.labels -> cat:string -> string -> unit
(** Point event under the tracer's innermost open span; no-op when no
    tracer is attached or no round is open. *)

val causal_span :
  t -> ?labels:Ra_obs.Registry.labels -> cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a causal child span (plain call when tracing is
    off). *)
