(** Typed metrics registry: monotonic counters, gauges and fixed-bucket
    histograms keyed by [(name, labels)].

    Registration ([get]) takes a mutex; the returned handle updates with
    plain atomics, so hot paths on separate domains (e.g. fleet shards)
    can record without races or locks. Handles
    survive {!reset}, which zeroes values in place — instrument sites can
    therefore create their handles once at module initialisation. *)

type t
(** A registry. Metric families are typed: re-registering a name with a
    different metric kind raises [Invalid_argument]. *)

val create : unit -> t

val default : t
(** The process-wide registry every built-in instrumentation site uses. *)

val reset : t -> unit
(** Zero every metric in place (handles stay valid). Test helper. *)

(** {2 Cardinality cap}

    Each metric family (name) holds at most {!series_limit} label
    combinations — unbounded label values (e.g. per-device names during
    large fleet sweeps) cannot grow the registry without bound. Past the
    cap, [get] still returns a live handle, but the series is not stored
    or exported and [ra_obs_dropped_series_total{metric="<name>"}] is
    incremented instead. *)

val default_max_series : int
(** 1024. *)

val series_limit : t -> int

val set_series_limit : t -> int -> unit
(** @raise Invalid_argument when [limit < 1]. *)

val series_count : t -> string -> int
(** Registered (non-dropped) series for a metric family. *)

val dropped_series_name : string
(** ["ra_obs_dropped_series_total"] — itself exempt from the cap. *)

type labels = (string * string) list
(** Label pairs; order is irrelevant (canonicalised by key). *)

type registry := t
(** Local alias so submodule signatures can refer to the registry while
    shadowing [t] with their own handle type. *)

module Counter : sig
  type t

  val get : ?registry:registry -> ?labels:labels -> string -> t
  (** Register (or fetch) the counter [(name, labels)]. *)

  val inc : ?by:int -> t -> unit
  (** @raise Invalid_argument on a negative increment (monotonic). *)

  val value : t -> int
end

module Gauge : sig
  type t

  val get : ?registry:registry -> ?labels:labels -> string -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

type exemplar = {
  ex_value : float;  (** the observation the exemplar stands for *)
  ex_trace_id : string;  (** causal trace reference, e.g. ["dev-3/17"] *)
  ex_at : float;
      (** {e simulated} seconds — the two-timebase rule: exemplar
          timestamps always carry sim-time, never CPU-cycle time, so
          they line up with the Perfetto timeline the trace id points
          into. *)
}

module Histogram : sig
  type t

  val get :
    ?registry:registry -> ?labels:labels -> ?buckets:float array -> string -> t
  (** [buckets] must be strictly increasing; it is fixed by the first
      registration of the family instance and ignored afterwards. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) list
  (** Per-bucket (upper bound, count); the final overflow bucket has
      bound [infinity]. *)

  val bounds : t -> float array
  (** The upper bounds the family was registered with (a copy). *)

  val absorb : t -> counts:int array -> sum:float -> unit
  (** Bulk-merge a locally accumulated bucket vector: [counts] must have
      [length (bounds h) + 1] entries (the last is the overflow bucket).
      Equivalent to the corresponding sequence of {!observe} calls, in
      one atomic add per non-empty bucket — the flush half of
      {!Ra_obs.Arena.Histogram}.
      @raise Invalid_argument on a length mismatch or negative count. *)

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0..100]: the upper bound of the
      bucket holding the p-th percentile observation; [nan] when empty,
      [infinity] when it falls in the overflow bucket. *)

  (** {2 Exemplars}

      Prometheus/OpenMetrics-style exemplars: each bucket can carry one
      representative observation with a trace reference, linking the
      latency distribution back to a concrete causal round. Exemplars
      are {e annotation}, set out-of-band by the forensics layer — never
      written by {!observe} or {!absorb} — so they perturb neither the
      hot path nor the deterministic Arena merge, and a histogram with
      no exemplars exports byte-identically to one that predates them.
      {!Ra_obs.Registry.reset} clears them. *)

  val set_exemplar : t -> value:float -> trace_id:string -> at:float -> unit
  (** Attach an exemplar to the bucket [value] falls in (overwriting any
      previous exemplar of that bucket). [at] is simulated seconds — see
      {!type:exemplar} for the two-timebase rule. *)

  val exemplars : t -> (float * exemplar) list
  (** [(bucket upper bound, exemplar)] for every bucket that has one, in
      bound order; the overflow bucket reports bound [infinity]. *)
end

(** {2 Snapshots (for exporters)} *)

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of {
      hs_sum : float;
      hs_count : int;
      hs_buckets : (float * int) list; (* per-bucket, not cumulative *)
      hs_exemplars : (float * exemplar) list; (* only buckets that have one *)
    }

val snapshot : t -> (string * labels * sample) list
(** Consistent point-in-time view, sorted by name then labels. *)
