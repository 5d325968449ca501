(** Deterministic cycle-exact profiles: PC-sample accumulators, phase
    attribution, and counter tracks.

    This module is pure bookkeeping over strings and integers — the ISA
    sampler that feeds {!Pc} lives in [Ra_isa.Sampler], and the phase
    attribution that feeds {!Phases} lives in [Ra_core.Session]. Keeping
    the accumulators here means a fleet of per-shard profiles can be
    bulk-merged ([Arena]-style, in shard order) without the merge code
    knowing anything about devices.

    Everything is deterministic: samples are taken every N {e cycles}
    (never wall time), accumulators iterate in sorted key order, and
    [absorb] is a plain sum — so a merged fleet profile is byte-identical
    at every shard count. *)

(** {1 PC-sample accumulator} *)

module Pc : sig
  type t
  (** Folded call stacks -> (samples, cycles). Not domain-safe; use one
      per shard and merge with {!absorb}. *)

  val create : unit -> t

  val add : t -> frames:string list -> cycles:int64 -> unit
  (** Record one sample: [frames] is root-first (the folded-stack
      order); [cycles] is the whole-cycle weight attributed to it.
      Frames are sanitized on entry, since [';'] and [' '] are
      structural in the folded-stack format: [';'] becomes [','],
      [' '] becomes ['_'], control bytes become ['?'], and an empty
      frame becomes ["?"]. *)

  val absorb : t -> t -> unit
  (** [absorb dst src] adds every stack of [src] into [dst]. [src] is
      left untouched. Commutative up to the sorted export order, so
      merging per-shard accumulators in shard order is byte-identical
      to merging the same members in any sharding. *)

  val samples : t -> int
  val cycles : t -> int64

  val rows : t -> (string list * int64 * int) list
  (** [(frames, cycles, samples)] sorted by folded key — deterministic. *)

  val folded : t -> string
  (** flamegraph.pl-compatible folded stacks: one
      ["frame;frame;frame <cycles>"] line per stack, sorted. *)

  val cycles_matching : t -> f:(string -> bool) -> int64
  (** Total cycles of stacks whose {e leaf} frame satisfies [f] — used
      to compute the symbolized fraction of a profile. *)

  (** {2 Hot-path bump handles}

      [handle] resolves a stack to its accumulator cell once (frame
      sanitization, folded key, hash lookup), so a sampler that stays
      on the same stack can {!bump} per sample with two field writes.
      A handle that is never bumped stays invisible to {!rows},
      {!folded} and {!absorb}. *)

  type handle

  val handle : t -> frames:string list -> handle

  val bump : handle -> cycles:int -> unit
  (** [cycles] is a native [int] so the per-sample bump is two unboxed
      field writes — no [int64] allocation on the sampling hot path. *)
end

(** {1 Phase attribution} *)

type phase_sample = {
  ps_at : float;  (** simulated time (seconds) when the phase closed *)
  ps_trace_id : int option;  (** causal round trace id, when tracing is on *)
  ps_device : string;
  ps_phase : string;  (** "auth" | "freshness" | "mac" | "wait" | "radio" *)
  ps_cycles : int64;  (** prover CPU cycles attributed to the phase *)
  ps_nj : float;  (** energy attributed to the phase, nanojoules *)
}

module Phases : sig
  type t
  (** Per-phase running totals plus a bounded ring of recent samples
      (the ring is a {!Recorder}, so wraparound drops oldest-first and
      counts evictions). *)

  val record : t -> phase_sample -> unit
  val samples : t -> phase_sample list

  val length : t -> int
  (** Samples currently held in the ring, without materializing them. *)

  val dropped : t -> int

  val totals : t -> (string * (int64 * float * int)) list
  (** [phase -> (cycles, nanojoules, samples)], sorted by phase name. *)
end

(** {1 Counter tracks} *)

module Track : sig
  type t
  (** A named time series of [(sim_time, value)] points, for Perfetto
      counter tracks ([ph:"C"]). *)

  val create : string -> t
  val name : t -> string
  val push : t -> at:float -> float -> unit
  val points : t -> (float * float) list
  (** Chronological (stable-sorted by time, insertion order preserved
      among equal timestamps). *)

  val merge : name:string -> t list -> t
  (** Concatenate in list order, then stable-sort by timestamp — so
      per-shard tracks merged in shard order yield the same series at
      every shard count. *)
end

(** {1 Whole profile} *)

type t = { pc : Pc.t; phases : Phases.t }

val create : ?capacity:int -> unit -> t
val absorb : t -> t -> unit
val folded : t -> string
