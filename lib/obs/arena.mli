(** Single-domain metrics arena: buffered counters/gauges/histograms
    with no synchronization, bulk-merged into a {!Registry} on demand.

    Registry handles are already safe across domains, but every
    observation is an atomic RMW on a shared cache line. On a sharded
    hot loop (one event per member per round, thousands of members per
    shard on several domains) that cross-domain traffic is measurable —
    it is one of the two costs that made spawn-per-sweep parallelism
    slower than one domain. An arena gives each shard plain mutable
    accumulators; after the shards quiesce, the coordinator calls
    {!flush} on each arena {e in shard order}, so the merged registry
    state is deterministic and independent of which domain ran which
    shard.

    Ownership contract: between flushes an arena (and every instrument
    made from it) is used by exactly one domain; {!flush} runs on the
    coordinating domain after joining the owner. Flushing resets the
    local state, so arenas are reusable across runs. *)

type t

val create : unit -> t

val flush : t -> unit
(** Fold every instrument's buffered values into its registry target and
    reset the local accumulators (registration order; gauges keep
    last-write-wins in that order). *)

type arena := t

module Counter : sig
  type t

  val make : arena -> Registry.Counter.t -> t
  (** A local accumulator that {!flush} adds onto the registry counter. *)

  val inc : ?by:int -> t -> unit
end

module Gauge : sig
  type t

  val make : arena -> Registry.Gauge.t -> t
  val set : t -> float -> unit
  (** Last value wins; {!flush} writes it through only if [set] ran
      since the previous flush. *)
end

module Histogram : sig
  type t

  val make : arena -> Registry.Histogram.t -> t
  (** Local bucket vector with the target's bounds. *)

  val observe : t -> float -> unit
end
