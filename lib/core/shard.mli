(** Shard partitioning and the parallel shard runner.

    A shard is a contiguous slice of the member index range — shard [s]
    of [S] owns [\[s*n/S, (s+1)*n/S)]. Contiguity makes the merge
    trivial and deterministic: per-member outputs land at the member's
    own index (disjoint ranges), so reading results back in index order
    reproduces the sequential oracle's order with no cross-shard
    ordering decision left to make; everything else (metrics arenas,
    aggregate accumulators) is merged by the coordinator in shard order.
    The partition depends only on [(members, shards)], never on which
    domain runs which shard. *)

type range = { sh_lo : int; sh_hi : int }
(** Half-open member-index interval [\[sh_lo, sh_hi)]. *)

val partition : members:int -> shards:int -> range array
(** Balanced contiguous split: sizes differ by at most one, every index
    covered exactly once, [shards] entries (possibly empty ranges when
    [shards > members]).
    @raise Invalid_argument on [members < 0] or [shards < 1]. *)

val size : range -> int

val percentile : float array -> float -> float
(** [percentile sorted p], [p] in [0..1]: the nearest-rank percentile of
    an already-sorted sample (typically the shards' merged outputs);
    [0.0] when empty. *)

val run : ?pool:Pool.t -> shards:int -> (int -> unit) -> unit
(** [run ~shards f] executes [f s] for every shard id [s] in
    [0 .. shards-1] on the calling domain plus pool helpers (default
    {!Pool.shared}); returns when all shards completed, re-raising the
    first exception. Shard ids are distributed dynamically — shard
    bodies must touch only their own member range and their own arena.
    [shards = 1] degrades to a plain call on the caller.
    @raise Invalid_argument on [shards < 1]. *)
