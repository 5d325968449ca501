(** The shard engine: partitioning, one event timeline per shard, and
    the deterministic merge. {!Fleet}'s sweeps and {!Server.Load.run}
    both run their members through {!run}.

    A shard is a contiguous slice of the member index range — shard [s]
    of [S] owns [\[s*n/S, (s+1)*n/S)]. Contiguity makes the merge
    trivial and deterministic: per-member outputs land at the member's
    own index (disjoint ranges), so reading results back in index order
    reproduces the sequential oracle's order with no cross-shard
    ordering decision left to make; everything else (metrics arenas,
    per-shard values) is merged by the coordinator in shard order.
    The partition depends only on [(members, shards)], never on which
    domain runs which shard. *)

val run :
  who:string ->
  ?tracks:Ra_obs.Profiler.Track.t array ->
  shards:int ->
  members:int ->
  (shard:int -> Ra_obs.Arena.t -> Sched.t -> lo:int -> hi:int -> 'a) ->
  'a array
(** [run ~who ~shards ~members body] splits [\[0, members)] into [shards]
    balanced contiguous ranges (sizes differ by at most one; empty
    ranges when [shards > members]) and runs every shard on the calling
    domain plus {!Pool.shared} helpers. Shard [s] gets a fresh
    {!Ra_obs.Arena.t} and a {!Sched.t} that reports into it (and, with
    [tracks], records its queue depth into [tracks.(s)]); [body ~shard:s
    arena sched ~lo ~hi] schedules the shard's range [\[lo, hi)], then
    the scheduler runs until its queue is empty. Once every shard has
    completed, the arenas flush into the registry in shard order and the
    bodies' results come back in shard order; the first exception a
    shard raised is re-raised. Shard ids are handed out dynamically, so
    a body must touch only its own member range and its own arena.
    @raise Invalid_argument (prefixed with [who]) on [shards < 1] or
    [tracks] of a length other than [shards]. *)

val percentile : float array -> float -> float
(** [percentile sorted p], [p] in [0..1]: the nearest-rank percentile of
    an already-sorted sample (typically the shards' merged outputs);
    [0.0] when empty. *)
