(** Deterministic discrete-event scheduler: one shared virtual timeline
    for an entire fleet.

    Events live in a binary min-heap keyed on [(time, seq)] where [seq]
    is insertion order — ties fire in the order they were scheduled, so
    a run is a pure function of the schedule, never of hash order or
    wall-clock. {!step} pops the earliest event, jumps the shared clock
    to it and runs it; events scheduled into the past are clamped to
    [now] (the timeline is monotone by construction).

    The heap holds only unboxed keys: three parallel arrays indexed by
    heap position give each event's fire time ([float array]), sequence
    number and slot ([int array]s). The thunks sit in a separate table
    indexed by slot, which the sifts never touch, and the free slots
    form a free list. So a sift moves only floats and ints, scheduling
    or firing allocates no event record and no boxed time, and the heap
    stores a pointer only twice per event: the thunk into its slot when
    it is scheduled, and a no-op over it when it fires. A fired thunk is
    thus released at once, so nothing it captured stays reachable from
    the scheduler.

    The intended shape (the fleet engine runs one scheduler per shard —
    see {!Fleet.sweep}): each session keeps its private
    {!Ra_net.Simtime.t} and runs its round machine
    ({!Session.round_begin}) inside events; every [Round_wait] becomes a
    new event at [member_now + wait_s]. Member clocks run {e ahead} of
    the shared timeline by the un-scheduled work their events performed
    (anchor cycles, pump deliveries); [ra_sched_lag_seconds] measures
    that lead when {!observe_lag} is called at fire time.

    Metrics: [ra_sched_events_total{kind=scheduled|fired}],
    [ra_sched_queue_depth] (gauge: the depth after the latest {!at} or
    {!step}, so after a push or after a pop, whichever came last),
    [ra_sched_lag_seconds] (histogram, seconds). *)

type t

type metrics
(** A metrics sink: where the scheduler reports scheduled/fired counts,
    queue depth and member lag. *)

val arena_metrics : Ra_obs.Arena.t -> metrics
(** A sink buffering into [arena] with no atomics: the per-event hot
    path touches only domain-local memory, and the same metric families
    receive one bulk merge when the arena is flushed. One scheduler per
    arena sink; flush after the owning domain quiesces. *)

val create :
  ?start:float ->
  ?metrics:metrics ->
  ?track:Ra_obs.Profiler.Track.t ->
  unit ->
  t
(** Empty queue with the shared clock at [start] (default 0), reporting
    into [metrics] (default: the shared registry's atomic handles
    [ra_sched_events_total], [ra_sched_queue_depth] and
    [ra_sched_lag_seconds]). With [track], every
    schedule/fire also appends a [(sim_time, depth)] point to it —
    the raw series behind a Perfetto [ra_sched_queue_depth] counter
    track; per-shard tracks merge deterministically via
    {!Ra_obs.Profiler.Track.merge}. *)

val now : t -> float
(** The shared virtual clock: the time of the most recently fired event. *)

val at : t -> at:float -> (unit -> unit) -> unit
(** Schedule a thunk at an absolute time, clamped to [now] if in the
    past. O(log n). *)

val after : t -> delay:float -> (unit -> unit) -> unit
(** [at t ~at:(now t +. delay)].
    @raise Invalid_argument on a negative delay. *)

val next_at : t -> float option
(** Fire time of the earliest pending event. *)

val pending : t -> int
(** Events currently queued. *)

val fired : t -> int
(** Events fired over the scheduler's lifetime. *)

val step : t -> bool
(** Fire the earliest event (advancing [now] to it); [false] when the
    queue is empty. Events the thunk schedules are eligible
    immediately. *)

val run : ?until:float -> t -> int
(** Fire events in order until the queue is empty, or — with [until] —
    until the earliest pending event lies strictly beyond the horizon.
    Returns the number of events fired. [Retry.max_total_s] bounds how
    far past its scheduling time a round can still have events, giving a
    natural horizon for partial runs. *)

val observe_lag : t -> member_now:float -> unit
(** Record [member_now - now t] (clamped at 0) into
    [ra_sched_lag_seconds] — how far a member's private clock leads the
    shared timeline. *)
