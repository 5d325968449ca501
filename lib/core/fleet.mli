(** Fleet management — the paper's future-work item 1 ("trial-deploy
    proposed methods in the context of connected devices, such as
    Internet of Things").

    One verifier operates many provers: periodic sweeps, a per-device
    health ledger derived from attestation verdicts, and staggered sweep
    scheduling so a large fleet does not synchronize its 754 ms
    attestation bursts (which would turn the *verifier's own schedule*
    into the §3.1 availability problem).

    Every sweep — plain, chaos and streaming — runs on the one shard
    engine, {!Shard.run}, which {!Server.Load.run} uses too: one event
    timeline and one metrics arena per shard, arenas flushed in shard
    order. *)

type health =
  | Healthy (* latest sweep: trusted *)
  | Compromised (* latest sweep: untrusted state / invalid response *)
  | Unresponsive (* latest sweep produced no response *)
  | Unknown (* never swept *)

type member

val member_name : member -> string
val member_session : member -> Session.t
val member_health : member -> health
val sweeps_of : member -> int
(** Entries in the member's ledger, O(1). *)

val member_history : member -> (float * Verdict.t option) list
(** Every sweep's (simulated completion time, verdict), chronological.
    The ledger keeps every entry in a {!Verdict.Log}, at 16 B an entry:
    a chaos round's verdict is [None] or one of three [Some] constants
    that every entry shares. The list is built on each call. *)

type t

val create : ?spec:Architecture.spec -> ?ram_size:int -> names:string list -> unit -> t
(** One independent prover world per name (default spec:
    {!Architecture.trustlite_base}).
    @raise Invalid_argument on duplicate or empty names. *)

val members : t -> member list

val find : t -> string -> member
(** @raise Not_found *)

val advance : t -> seconds:float -> unit
(** Let time pass everywhere. *)

val sweep :
  ?engine:[ `Shards of int ] ->
  ?tracks:Ra_obs.Profiler.Track.t array ->
  t ->
  (string * Verdict.t option) list
(** Attest every device, staggered by {!stagger_seconds} of simulated
    time between consecutive devices: member [i]'s round happens at
    [(i+1) *. stagger_seconds] past the sweep start, and every member
    exits the sweep with its clock advanced by the whole fleet's stagger
    plus its own round work. Offsets are index-based (one multiplication
    per member), so the sweep is O(n) and member clocks carry no
    accumulated rounding drift at 10k+ members.

    The fleet engine: [`Shards k] (default [`Shards 1]) partitions the
    members into [k] contiguous ranges ({!Shard.run}) and runs each
    range as events on its own {!Sched} timeline, on the persistent
    domain pool, with its own buffered metrics arena. The merge is
    deterministic — results are read back in member order and the arenas
    flush in shard order — so verdicts, ledgers, clocks, transcripts and
    metric totals are identical at {e every} shard count. With [tracks]
    (one track per shard) each shard's scheduler records its
    [(sim_time, depth)] queue-depth series — merge them with
    {!Ra_obs.Profiler.Track.merge} into a deterministic
    [ra_sched_queue_depth] Perfetto counter track.
    @raise Invalid_argument on [`Shards k] with [k < 1], or when
    [tracks] has a different length than [k]. *)

val stagger_seconds : float
(** 1 s between consecutive devices in a sweep. *)

(** {2 Chaos sweeps}

    A chaos sweep runs the retry engine against a deliberately impaired
    wire, over a grid of loss rates × backoff policies, and reports how
    often — and how fast — rounds still converge. This is the §3.1
    availability question asked from the network side: the paper hardens
    the prover against bogus requests; the chaos sweep measures what the
    *benign* protocol machinery must tolerate. *)

type chaos_cell = {
  c_loss : float;  (** per-direction i.i.d. loss probability *)
  c_policy : string;  (** policy name as given to {!chaos_sweep} *)
  c_rounds : int;  (** members × rounds_per_member *)
  c_converged : int;  (** rounds that produced a verdict *)
  c_mean_attempts : float;  (** transmissions per round, averaged *)
  c_p50_s : float;
      (** convergence-time percentiles (simulated s), over converged
          rounds only; 0 when nothing converged *)
  c_p90_s : float;
  c_p99_s : float;
}

type workload = Forensics.workload
(** What one chaos "round" executes. [`Attest] is the classic one-shot
    retry round ({!Session.round_begin}); [`Session n] is one full
    secure-session lifecycle — attested handshake, [n] streamed
    encrypt-then-MAC attestation records, best-effort close
    ({!Secure_session.round_begin}). Both produce a {!Session.round},
    so accumulators, ledgers and capsules are workload-agnostic. *)

val classify_verdict : Verdict.t -> health
(** Unified-verdict analogue of the sweep classifier: [Trusted] is
    healthy; wrong state, invalid responses and anchor faults are
    compromised; timeouts and rejected requests are unresponsive. *)

val chaos_sweep :
  ?seed:int64 ->
  ?rounds_per_member:int ->
  ?engine:[ `Shards of int ] ->
  ?workload:workload ->
  losses:float list ->
  policies:(string * Retry.policy) list ->
  t ->
  chaos_cell list
(** For every (loss, policy) cell: give each member its own
    deterministically-seeded impairment, run [rounds_per_member]
    rounds of [workload] (default [`Attest]) per member with the usual
    1 s stagger, then restore a pristine wire. Updates each member's health ledger from
    its last round, feeds [ra_chaos_rounds_total{result}] and
    [ra_chaos_round_time_ms], and remembers the grid for
    {!health_snapshot}.

    Seeding is positional: each cell draws one root from [seed], and
    member [i]'s impairment seed is
    [Impairment.derive_seed ~root ~index:i] — a pure function of the
    pair, so the wire schedule member [i] experiences is identical at
    every shard count.

    Runs on the fleet engine (see {!sweep}): every retry timeout and
    backoff wait of a member's round becomes an event on its shard's
    timeline, and each member executes the identical operation sequence
    whatever else shares that timeline, so the grid, ledgers,
    transcripts, member clocks and metric totals are identical at every
    [`Shards k] (default [`Shards 1]).
    @raise Invalid_argument before any round runs on an empty grid, an
    invalid policy, a loss outside [\[0, 1\]], or [`Shards k] with
    [k < 1]. *)

val last_chaos : t -> chaos_cell list
(** The grid from the most recent {!chaos_sweep} (empty before any). *)

val convergence_pct : chaos_cell -> float
(** [100 * converged / rounds]. *)

(** {2 Failure forensics}

    With forensics enabled, every chaos sweep records {e replay
    capsules} (see {!Forensics}) into a bounded ring next to the
    flight recorder: one [Failure] capsule per round that ends
    non-[Trusted], plus one [Slowest] capsule per cell — the slowest
    converged round, the latency-SLO exemplar. Capture is out-of-band:
    it only reads member-local state, so verdicts, transcripts, ledgers
    and clocks are byte-identical with capture on or off, and the
    capsule stream itself is identical at every shard count (candidates
    are member-local; the coordinator merges them in member-index order
    after each cell). *)

val enable_forensics : ?capacity:int -> t -> Forensics.t
(** Attach a capsule ring ([capacity] capsules, default 256) if none is
    attached yet; returns the ring (idempotent). *)

val capsules : t -> Forensics.capsule list
(** Captured capsules, oldest first; empty when forensics is off. *)

type replay = {
  rp_verdict : Verdict.t;
  rp_attempts : int;
  rp_elapsed_s : float;
  rp_started_at : float;  (** member clock at round start *)
  rp_digest : string;  (** wire digest of the re-executed round *)
  rp_match : bool;
      (** verdict, attempts, elapsed time, start clock {e and} wire
          digest all byte-identical to the capture *)
  rp_round : Ra_obs.Trace.round option;  (** the round's causal trace *)
  rp_profile : Ra_obs.Profiler.t option;  (** its cycle/energy profile *)
}

val replay_capsule : t -> Forensics.capsule -> (replay, string) result
(** Re-execute exactly the captured round in a fresh session, with
    tracing and profiling forced on (both are out-of-band, so forcing
    them cannot perturb the outcome). The capsule pins the sweep seed,
    grid and member position; the member's full pre-capture history
    (prior cells, earlier rounds of the captured cell) is fast-forwarded
    first so every PRNG draw lines up, then the captured round runs and
    is compared byte-for-byte. The fast-forward runs the sweep's own
    member round driver, so replay cannot drift from capture. [Error]
    explains why a capsule cannot be replayed against this fleet (config
    mismatch, pre-sweep member history, out-of-range indices, a loss or
    retry policy no sweep accepts, or an impairment seed that does not
    re-derive — a tampered capsule). *)

val annotate_exemplars : t -> int
(** Stamp the captured capsules into [ra_chaos_round_time_ms] as bucket
    exemplars ({!Forensics.annotate_exemplars}); returns how many
    carried a trace id and were stamped. Requires tracing to have been
    on during the sweep for non-zero effect. *)

(** {2 Streaming sweeps}

    A materialised member world keeps its session and the memory pages
    its device wrote (every other page is shared, see {!Ra_mcu.Memory});
    the [member_resident_bytes] row of [BENCH_hotpath.json] records its
    host heap at 1 KiB of RAM, after create and after one chaos round,
    and a million-member {!t} holds a million of them. The
    streaming sweep keeps {e one} live session per shard at a time:
    create member [i]'s world, run it through exactly the staggered
    slot {!sweep} runs, on the same engine, fold the outcome into per-shard tallies and
    an order-independent fingerprint, drop the world. Peak memory is
    O(shards), independent of the fleet size. *)

type stream_report = {
  st_members : int;
  st_shards : int;
  st_healthy : int;
  st_compromised : int;
  st_unresponsive : int;
  st_fingerprint : string;
      (** XOR of per-member SHA-1 digests over (name, verdict, final
          member clock, full wire transcript), hex-encoded. XOR makes it
          invariant under any partition of the member range — the
          checkable analogue of the materialised engines' byte-identity:
          equal across shard counts, and equal to {!fingerprint} of a
          materialised fleet that ran the same sweep. *)
}

val stream_sweep :
  ?spec:Architecture.spec ->
  ?ram_size:int ->
  ?shards:int ->
  members:int ->
  unit ->
  stream_report
(** Sweep a fleet of [members] freshly-created devices without ever
    materialising it, on [shards] engine shards (default 1); each
    member's slot is an event that schedules the next, so a shard's
    queue holds one member at a time. Member [i] is named [dev-%07d].
    The report is a pure function of [(spec, ram_size, members)]:
    tallies merge by sums and fingerprints by XOR, both
    order-independent, so shard count and domain schedule are
    unobservable.
    @raise Invalid_argument on [members < 1] or [shards < 1]. *)

val fingerprint : t -> string
(** The XOR-of-digests fingerprint of a materialised fleet's current
    state (each member's latest ledger verdict, clock and transcript) —
    comparable against {!stream_report.st_fingerprint} when both ran
    the same sweep over the same specs and names. *)

(** {2 Causal tracing}

    With tracing enabled every member session carries a flight recorder
    (see {!Session.enable_tracing}); each retry-engine round — including
    every chaos round — is recorded as one {!Ra_obs.Trace.round} under
    its own trace id, exportable with {!Ra_obs.Export.perfetto}. *)

val enable_tracing : ?capacity:int -> ?max_events:int -> t -> unit
(** Enable per-member flight recorders; the member name becomes the
    Perfetto process name. *)

val recent_rounds : t -> Ra_obs.Trace.round list
(** Sealed rounds still held in the members' rings, member order then
    oldest first. Empty when tracing was never enabled. *)

(** {2 Cycle/energy profiling}

    With profiling enabled every member session attributes its exact
    per-round cycle and energy spend to phases (see
    {!Session.enable_profiling}); {!profile} merges the per-member
    profiles into one fleet-wide profile. *)

val enable_profiling : ?capacity:int -> t -> unit
(** Attach a fresh profile to every member; the member name tags its
    phase samples (and becomes the Perfetto process name). *)

val profile : t -> Ra_obs.Profiler.t
(** Merge the members' profiles, absorbed in member-index order into one
    accumulator that never evicts. Since every sweep engine leaves the
    same per-member profiles, the result is byte-identical at every
    shard count of the sweep that produced them. *)

(** {2 SLO watchdog}

    Typed objectives evaluated over the most recent chaos grid and the
    members' sweep ledgers, emitting [ra_slo_*] metrics (see
    {!Ra_obs.Slo}). *)

type slo_policy = {
  slo_min_convergence_pct : float;
      (** per chaos cell, [At_least] ({!default_slo_policy}: 99%) *)
  slo_max_p99_s : float;
      (** per chaos cell with ≥ 1 converged round, [At_most] (60 s) *)
  slo_max_rejection_pct : float;
      (** fleet-wide share of ledger entries that are not [Trusted] —
          rejections {e and} unanswered sweeps, [At_most] (1%) *)
}

val default_slo_policy : slo_policy

val slo_watch : ?policy:slo_policy -> t -> Ra_obs.Slo.check list
(** Evaluate the objectives now: two checks per chaos cell (latency
    skipped for cells where nothing converged) plus the fleet rejection
    rate (skipped while the ledgers are empty — an empty sweep yields no
    checks rather than vacuous passes). *)

val summary : t -> (string * health * int) list
(** (name, current health, sweeps performed) for every member. *)

val compromised : t -> string list
(** Names currently flagged. *)

val pp_health : Format.formatter -> health -> unit

val health_label : health -> string
(** Lower-case metric label (["healthy"], ["compromised"], ...). *)

(** {2 Health snapshot (observability export)}

    Sweep latencies are recorded per sweep into the
    [ra_fleet_sweep_latency_ms] histogram (simulated milliseconds from
    request send to verdict, including any DoS-induced queueing). *)

type member_report = {
  r_name : string;
  r_health : health;
  r_sweeps : int;
  r_history : (float * Verdict.t option) list; (* chronological *)
  r_service_stats : Service.stats; (* rejection breakdown by reason *)
  r_anchor_stats : Code_attest.stats;
}

type snapshot = {
  s_members : member_report list;
  s_healthy : int;
  s_compromised : int;
  s_unresponsive : int;
  s_unknown : int;
  s_sweep_latency_p50_ms : float;
  s_sweep_latency_p90_ms : float;
  s_sweep_latency_p99_ms : float;
  s_chaos : chaos_cell list; (* last chaos grid, empty before any sweep *)
  s_slo : Ra_obs.Slo.check list; (* = slo_watch with the default policy *)
}

val health_snapshot : ?registry:Ra_obs.Registry.t -> t -> snapshot
(** Build the fleet health snapshot and mirror it into gauges:
    [ra_fleet_members{health=...}] plus every member's device meters via
    {!Ra_mcu.Device.observe_gauges} with a [device="<name>"] label. *)

val render_health : snapshot -> string
(** Human-readable health table (used by [ra_cli stats]). *)
