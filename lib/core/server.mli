(** The verifier-as-a-service: an open-loop attestation-report sink.

    The paper studies the {e prover's} side of the DoS asymmetry — §4.1
    authenticates requests so bogus traffic cannot trigger the 754 ms
    MAC sweep. At production scale the same asymmetry appears on the
    verifier: a fleet of 100k devices streams reports at the server,
    and an [Adv_ext] flood of forged reports tries to drown the
    authentic ones. This module is that server:

    - {b Admission first} ({!Admission}): per-device token buckets and
      a two-class triage queue turn the flood away before any crypto,
      so drops under attack are attributed to [rate_limited] /
      [queue_full] — never to verification starvation ([timed_out]).
    - {b Batched verification}: queued reports are drained in batches
      of up to [sc_batch]; one precomputed HMAC key context (the
      ipad/opad midstates, held by the {!Verifier}) serves the whole batch,
      so per-report cost drops by the two pad compressions an
      unbatched server pays per report ({!Batch} exposes both paths;
      the bench gates the ratio).
    - {b Event-driven}: the server lives on a {!Sched} timeline.
      Verification occupies the single server for a simulated duration
      proportional to the SHA-1 blocks it hashes ([sc_block_s] per
      64-byte block), so queueing, latency percentiles and deadlines
      are all properties of the discrete-event schedule — deterministic
      and shardable ({!Load.run} [~engine:(`Shards k)]).

    Rejections on this side of the wire use the same {!Verdict.reason}
    vocabulary (and Prometheus [reason] label values) as the
    prover-side {!Service} stats. A report that waits in the queue past
    [sc_deadline_s] is counted as [timed_out] in {!stats} and, with
    [~record_outcomes:true], kept as an {!outcome}; the server keeps no
    other record of it. *)

type config = {
  sc_verifier : Verifier.Config.t;  (** the only way to configure the verifier *)
  sc_admission : Admission.config;
  sc_batch : int;  (** max reports drained per verification batch, >= 1 *)
  sc_linger_s : float;
      (** max simulated wait for a batch to fill before a partial drain *)
  sc_block_s : float;
      (** simulated verification time per SHA-1 block hashed, > 0 *)
  sc_deadline_s : float;
      (** a report still queued this long after arrival is dropped as
          [Timed_out] — without running its crypto *)
}

val default_config : Verifier.Config.t -> config
(** Batch 64, linger 50 ms, 1 µs/block, 2 s deadline, default admission. *)

type request = {
  rq_device : string option;
      (** claimed device identity; [None] = anonymous. Claims are only
          trusted as far as admission class — the report MAC is what
          authenticates. *)
  rq_tag : int;  (** caller correlation tag (e.g. per-source sequence) *)
  rq_frame : string;  (** serialized {!Message.wire} bytes *)
}

type outcome = {
  oc_device : string option;
  oc_tag : int;
  oc_arrived : float;
  oc_done : float;
  oc_result : (unit, Verdict.reason) result;  (** [Ok ()] = trusted *)
}

type t

val create :
  ?record_outcomes:bool ->
  sched:Sched.t ->
  config ->
  (t, string) result
(** Validation errors (bad verifier config, batch < 1, non-positive
    block time, ...) come back as [Error] — construction is
    {!Verifier.of_config} all the way down. With [record_outcomes]
    (default false) every request's {!outcome} is kept for {!outcomes}.
    On a 64-bit host that is a 48 B record, a 16 B box per distinct time
    (a report turned away on arrival has one, and a batch shares its
    completion time) and one pointer in a 1,024-entry chunk of the log;
    rejections for one reason share one [Error] value, and the first
    recorded outcome allocates the first chunk. Without it a request
    leaves nothing behind. *)

val register_device : t -> string -> unit
(** Known-class admission (private token bucket) + a freshness slot for
    the device's report counter. *)

val submit : t -> request -> unit
(** One report arriving now ([Sched.now]). Triage parses the frame
    ([malformed] rejects immediately), a stale report counter rejects
    as [not_fresh] before any crypto, admission classifies and
    rate-limits, and an admitted report waits for a batch drain. *)

val flush : t -> unit
(** Force one batch drain now, regardless of linger. *)

type stats = {
  sv_requests : int;
  sv_admitted : int;
  sv_trusted : int;
  sv_breakdown : (Verdict.reason * int) list;
      (** every rejection, admission and verification alike, in
          {!Verdict.Reason.all} order — same shape as
          [Service.stats.breakdown] *)
  sv_batches : int;
  sv_batched_reports : int;
  sv_max_queue : int;
  sv_latencies_ms : float list;
      (** arrival→verdict service latency per verified report,
          completion order *)
}

val stats : t -> stats

val outcomes : t -> outcome list
(** Chronological; empty unless created with [~record_outcomes:true].
    The first call builds the list from the log's chunks (one list cell,
    24 B, per outcome) and lets go of the chunks; later calls return the
    same list, extended by any outcome recorded since. *)

val publish : ?registry:Ra_obs.Registry.t -> t -> unit
(** Push the server's totals into the metric registry:
    [ra_server_requests_total], [ra_server_rejections_total{reason}],
    [ra_server_verdicts_total{verdict}], the [ra_server_latency_ms]
    histogram and the [ra_server_queue_depth_max] gauge. Call once per
    server after a run (counters are monotone; publishing twice
    double-counts). *)

(** The two verification paths the throughput gate compares. *)
module Batch : sig
  val verify_one :
    sym_key:string -> reference_image:string -> Message.attresp -> Verdict.t
  (** The unbatched baseline: derives the HMAC key context (ipad/opad
      midstates) per call, as a server checking each report in
      isolation would. Pure — no metrics, no freshness. *)

  val verify : Verifier.t -> Message.attresp array -> Verdict.t array
  (** {!Verifier.check_reports}: one key context for the whole batch. *)

  val key_blocks : int
  (** Extra blocks for a per-report key-context derivation (= 2: the
      ipad and opad compressions the midstate cache amortizes away). *)
end

(** Open-loop load generation over {!Arrival} processes. *)
module Load : sig
  type traffic = {
    tr_devices : int;  (** registered (known-class) report sources *)
    tr_rate : float;  (** per-device reports per second *)
    tr_process : [ `Poisson | `Bursty ];
        (** inter-arrival law per device ({!Ra_net.Arrival}) *)
    tr_horizon_s : float;  (** generate arrivals in [\[0, horizon)] *)
    tr_seed : int64;
        (** root seed; every source draws from
            [Impairment.derive_seed ~root ~index], so its stream is
            independent of sharding *)
    tr_flood_sources : int;  (** [Adv_ext] forged-report streams *)
    tr_flood_rate : float;  (** forged reports per second per source *)
    tr_impairment : Ra_net.Impairment.profile option;
        (** optional wire impairment on the way in: drops thin the load,
            delays shift arrivals, duplicates become replays (stale
            counter), corruptions turn authentic reports untrusted *)
  }

  val default_traffic : traffic
  (** 64 devices at 0.5 rps each, Poisson, 30 s horizon, seed 7, no
      flood, pristine wire. *)

  type report = {
    rp_devices : int;
    rp_shards : int;
    rp_requests : int;
    rp_trusted : int;
    rp_breakdown : (Verdict.reason * int) list;
    rp_goodput_rps : float;  (** trusted verdicts per simulated second *)
    rp_p50_ms : float;  (** service latency percentiles over verified reports *)
    rp_p99_ms : float;
    rp_max_queue : int;  (** deepest triage backlog on any one server *)
    rp_batches : int;
    rp_avg_batch : float;  (** mean reports per verification drain *)
  }

  val run :
    ?engine:[ `Shards of int ] ->
    ?record_outcomes:bool ->
    config ->
    traffic ->
    report * outcome list
  (** Drive the traffic through server instance(s) on a discrete-event
      timeline. [`Shards k] (default [`Shards 1]) partitions the sources
      over [k] independent server instances run on {!Pool.shared}:
      positional seeds make each source's arrival stream identical under
      any shard count (and, as long as triage never saturates, each
      device's admission/verdict sequence too); the merged report sums
      tallies and pools latency samples in shard order, and each shard's
      totals are published into the default metric registry. Outcomes
      are empty unless [record_outcomes]: one list, each shard's
      outcomes in chronological order and the shards in shard order,
      built once from the shard servers' logs (about 88 B per outcome on
      a 64-bit host).
      @raise Invalid_argument on an invalid [config] or [shards < 1]. *)

  val slo_watch :
    ?max_p99_ms:float -> ?min_goodput_rps:float -> report -> Ra_obs.Slo.check list
  (** Judge [server_p99_latency] (default limit 250 ms) and
      [server_goodput] (default 0 — always compliant unless a floor is
      given) against the run. *)

  val render : report -> string
end
