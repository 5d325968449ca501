(** Failure forensics: replay capsules, root-cause triage, and SLO
    exemplar wiring.

    A {e replay capsule} is a self-contained record of one interesting
    chaos-sweep round — a round that ended non-trusted, or the slowest
    converged round of a chaos cell. It carries everything the fleet layer needs to re-execute exactly that
    round standalone ({!Fleet.replay_capsule}): the sweep seed, the full
    cell grid with its {!Retry.policy} values, the member's position (its
    impairment seed is the pure function [Impairment.derive_seed ~root
    ~index] of them), the workload, and the round's observed outcome —
    its {!Verdict.t}, sim-time window, and a SHA-1 digest of the wire
    frames the round produced, so a replay can be checked byte-identical,
    not just verdict-identical.

    Capsules live in a bounded {!Ra_obs.Recorder} ring next to the flight
    recorder and round-trip through JSON. Capture is out-of-band like
    tracing and profiling: it never touches wire or device state and
    draws no randomness, so transcripts are byte-identical with capture
    on or off.

    {e Triage} buckets captured failures by signature —
    verdict reason × impairment pattern × dominant profiler phase — and
    ranks the buckets into a diagnosis report (JSONL and human-readable).
    {!annotate_exemplars} completes the loop by stamping representative
    capsules into {!Ra_obs.Registry.Histogram} buckets, so an SLO breach
    on a latency histogram links directly to a replayable round. *)

(** {1 Capsules} *)

type workload = [ `Attest | `Session of int ]
(** What one chaos "round" executes: the one-shot retry round, or one
    secure-session lifecycle streaming [n] records (see
    {!Fleet.chaos_sweep}). *)

val workload_label : workload -> string
(** ["attest"] or ["session:<n>"] — the form capsule JSON carries. *)

val workload_of_label : string -> workload option
(** Total inverse of {!workload_label}. *)

type kind =
  | Failure  (** a chaos round that ended non-trusted *)
  | Slowest  (** the slowest converged round of a chaos cell *)

type capsule = {
  cap_kind : kind;
  cap_member : int;  (** member index in the sweep *)
  cap_name : string;  (** member/device name *)
  cap_sweep_seed : int64;  (** the [chaos_sweep ~seed] root *)
  cap_losses : float list;  (** the sweep's loss grid, outer axis *)
  cap_policies : (string * Retry.policy) list;  (** inner axis, in order *)
  cap_rounds_per_member : int;
  cap_cell : int;  (** 0-based cell index into losses × policies *)
  cap_loss : float;  (** this cell's loss rate *)
  cap_policy : string;  (** this cell's policy name *)
  cap_round : int;  (** 1-based round within the cell *)
  cap_workload : workload;
      (** what one "round" executed; replay re-runs the same workload *)
  cap_imp_seed : int64;
      (** the member's derived positional impairment seed for the cell —
          redundant with (seed, cell, member) and re-derived on replay as
          a tamper check *)
  cap_prior_sweeps : int;
      (** ledger entries the member had {e before} this sweep; replay
          from a fresh session is only sound when 0 *)
  cap_started_at : float;  (** member sim-time at round start *)
  cap_elapsed_s : float;
  cap_attempts : int;
  cap_verdict : Verdict.t;
  cap_trace_id : int option;  (** causal round id, when tracing was on *)
  cap_phase : string option;  (** dominant profiler phase, when profiled *)
  cap_wire_digest : string;
      (** hex SHA-1 over the frames the round appended to the wire
          transcript (timestamps, directions, lengths, payloads) *)
  cap_config : string;  (** fleet config digest — replay-target guard *)
}

val kind_label : kind -> string
(** ["failure"] / ["slowest"]. *)

(** {1 Capture ring} *)

type t
(** A bounded capsule ring (a {!Ra_obs.Recorder}); oldest capsules are evicted
    first. Not thread-safe — the fleet engines buffer per-shard and merge
    in member order, so the ring's contents are deterministic at every
    shard count. *)

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the ring (default 256). *)

val capture : t -> capsule -> unit
(** Push a capsule and count it in
    [ra_forensics_capsules_total{kind=...}]. *)

val capsules : t -> capsule list
(** Oldest first. *)

(** {1 JSON round-trip} *)

val capsule_to_json : capsule -> Ra_obs.Json.t
(** Seeds are encoded as decimal strings (64-bit values do not survive
    a float round-trip); the verdict is {!Verdict.to_json}'s object, with
    its label repeated as ["reason"]. *)

val capsule_of_json : Ra_obs.Json.t -> capsule option
(** [None] on a missing or ill-typed field, an unknown verdict or an
    unknown workload label; a capsule without a ["workload"] field (one
    captured before workloads existed) is an [`Attest] sweep. *)

val capsules_jsonl : capsule list -> string

(** {1 Triage} *)

val dominant_phase : Ra_obs.Profiler.phase_sample list -> trace_id:int -> string option
(** The phase with the most attributed cycles among the samples carrying
    [trace_id] (ties break to the lexicographically smallest phase);
    [None] when no sample matches. *)

type signature = {
  sig_reason : string;  (** {!Verdict.label} *)
  sig_impairment : string;  (** e.g. ["loss=20% policy=none"] *)
  sig_phase : string;  (** dominant phase, ["-"] when unprofiled *)
}

type diagnosis = {
  dg_signature : signature;
  dg_count : int;
  dg_share_pct : float;  (** of all triaged capsules *)
  dg_example : capsule;  (** first-captured representative *)
}

val triage : capsule list -> diagnosis list
(** Bucket the {!Failure} capsules ([Slowest] capsules are latency
    exemplars, not failures) by {!signature} — the verdict reason, the
    cell's loss and policy, and the dominant phase — and rank: highest
    count first, ties in signature order. Deterministic in the capsule
    list. *)

val diagnosis_jsonl : diagnosis list -> string
(** One JSON object per diagnosis row, rank order. *)

val render_diagnosis : diagnosis list -> string
(** Human-readable ranked table. *)

(** {1 SLO exemplar wiring} *)

val annotate_exemplars : histogram:Ra_obs.Registry.Histogram.t -> capsule list -> int
(** Stamp each capsule that carries a trace id into [histogram] as the
    exemplar of the bucket its round time (milliseconds) falls in —
    walked in capture order, so the annotation is deterministic and later
    capsules of a bucket win. The exemplar timestamp is the round's
    sim-time completion ({!Ra_obs.Registry.exemplar} documents the two-timebase
    rule). Returns the number of capsules stamped. *)
