(** The one vocabulary every handler's outcome is expressed in.

    The prover's defence is one sequence — authenticate the request,
    check its freshness, run the costly body under the EA-MPU — and {!t}
    names every way it can end, plus the verifier's report check and a
    round that never resolved. The sequence's steps live in
    [Code_attest] ([protected], [authenticate], [key_blob]), and every
    prover handler runs them: [Code_attest], [Isa_anchor], [Service] and
    [Clock_sync]. They, [Verifier] and the retry engine all build a {!t}
    at the point of failure; none keeps an outcome type of its own.

    Depends on nothing above the obs layer, so every core module
    (including {!Freshness}, whose reject type is re-exported from here)
    can use it without cycles. *)

(** Why a freshness check failed. Every prover handler checks freshness
    through a [Freshness] state (the anchors' counter_R cell, the
    service's cell, the clock-sync counter's cell), and
    [Freshness.reject] is an equation for this type. *)
type freshness_reject =
  | Missing_field  (** request lacks the field the policy needs *)
  | Wrong_field  (** field of another policy's type *)
  | Replayed_nonce
  | Stale_counter of { got : int64; stored : int64 }
  | Stale_or_reordered_timestamp of { got : int64; last : int64 }
  | Delayed_timestamp of { got : int64; now : int64; window : int64 }
  | Future_timestamp of { got : int64; now : int64; window : int64 }

type t =
  | Trusted  (** report matches the reference state *)
  | Untrusted_state  (** authentic-looking response, wrong memory *)
  | Invalid_response  (** echo mismatch / malformed *)
  | Bad_auth  (** request/invocation authentication failed *)
  | Not_fresh of freshness_reject
  | Fault of { fault_addr : int; fault_code : string }
      (** the EA-MPU denied the handler an access *)
  | Timed_out of { attempts : int; waited_s : float }
      (** the round never resolved: every attempt's reply window expired *)

val accepted : t -> bool
(** [true] only for [Trusted]. *)

val label : t -> string
(** Stable lower-snake metric label: [trusted], else the
    {!Reason.label} of {!reason_of} ([untrusted_state],
    [invalid_response], [bad_auth], [not_fresh], [fault], [timed_out]). *)

(** {2 Rejection reasons}

    The payload-free projection of every way a request can be turned
    away, on {e either} side of the wire: the prover-side service rejects
    ([bad_auth], [not_fresh], [fault]) and the verifier-side server's
    admission/verification rejects ([rate_limited], [queue_full],
    [malformed], [untrusted_state], ...). Prover and verifier rejection
    breakdowns are both [(reason * int) list]s keyed by this one type, so
    the Prometheus [reason] label carries the same names in
    [ra_service_rejections_total] and [ra_server_rejections_total]. *)

module Reason : sig
  type t =
    | Untrusted_state
    | Invalid_response
    | Bad_auth
    | Not_fresh
    | Fault
    | Timed_out
    | Malformed  (** frame failed to parse at triage *)
    | Rate_limited  (** admission token bucket empty *)
    | Queue_full  (** triage queue at capacity (or evicted from it) *)
    | Bad_record
        (** secure-session record failed to open. Deliberately a single
            reason for {e every} decrypt-side failure (bad tag, bad
            length, inner parse) so rejection behavior leaks nothing
            about where the open failed — no padding-oracle shape. *)

  val all : t list
  (** Every reason, in a fixed order ({!index} order). *)

  val count : int
  val index : t -> int
  (** Dense index into [0 .. count-1]; stable within a build. *)

  val label : t -> string
  (** The lower-snake metric label ({!Verdict.label} is built on it). *)
end

type reason = Reason.t

val reason_of : t -> reason option
(** The reason a verdict rejects; [None] for [Trusted]. *)

(** Shared accumulator behind every [(reason * int) list] breakdown
    (service stats, server stats): one int cell per reason, O(1) adds. *)
module Tally : sig
  type t

  val create : unit -> t
  val add : t -> reason -> unit

  val to_list : t -> (reason * int) list
  (** Non-zero entries in {!Reason.all} order. *)
end

(** {2 Timed logs}

    The ledgers that keep every verdict with its time — a session's
    response verdicts, a secure session's in-session verdicts, a fleet
    member's sweep history — are logs of this one kind. Every entry stays
    (benchmarks count them, digests hash them, the fleet oracle compares
    them in full), so an entry is an unboxed float and one value slot and
    allocates nothing else. The two columns grow in blocks of 128
    entries, so no column is a large heap block or is copied once a
    block is full. *)
module Log : sig
  type 'a t

  val create : unit -> 'a t

  val add : 'a t -> float -> 'a -> unit
  (** [add t at v] appends [v] at time [at]. *)

  val length : 'a t -> int
  (** O(1). *)

  val last : 'a t -> 'a
  (** The newest value, O(1).
      @raise Invalid_argument on an empty log. *)

  val to_list : 'a t -> (float * 'a) list
  (** Every entry, chronological, built on each call. *)
end

val freshness_label : freshness_reject -> string
(** The label set {!Freshness} has always exported ([missing_field],
    [stale_counter], ...). *)

val pp : Format.formatter -> t -> unit
val pp_freshness_reject : Format.formatter -> freshness_reject -> unit

(** {2 Obs JSON sink}

    Int64 payloads are encoded as decimal strings (JSON numbers are
    doubles; counters are not). *)

val to_json : t -> Ra_obs.Json.t
val of_json : Ra_obs.Json.t -> t option
(** Total inverse of {!to_json}; [None] on anything else. *)
