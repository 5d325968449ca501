(** Prover-side freshness policies (§4.2) and their state.

    - {b Nonce history}: remember every nonce ever accepted. Detects
      replay only, and the history consumes non-volatile memory without
      bound — both §4.2 objections are observable here ([history_bytes],
      and bounded histories evict, re-enabling replay of evicted nonces).
    - {b Counter}: accept a counter iff it lies in the forward
      half-window of the stored value under serial-number arithmetic
      (RFC 1982): the wrapped difference [got - stored] must be a
      positive signed [Int64]. This keeps acceptance well-defined at the
      2^64 wraparound — a cell parked at all-ones (Adv_roam rollforward,
      or 2^64 honest rounds) does not brick the prover, while post-wrap
      replays of pre-wrap counters land in the backward half-window and
      stay rejected. 8 bytes of non-volatile state ([counter_R]),
      read/written through the MPU so the roaming adversary's rollback
      is mediated.
    - {b Timestamp}: accept timestamps newer than the last accepted one
      and within a window of the prover's clock; requires a real-time
      clock, detects replay, reorder *and* delay.

    The 8-byte non-volatile cell at [Device.counter_addr] stores the
    counter, or the last-accepted timestamp under the timestamp policy. *)

type policy =
  | No_freshness
  | Nonce_history of { max_entries : int option } (* None = unbounded *)
  | Counter
  | Timestamp of { window_ms : int64 }

(** Re-export of {!Verdict.freshness_reject}: the same value flows
    unchanged into a [Not_fresh] verdict, so the two types are one. *)
type reject = Verdict.freshness_reject =
  | Missing_field (* request lacks the field the policy needs *)
  | Wrong_field (* field of another policy's type *)
  | Replayed_nonce
  | Stale_counter of { got : int64; stored : int64 }
  | Stale_or_reordered_timestamp of { got : int64; last : int64 }
  | Delayed_timestamp of { got : int64; now : int64; window : int64 }
  | Future_timestamp of { got : int64; now : int64; window : int64 }

type state

val init :
  ?cell_addr:int -> ?now_ms_fn:(unit -> int64) -> Ra_mcu.Device.t -> policy -> state
(** [cell_addr] overrides where the 8-byte freshness cell lives (several
    services can coexist, each with its own cell — see [Service] and
    [Clock_sync]);
    [now_ms_fn] overrides the prover's time source ([Ablation] supplies
    the prover's time directly, to isolate the window decision from
    clock drift).
    @raise Invalid_argument for a timestamp policy on a clock-less device
    when no [now_ms_fn] is given. *)

val policy : state -> policy

val counter_newer : stored:int64 -> int64 -> bool
(** [counter_newer ~stored c] is the counter policy's order: [c] lies in
    the forward half-window of [stored] (RFC 1982). The prover accepts
    by it, and {!Server} sheds by it before any crypto. *)

val check_and_update : state -> Message.freshness_field -> (unit, reject) result
(** Evaluate a request's freshness field and, on acceptance, persist the
    new state (counter / last timestamp / nonce history). Must be called
    in the trust anchor's execution context: counter writes go through
    the EA-MPU. *)

val history_bytes : state -> int
(** Non-volatile bytes the nonce history currently occupies (0 for the
    other policies beyond their fixed 8-byte cell). *)

val history_length : state -> int

val current_cell : state -> int64
(** Read the 8-byte freshness cell (stored counter / last accepted
    timestamp) through the MPU — test hook for monotonicity checks. *)

val pp_reject : Format.formatter -> reject -> unit
