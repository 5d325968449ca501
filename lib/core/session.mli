(** Wiring of one verifier and one prover over a Dolev-Yao channel, with
    simulated time kept consistent: every prover handler — attestation,
    clock sync, the service layer and {!Secure_session}'s responder —
    runs as one {!prover_step}, so while it burns cycles the shared wall
    clock advances by the same amount, and timestamps, delays and
    battery drain all line up.

    The channel delivers nothing by itself — call {!attest_round} for a
    benign exchange (the "adversary" forwards promptly) or drive the
    channel by hand / through {!Adversary} for attacks. *)

type t

val create :
  ?spec:Architecture.spec ->
  ?sym_key:string ->
  ?ram_seed:int64 ->
  ?ram_size:int ->
  unit ->
  t
(** Build a fresh world: simulated time at 0, booted prover (default
    {!Architecture.trustlite_base}) with its RAM filled from [ram_seed]
    (default 42, as in {!Architecture.build}), verifier provisioned with
    the matching key blob and the prover's actual memory image as
    reference. When that image is the pristine RAM fill, the reference
    is the RAM-fill memo's own string ({!Ra_mcu.Device.pristine_ram}),
    so the worlds of a fleet share one copy of it.

    {!Service} and {!Clock_sync} are installed after secure boot has
    locked the EA-MPU, so the protection rule each module exports is
    never programmed: of the NVRAM cells, only the attestation counter
    (offset +0) is protected. App code can write the clock-sync cells
    (+8, +16) and the service's freshness cell (+24), and after
    rewinding the service cell, a recorded [Secure_erase] request
    replays and runs again. *)

val time : t -> Ra_net.Simtime.t
val trace : t -> Ra_net.Trace.t
val channel : t -> string Ra_net.Channel.t
(** The wire carries serialized frames ({!Message.wire_to_bytes}); both
    endpoints parse with the total {!Message.wire_of_bytes} and drop
    malformed frames (paying the radio cost). *)

val verifier : t -> Verifier.t
val anchor : t -> Code_attest.t
val device : t -> Ra_mcu.Device.t
val service : t -> Service.t
val sym_key : t -> string

val verdicts : t -> (float * Verdict.t) list
(** Every response verdict the verifier reached, with its time,
    chronological order. The session keeps them all in a
    {!Verdict.Log} (16 B an entry); the list is built on each call. *)

val send_request : t -> Message.attreq
(** Verifier builds and sends a request (lands on the wire only). Its
    challenge stays outstanding until a matching response arrives or,
    for a request sent by a round, the round finishes. *)

val deliver_to_prover : t -> origin:Ra_net.Channel.origin -> Message.attreq -> unit
(** Push a request into the prover; the trust anchor runs, time and
    energy advance, any response goes onto the wire. [origin] labels the
    delivery, as in {!Ra_net.Channel.deliver}: [Replayed] for a request
    recorded off the wire, [Injected] for one the adversary made. *)

val deliver_frame_to_prover : t -> origin:Ra_net.Channel.origin -> string -> unit
(** Deliver raw bytes — replayed recordings, fuzz, garbage. *)

val deliver_next_to_prover : t -> bool
(** Forward the oldest undelivered verifier→prover message. *)

val deliver_next_to_verifier : t -> bool

val attest_round : t -> Verdict.t option
(** One benign end-to-end round; [None] if the prover sent no response
    (rejected request). *)

val set_impairment : t -> Ra_net.Impairment.t option -> unit
(** Install (or clear) a seeded impairment model on the session's
    channel; frames corrupt via {!Ra_net.Channel.mangle_string}. *)

type round = {
  r_verdict : Verdict.t;
  r_attempts : int;  (** transmissions used, ≥ 1 *)
  r_elapsed_s : float;  (** simulated seconds from first send to verdict *)
}

type step =
  | Round_done of round
  | Round_wait of { wait_s : float; resume : unit -> step }
      (** The round needs [wait_s] simulated seconds to pass (a reply
          window idling out). [resume] advances the session's time by
          exactly [wait_s] itself — via {!advance_time}, so the device
          idles and drains battery — and continues the machine; the
          caller only decides {e when} to call it. *)

(** {2 The retry round machine}

    Every retried exchange over the session's wire — the one-shot round
    below and each phase of {!Secure_session.round_begin} — runs on this
    one machine. *)
module Machine : sig
  type session := t
  type t
  (** One open round. *)

  val start :
    policy:Retry.policy ->
    prng:Ra_crypto.Prng.t ->
    root:string ->
    count:(Verdict.t -> unit) ->
    session ->
    t
  (** Open a round: validate [policy], mark the round in flight (idle
      cycles until {!finish} are the profiler's [wait] phase), begin a
      causal-trace round and enter the [root] span. [prng] draws the
      reply-window jitter; [count] sees the final verdict.
      @raise Invalid_argument on an invalid policy. *)

  val phase :
    t ->
    phase:string ->
    send:(unit -> unit) ->
    done_:(unit -> bool) ->
    give_up:(int -> step) ->
    next:(int -> step) ->
    step
  (** One retried exchange. Attempt [n] calls [send], which must put a
      {e fresh} flight on the wire (never a byte-identical
      retransmission), pumps the wire until [done_ ()] or quiet, then
      yields [Round_wait] for the rest of the jittered reply window and
      retransmits with a grown window. Continues with [next n] once
      [done_ ()] holds, or [give_up n] when the policy's attempts run out.
      Attempts and waits become [retry.attempt] / [retry.backoff] causal
      spans labelled with [phase]. *)

  val pump : t -> (unit -> bool) -> unit
  (** Forward both directions until the predicate holds or the wire goes
      quiet (step-capped): one best-effort flight, no reply window. *)

  val elapsed : t -> float
  (** Simulated seconds since {!start}. *)

  val finish : t -> attempts:int -> Verdict.t -> step
  (** Close the round: clear the in-flight mark, count the verdict, seal
      the causal-trace round, exit the root span, yield [Round_done]. *)

  val verdict_counter : string -> Verdict.t -> unit
  (** [verdict_counter name] precreates the [name{verdict}] counter
      family and returns its per-round increment — a [count] for
      {!start}. *)
end

val round_begin : ?policy:Retry.policy -> t -> step
(** Start one attestation round: a single {!Machine.phase} whose flight
    is {!send_request}. Driving every wait immediately is exactly
    {!attest_round_r}; the fleet's event engine instead enqueues each
    [resume] at [now + wait_s], interleaving thousands of sessions on one
    timeline, with the identical operation sequence per session.

    The challenges of every attempt retire when the round finishes,
    whatever its verdict: a response to one of them that arrives later is
    ignored like a response to any unknown challenge, and an attempt whose
    response was lost leaves nothing behind in the session. *)

val drive_round : step -> round
(** Resume every wait immediately until the round completes — the
    sequential reference driver. *)

val attest_round_r : ?policy:Retry.policy -> t -> round
(** One attestation round under the retry engine: send, pump the
    (possibly impaired) wire until it goes quiet, idle out whatever
    remains of the jittered reply window, retransmit with an
    exponentially grown window —
    until a verdict lands or the policy's attempts run out, which yields
    [Timed_out]. Every attempt is a {e fresh} request (new challenge,
    advanced freshness field), so retransmissions never weaken replay
    protection and the prover's freshness cell stays monotone. With no
    impairment installed this is byte-for-byte the classic benign round,
    resolved on attempt 1. *)

val sync_round : t -> bool
(** One authenticated clock-synchronization exchange (future-work
    item 2) over the same channel; [true] when the verifier receives a
    valid acknowledgement. Always [false] on clock-less provers. *)

val service_round : t -> Service.command -> bool
(** One authenticated service invocation (future-work item 3) over the
    channel: secure erase, code update or ping; [true] once the verifier
    receives an acknowledgement that {!Service.check_ack} accepts for
    this round's request (a forged ack, or one recorded from an earlier
    round, does not count). The service layer uses its own freshness
    cell with a counter policy and the session's symmetric key. *)

val prover_wall_ms : t -> int64
(** The prover's offset-corrected wall-clock (0 without a clock). *)

(** {2 Causal tracing}

    When enabled, every {!attest_round_r} call mints a trace id and
    records one {!Ra_obs.Trace.round}: retry attempts and backoff waits
    as child spans, channel tx/impairment events as instants, the
    prover's anchor work and the verifier's check as child spans of the
    delivery that caused them, and the final verdict — all under the
    round's single trace id. The id is carried in process (through the
    session's {!Ra_net.Trace.t}), never in a wire message; recording
    only reads the simulated clock, so transcripts are byte-identical
    with tracing on or off. *)

val enable_tracing :
  ?capacity:int -> ?max_events:int -> ?device:string -> t -> Ra_obs.Trace.t
(** Attach a flight recorder ([capacity] sealed rounds, default 64) to
    the session and mirror the prover-side CPU sub-step spans
    (anchor/service auth, freshness, MAC) into it as instants carrying a
    [cpu_ms] label. [device] (default ["prover"]) names the Perfetto
    process. *)

val disable_tracing : t -> unit
(** Detach the tracer; already-sealed rounds stay readable via the
    returned tracer. *)

val tracing : t -> Ra_obs.Trace.t option

(** {2 Cycle/energy phase profiling}

    When enabled, every anchor sub-step span closing attributes its
    exact CPU cycle count (and the battery model's energy for those
    cycles) to a phase — [auth], [freshness], [mac] — and idle cycles
    spent inside a retry round become the [wait] phase (sleep-power
    energy); received/sent prover frames add [radio] energy samples.
    Samples carry the current causal trace id when tracing is also
    enabled, so spans and profiles cross-link. Attribution is
    out-of-band (one option match when off) and never touches device or
    wire state: transcripts are byte-identical with profiling on or
    off, and profiles are deterministic under seed. *)

val enable_profiling : ?capacity:int -> ?device:string -> t -> Ra_obs.Profiler.t
(** Attach a fresh profile to the session ([capacity] bounds its
    phase-sample ring, default 1024). [device] (default ["prover"])
    tags the samples. Replaces any previous profile. *)

val profiling : t -> Ra_obs.Profiler.t option

val prover_radio : t -> bytes:int -> unit
(** Charge the prover's battery for [bytes] of radio traffic and, when
    profiling is on, record the matching [radio] sample. Every radio
    charge of the prover goes through this: on each received frame, and
    through {!prover_send} on each sent one. *)

val prover_send : t -> Message.wire -> unit
(** Charge the radio for the frame's bytes and send it prover→verifier. *)

val prover_step :
  t ->
  cat:string ->
  ok:string ->
  ?reply:('a -> Message.wire) ->
  string ->
  (unit -> ('a, Verdict.t) result) ->
  ('a, Verdict.t) result
(** [prover_step t ~cat ~ok name handle] runs one prover handler inside a
    causal span (category [cat]) and a registry span, both named [name]:
    [handle] runs on the device CPU, {!time} advances by the cycles it
    consumed, and then the registry span closes with label [result] —
    [ok] or the verdict's label — so its duration is the handler's
    simulated work. With [reply], the step then records a
    [prover.result] instant and, on [Ok], sends the reply through
    {!prover_send}, both inside the causal span; without it the caller
    answers after the span has closed. *)

val advance_time : t -> seconds:float -> unit
(** Let wall-clock time pass for everyone: the network clock and the
    prover's sleeping device. *)
