(** Attested secure sessions over the impaired channel: an encrypted,
    replay-windowed record layer whose keys exist only because a fresh
    attestation succeeded.

    The one-shot protocol ({!Session.attest_round_r}) answers "is the
    prover healthy {e now}?" — every round pays the full
    request-authentication + freshness + report cost. A secure session
    amortizes that: one handshake carries a regular authenticated
    attestation request, binds the resulting report to the handshake
    transcript hash with a MAC under K_attest, and derives per-direction
    channel keys (HKDF with labeled info strings, the transcript hash as
    salt) — after which attestation rounds stream as encrypt-then-MAC
    records that cost symmetric crypto only.

    {b Two timebases, one rule.} Handshake freshness rides the anchor's
    monotone cell (counter/timestamp — {e cross}-session replay dies
    there); record freshness rides a per-session RFC 6479 sliding window
    over the last 128 sequence numbers ({e in}-session replay dies
    there, while legitimate frames survive the channel's duplication and
    reordering). Neither mechanism ever consults the other's clock.

    Everything here runs over the session's existing Dolev-Yao channel,
    and every retried phase runs on {!Session.Machine} — the one-shot
    round's own retry machine. *)

(** RFC 6479-style sliding anti-replay window: a block-based bitmap over
    the last [bits] sequence numbers below the highest accepted one.
    {!check} is non-mutating — the record layer consults it on the public
    sequence number {e before} verifying the MAC, and only {!accept}s
    (marks) after the tag holds, so forged frames never advance or poison
    the window. *)
module Window : sig
  type t
  type result = Fresh | Replayed | Stale

  val create : ?bits:int -> unit -> t
  (** [bits] (default 128) must be a positive multiple of 32.
      @raise Invalid_argument otherwise. *)

  val capacity : t -> int
  (** Usable window width in sequence numbers (= [bits]). *)

  val max_seq : t -> int64
  (** Highest sequence number accepted so far; [0L] before the first. *)

  val check : t -> int64 -> result
  (** Classify without mutating. Sequence numbers start at 1; [0] and
      anything [capacity] or more below {!max_seq} are [Stale]. *)

  val accept : t -> int64 -> result
  (** {!check}, and on [Fresh] slide the window forward (zeroing the
      blocks it moves over) and mark the number as seen. *)
end

(** {2 Endpoints}

    The responder rides the session's prover (trust anchor, modeled CPU,
    radio energy); the initiator rides its verifier. Both attach handles
    on top of the plain protocol handlers and detach at teardown. *)

type responder
type initiator

(** Per-endpoint event counts, all monotone. [s_bad_record] is the single
    uniform decrypt-side reject — tampered tag, tampered ciphertext and
    garbled inner frames are indistinguishable in every observable
    (counter, trace line, silence on the wire). *)
type stats = {
  mutable s_established : int;
  mutable s_hs_rejected : int;
  mutable s_refused : int;
  mutable s_accepted : int;
  mutable s_bad_record : int;
  mutable s_replayed : int;
  mutable s_stale : int;
}

val listen : Session.t -> responder
(** Attach the prover-side responder. On [Hs_init] it runs the embedded
    request through the full one-shot anchor path (auth + strict
    freshness — a replayed handshake dies in the anchor's freshness
    cell), answers with report + transcript-bind MAC, and derives its
    channel keys. Valid records are answered via
    {!Code_attest.handle_channel_request}; a [Close] record is acked
    and the handle detaches from inside its own receive callback. *)

val connect : Session.t -> initiator
(** Attach the verifier-side initiator (sends nothing yet — see
    {!handshake_send}). On [Hs_resp] it verifies the transcript-bind MAC,
    then the attestation report: [Trusted] establishes the session (keys
    derived, [Hs_fin] sent); [Untrusted_state] refuses it outright
    (retrying cannot change the prover's memory); anything else is
    dropped as a stale retry artifact. *)

val handshake_send : initiator -> unit
(** (Re)start the handshake with a fresh [Hs_init] — fresh challenge,
    advanced freshness field, fresh nonce. Safe to call again as a
    retransmission; each flight is a new request, never a byte replay. *)

val request_round : initiator -> bool
(** Seal and send one in-session attestation request record; [false]
    unless the session is established. Each call is a fresh challenge
    and a fresh (never reused) record sequence number. *)

val close_begin : initiator -> bool
(** Send the close record; [false] unless established. The responder
    acks and detaches; the ack flips {!close_acked}. *)

val established : initiator -> bool
val closed : initiator -> bool
val close_acked : initiator -> bool
val verdict_count : initiator -> int

val session_verdicts : initiator -> (float * Verdict.t) list
(** Every in-session round verdict with its time, chronological. The
    initiator keeps them all in a {!Verdict.Log} (16 B an entry), and
    {!verdict_count} reads its count in O(1); the list is built on each
    call. *)

val initiator_stats : initiator -> stats
val responder_stats : responder -> stats

val confirmed : responder -> bool
(** [Hs_fin] verified — or any valid record arrived (implicit key
    confirmation, so a lost [Hs_fin] never wedges the session). *)

val responder_session_up : responder -> bool

(** {2 The session round machine}

    One "round" = one full session lifecycle: a handshake phase, then
    one phase per streamed attestation record (each a fresh sealed
    request), each a {!Session.Machine.phase} retried under the
    {!Retry} policy, then a best-effort close. Its reply-window jitter
    comes from a fixed per-round PRNG, not the session's. *)

val round_begin : ?policy:Retry.policy -> ?records:int -> Session.t -> Session.step
(** Start the machine ([records] defaults to 4). The verdict is
    [Trusted] when the handshake established and every streamed round
    verified; a refused handshake or a non-trusted in-session verdict
    decides the round immediately; exhausted reply windows yield
    [Timed_out]. [r_attempts] counts {e transmissions} across all
    phases. *)

val run : ?policy:Retry.policy -> ?records:int -> Session.t -> Session.round
(** {!round_begin} driven synchronously ({!Session.drive_round}). *)
