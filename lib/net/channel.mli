(** A Dolev-Yao network: everything either party sends lands in the
    adversary's hands; nothing reaches a receiver unless someone calls
    {!deliver}. A benign network is the adversary that forwards promptly;
    the paper's `Adv_ext` drops, delays, reorders, replays (the full
    transcript stays available forever) and injects its own messages.

    On top of the adversary, an optional {!Impairment} model chaos-tests
    the {e benign} forwarding path ({!forward_next}): seeded loss,
    duplication, reordering, corruption and delay, with
    [ra_channel_impairments_total] counters per kind. With no impairment
    installed, behaviour is byte-identical to the unimpaired channel.

    ['msg] is the wire message type (defined in the attestation core). *)

type side = Verifier_side | Prover_side

type 'msg sent = { sent_at : float; src : side; payload : 'msg }

type 'msg t

val create : Simtime.t -> Trace.t -> 'msg t

(** {2 Endpoints}

    Receivers are attached as explicit handles. The newest attached
    handle on a side receives deliveries; detaching it restores the
    previously attached one (attachments nest like a stack), which fixes
    the old setter API's silent-replacement bug: installing a receiver no
    longer destroys the previous one with no way back. *)

module Endpoint : sig
  type 'msg handle

  val attach : 'msg t -> side -> ('msg -> unit) -> 'msg handle
  (** Attach a receiver; it shadows (does not destroy) any receiver
      already attached on that side. *)

  val detach : 'msg handle -> unit
  (** Detach; the most recently attached still-active receiver on that
      side (if any) resumes receiving. Idempotent.

      Re-entrancy contract: [attach] and [detach] may be called from
      inside a receive callback — on the running handle itself or on a
      sibling. The frame being delivered is affected only if the handle
      {e receiving it} detaches before the callback is invoked (it then
      falls through to the handler below); it is never delivered twice,
      and a handle attached mid-delivery sees only subsequent frames. *)

  val is_attached : 'msg handle -> bool
  val side : 'msg handle -> side
end

val send : 'msg t -> src:side -> 'msg -> unit
(** Put a message on the wire: recorded in the transcript, given to
    nobody. Delivery is a separate, adversary-controlled step. *)

val transcript : 'msg t -> 'msg sent list
(** Everything ever sent, in order — the eavesdropper's notebook. The
    transcript stays complete for the channel's whole life (fingerprints,
    capsules and replays hash all of it), so a frame is kept in columns
    at a known cost: its payload, an unboxed float for [sent_at] and one
    byte for [src], 17 B of slots besides the payload. The columns grow
    in blocks of 128 frames and are never copied once a block is full.
    The records of this list are built on each call, at 72 B a frame:
    read a window with {!fold_range} instead where a list is not
    needed. *)

val transcript_length : 'msg t -> int
(** Entries in the transcript, O(1). A [(transcript_length before,
    transcript_length after)] pair brackets a window of wire activity —
    the forensic capture layer records these to digest exactly one
    round's frames without copying the whole transcript. *)

val transcript_from : 'msg t -> pos:int -> 'msg sent list
(** The transcript suffix starting at entry [pos] (clamped to the valid
    range), in order — the window companion of {!transcript_length}. *)

val fold_range :
  'msg t -> lo:int -> hi:int -> ('a -> float -> side -> 'msg -> 'a) -> 'a -> 'a
(** [fold_range t ~lo ~hi f init] folds [f acc sent_at src payload] over
    the transcript entries [\[lo, hi)] (clamped to the valid range), in
    order, straight from the columns: no entry or list is built. *)

val undelivered : 'msg t -> 'msg sent list
(** Sent messages not yet delivered (nor explicitly dropped). *)

type origin =
  | Injected  (** a frame of the adversary's own making *)
  | Replayed  (** a frame recorded off the wire, genuine or not *)

val deliver : 'msg t -> origin:origin -> dst:side -> 'msg -> unit
(** Hand a message (genuine, replayed or forged) to a receiver. The
    caller says where it came from, and the delivery counts in
    [ra_channel_delivered_total] with [kind] ["injected"] or
    ["replayed"]: the channel keeps no index of what was sent. If the
    side has no receiver installed the message is lost: it counts in
    [ra_channel_lost_total] and leaves a [net.lost] causal instant. Never
    impaired: adversarial delivery is the adversary's own choice. *)

val forward_next : 'msg t -> dst:side -> bool
(** Convenience for benign runs: deliver the oldest undelivered message
    that was sent by the opposite side; [false] if none pending. When an
    impairment model is installed the delivery may be dropped, duplicated,
    reordered behind the next pending message, corrupted (via the mangle
    hook) or delayed (simulated time advances); [true] still means one
    pending message was consumed or re-queued. *)

val drop_next : 'msg t -> src:side -> bool
(** Discard the oldest undelivered message from [src]. *)

(** {2 Impairment} *)

val set_impairment :
  'msg t -> ?mangle:('msg -> salt:int -> 'msg) -> Impairment.t option -> unit
(** Install (or, with [None], remove) the impairment model consulted by
    {!forward_next}. [mangle] realizes the [Corrupt] action on the
    message representation; when omitted, corrupt decisions drop the
    message instead (the receiver cannot be handed a frame nobody can
    flip a byte of). *)

val mangle_string : string -> salt:int -> string
(** XOR one salt-chosen byte with a salt-derived non-zero mask — the
    [mangle] hook for [string]-framed channels. Empty strings pass
    through unchanged. *)
