(** Seeded network-impairment model: the chaos the paper's deployment
    reality implies but the Dolev-Yao {!Channel} alone does not exercise.
    Adversarial delivery ({!Channel.deliver}) stays untouched — this
    module impairs only the {e benign} forwarding path
    ({!Channel.forward_next}), so a protocol stack can be measured
    against loss, duplication, reordering, corruption and delay without
    giving the adversary any new powers.

    Every decision is drawn from a SplitMix64 stream derived from the
    creation seed, one independent stream per direction, so a schedule is
    fully deterministic and replayable: the same seed and the same
    sequence of {!decide} calls produce the same actions. *)

type loss_model =
  | Iid of float  (** independent loss with the given probability *)
  | Gilbert_elliott of {
      p_good_to_bad : float;  (** transition probability Good -> Bad *)
      p_bad_to_good : float;  (** transition probability Bad -> Good *)
      loss_good : float;  (** loss probability while in Good *)
      loss_bad : float;  (** loss probability while in Bad (burst) *)
    }
      (** Two-state Markov burst-loss channel: long stretches of
          near-perfect delivery punctuated by loss bursts, with the same
          long-run loss rate an [Iid] model would smear uniformly. *)

type profile = {
  loss : loss_model;
  duplicate : float;  (** probability a delivery happens twice *)
  reorder : float;  (** probability a message is overtaken by the next *)
  corrupt : float;  (** probability of a flipped byte in the frame *)
  delay : float;  (** probability of extra latency before delivery *)
  delay_s : float;  (** maximum extra latency, uniform in [0, delay_s) *)
}

val pristine : profile
(** No impairment at all (every decision is [Pass]). *)

val lossy : float -> profile
(** Independent loss at the given rate, nothing else.
    @raise Invalid_argument if the rate is outside [0, 1]. *)

val bursty : float -> profile
(** Gilbert–Elliott bursts tuned to the given long-run loss rate:
    lossless Good state, 50%-loss Bad state, mean burst length 5.
    @raise Invalid_argument if the rate is outside [0, 0.5]. *)

val noisy : profile
(** A little of everything: 10% iid loss, 5% duplicate, 5% reorder,
    2% corruption, 10% chance of up to 250 ms extra delay. *)

type direction = To_prover | To_verifier

type action =
  | Pass
  | Drop
  | Duplicate
  | Reorder
  | Corrupt of { salt : int }
      (** [salt] seeds the caller's mangling function (the channel is
          polymorphic in its message type, so the byte-flip itself lives
          with whoever knows the representation). *)
  | Delay of float  (** extra seconds of latency before delivery *)

type t

val derive_seed : root:int64 -> index:int -> int64
(** The impairment seed for position [index] under root seed [root]: a
    pure function of the pair (one SplitMix64 step at offset [index]),
    {e not} a draw from a shared sequential stream. The fleet engines
    seed member [i]'s wire with [derive_seed ~root ~index:i], so the
    schedule member [i] experiences is identical however the member
    range is partitioned — one domain, many shards, or a streaming sweep
    that never materialises the whole fleet.
    @raise Invalid_argument on a negative index. *)

val create : ?to_prover:profile -> ?to_verifier:profile -> seed:int64 -> unit -> t
(** Both directions default to {!pristine}; probabilities are validated.
    @raise Invalid_argument on a probability outside [0, 1] or a
    negative [delay_s]. *)

val profile : t -> direction -> profile

val decide : t -> dir:direction -> action
(** Draw the next action for one message in the given direction,
    advancing that direction's deterministic stream (and its
    Gilbert–Elliott state, if any). Each non-[Pass] action increments
    [ra_channel_impairments_total{kind=...,dir=...}]. *)
