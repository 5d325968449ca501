(** Open-loop arrival processes for load generation.

    The fleet engines so far drive the world sweep-at-a-time: every
    device attests once per staggered slot. A verifier-as-a-service
    instead sees an {e open-loop} stream — reports arrive whether or not
    the server has finished the previous one. This module produces those
    arrival instants deterministically from a seed:

    - [Poisson]: memoryless arrivals at a fixed rate (exponential
      inter-arrival gaps), the classic open-loop benchmark load.
    - [Bursty]: a Gilbert–Elliott-modulated Poisson process — the same
      two-state Markov chain {!Impairment} uses for burst loss, here
      switching the instantaneous rate between a quiet Good state and a
      [burst_factor]-times-hotter Bad state. Long-run average rate stays
      [rate]; short-run the server sees flash crowds.

    Streams draw from a private SplitMix64 generator, so a process is
    fully determined by [(process, seed, start)] and independent of any
    other stream — the positional-seed discipline the sharded engines
    rely on. *)

type process =
  | Poisson of { rate : float }  (** arrivals per second, > 0 *)
  | Bursty of {
      rate : float;  (** long-run average arrivals per second, > 0 *)
      burst_factor : float;  (** Bad-state rate multiplier, >= 1 *)
      p_quiet_to_burst : float;  (** per-arrival Good -> Bad probability *)
      p_burst_to_quiet : float;  (** per-arrival Bad -> Good probability *)
    }

val bursty : ?burst_factor:float -> rate:float -> unit -> process
(** A [Bursty] process tuned like {!Impairment.bursty}: bursts of 16
    arrivals on average at [burst_factor] (default 8) times the quiet
    rate, entered rarely enough that the long-run average stays [rate].
    @raise Invalid_argument on a non-positive rate or factor < 1. *)

type t

val create : ?start:float -> seed:int64 -> process -> t
(** A fresh stream beginning at [start] (default 0) simulated seconds.
    @raise Invalid_argument on non-positive rates, [burst_factor < 1] or
    transition probabilities outside (0, 1]. *)

val next : t -> float
(** The next arrival instant, in simulated seconds. Strictly increasing
    across calls on one stream. *)

val peek : t -> float
(** The instant {!next} will return, without consuming it. *)
