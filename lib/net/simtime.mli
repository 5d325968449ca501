(** Simulated wall-clock time shared by the verifier, the network and the
    experiment harness. Monotone, in seconds. The prover's own notion of
    time comes from its (attackable) on-device clock, *not* from here —
    keeping the two separate is exactly what makes the paper's clock
    attacks expressible. *)

type t

val create : ?start:float -> unit -> t
val now : t -> float

val advance_by : t -> float -> unit
(** @raise Invalid_argument on negative delta. *)

val advance_to : t -> float -> unit
(** @raise Invalid_argument if the target is in the past. *)

(** {2 Timers}

    A deadline is an absolute instant on this clock; the retry engine
    arms one per attempt and sleeps the remaining simulated time when the
    wire goes quiet. *)

type deadline = private float

val deadline : t -> after:float -> deadline
(** The instant [after] seconds from now.
    @raise Invalid_argument on a negative delay. *)

val remaining : t -> deadline -> float
(** Seconds until the deadline; 0 once it has passed. *)
