(** The execution engine of the simulated MCU: every software memory
    access is attributed to the *currently executing code region* and
    mediated by the {!Ea_mpu}. This is what makes the paper's protection
    claims testable — malware runs with a different execution context
    than [Code_attest] and really is denied access to the key, the
    counter, and the clock state.

    The CPU also carries the free-running cycle counter (24 MHz on the
    modeled Siskiyou Peak) from which clocks, timing and energy derive.
    Cycles advance for two reasons: executed work ({!consume_cycles},
    charged as active energy) and idle time passing ({!idle_cycles},
    charged as sleep energy) — the hardware clock keeps counting in
    sleep, which the paper's clock designs rely on. *)

type fault = {
  fault_code : string; (* executing region *)
  fault_addr : int;
  fault_mode : Ea_mpu.mode;
}

exception Protection_fault of fault

type advance = Work | Idle

type t

val create : Memory.t -> Ea_mpu.t -> clock_hz:int -> t

val memory : t -> Memory.t
val mpu : t -> Ea_mpu.t
val clock_hz : t -> int

val cycles : t -> int64
(** Free-running counter: work + idle. *)

val work_cycles : t -> int64
(** Cycles spent executing (the energy-relevant share). *)

val consume_cycles : t -> int64 -> unit
(** Advance the counter by executed work. *)

val idle_cycles : t -> int64 -> unit
(** Advance the counter by idle (sleeping) time. *)

val idle_seconds : t -> float -> unit
(** [idle_cycles] expressed in wall-clock time at the core frequency. *)

val on_advance : t -> (t -> int64 -> advance -> unit) -> unit
(** Register a callback fired after every advance (timer peripherals,
    energy meter), with the cycle delta and its nature. *)

val elapsed_seconds : t -> float

val context : t -> string
(** Name of the code region currently executing ("untrusted" initially). *)

val with_context : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk as code of the given region, restoring the previous
    context afterwards (even on exception). *)

val faults : t -> fault list
(** All protection faults observed so far, newest first. *)

(** Mediated accesses: raise {!Protection_fault} (and record it) when the
    EA-MPU denies, and propagate {!Memory.Bus_fault} on unmapped
    addresses. *)

val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit
val load_bytes : t -> int -> int -> string

val load_into : t -> int -> Bytes.t -> pos:int -> len:int -> unit
(** {!load_bytes} into [buf] at [pos] ({!Memory.read_into}): the same
    EA-MPU check runs before any byte moves, and the same faults are
    raised. *)

val store_bytes : t -> int -> string -> unit
val load_u32 : t -> int -> int
val store_u32 : t -> int -> int -> unit
val load_u64 : t -> int -> int64
val store_u64 : t -> int -> int64 -> unit
