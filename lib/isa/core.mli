(** The execution core: fetch/decode/execute over the device's memory,
    with every data access attributed to the code region the PC is in —
    EA-MAC at true instruction granularity.

    Additionally implements the §6.2 mitigation "limiting code entry
    points": a control transfer from outside into a region registered
    with {!allow_entries} must land on one of its declared entry points,
    otherwise the core traps. (Without this, malware could jump into the
    middle of [Code_attest] — past the authentication check — and abuse
    its access rights; that is the runtime attack the paper points to
    CFI/entry-point enforcement for.)

    Cycle accounting: one cycle per fetched instruction word plus two per
    memory operand, charged to the underlying {!Ra_mcu.Cpu} — so ISA
    programs drain the same battery and drive the same clocks as the
    modeled trust anchor. *)

type trap =
  | Trap_protection of Ra_mcu.Cpu.fault (* EA-MPU denied a data access *)
  | Trap_bus of string (* unmapped address / ROM write *)
  | Trap_illegal of string (* bad opcode or misaligned PC *)
  | Trap_entry of { source : int; target : int; region : string }

type state = Running | Halted | Trapped of trap

type t

val create : Ra_mcu.Cpu.t -> pc:int -> sp:int -> t
(** [sp] is the initial stack pointer (grows downward; 32-bit slots). *)

val pc : t -> int
val sp : t -> int
val reg : t -> int -> int
val set_reg : t -> int -> int -> unit
val zero_flag : t -> bool
val carry_flag : t -> bool
val negative_flag : t -> bool

val force_pc : t -> int -> unit
(** Hardware-level PC write (interrupt dispatch / context restore) —
    not subject to entry-point enforcement, exactly like a real core's
    exception machinery. *)

val force_sp : t -> int -> unit

val allow_entries : t -> region:string -> int list -> unit
(** Declare the only addresses at which control may enter [region] from
    outside it. Regions never registered are unconstrained. *)

type hook = {
  h_period : int;
      (** Sampling period in cycles (>= 1). The core accumulates each
          retired instruction's cycle cost into its sample credit and
          fires {!h_sample} only when the credit reaches the period, so
          the closure cost is per-sample, not per-instruction. *)
  h_sample : pc:int -> cycles:int -> unit;
      (** Fired when the accumulated credit crosses [h_period]: the PC of
          the instruction that crossed it and the {e whole} credit (which
          the core has just reset to zero). *)
  h_call : target:int -> unit;  (** A [Call] is about to transfer. *)
  h_ret : unit -> unit;  (** A [Ret] is about to transfer. *)
  h_irq_enter : entry:int -> unit;
      (** Interrupt dispatch is entering a handler (fired by [Irq]). *)
  h_irq_exit : unit -> unit;  (** Handler finished; context restored. *)
}
(** Out-of-band execution observation for the profiler ([Ra_isa.Sampler]).
    Costs exactly one [option] match per retired instruction when unset;
    hooks must not mutate core or CPU state (observation only), so the
    executed program — transcripts, cycle counts, battery — is
    bit-for-bit identical with the hook on or off. *)

val set_hook : t -> hook option -> unit
val hook : t -> hook option

val sample_credit : t -> int
(** Cycles accumulated toward the next sample but not yet reported. An
    attached sampler drains this when the core is retired (see
    [Ra_isa.Sampler.flush]) so cycle attribution stays exact. *)

val set_sample_credit : t -> int -> unit
(** Seed or reset the sample credit — used by [Ra_isa.Sampler.attach] to
    carry a partial period across the short-lived cores a routine like
    [Sha1_asm] creates per run. *)

val run : ?max_steps:int -> t -> state * int
(** Step until halt or trap (or [max_steps], default 1_000_000, returning
    [Running]); also returns the number of instructions executed. *)

val pp_state : Format.formatter -> state -> unit
