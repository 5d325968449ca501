(** Cycle-exact PC sampler over {!Core}.

    Samples every [period] {e cycles} — never wall time — so a profile
    is a pure function of the executed instruction stream and replays
    bit-for-bit under a seed. The sampler keeps a cycle credit: each
    retired instruction adds its cycle cost, and when the credit reaches
    the period the {e whole} credit is attributed to the current
    symbolized call stack and reset. After a final {!flush}, the sum of
    all attributed cycles equals the total cycles executed by hooked
    cores exactly — nothing is lost to rounding.

    Call stacks are reconstructed from the core's Call/Ret/IRQ-dispatch
    notifications; frames are symbolized against {!Asm} program labels
    (nearest label at or before the PC, within that program's extent)
    and fall back to ["0x%06x"]. The root frame is always the
    {!Ra_mcu.Region} name the PC executes from, so flame graphs group
    by memory region even for label-free code.

    Observation only: a sampler never mutates core, CPU, memory, or
    battery state, so transcripts are identical with sampling on or off. *)

type t

val create : ?period:int -> memory:Ra_mcu.Memory.t -> Ra_obs.Profiler.Pc.t -> t
(** [period] defaults to {!default_period} cycles.
    @raise Invalid_argument when [period < 1]. *)

val default_period : int
(** 64 cycles — fine enough to split the SHA-1 round phases, coarse
    enough that sampling overhead stays within the bench gate. *)

val add_program : t -> Asm.program -> unit
(** Register a program's labels as symbols for PCs within its extent.
    Programs may be added in any order; overlapping extents resolve to
    the most recently added program. *)

val attach : t -> Core.t -> unit
(** Install this sampler as the core's execution hook (replacing any
    previous hook). Many cores — including short-lived ones like the
    per-block cores inside [Sha1_asm] — may share one sampler; the
    cycle credit and call stack carry across them. *)

val flush : t -> unit
(** Attribute any remaining cycle credit to the last sampled stack.
    Call once at the end of a measured run to make attribution exact. *)
