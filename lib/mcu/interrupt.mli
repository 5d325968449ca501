(** Interrupt machinery of the simulated MCU: an interrupt descriptor
    table (IDT) *held in ordinary memory* — so it can be protected by an
    EA-MPU rule or tampered with by malware, exactly the attack surface
    §6.2 discusses for the SW-clock — plus a registry binding entry-point
    addresses to trusted handler code.

    Dispatch model: when a vector fires, the hardware reads the 4-byte
    entry address from the IDT (raw read, hardware is not subject to the
    MPU), looks the address up in the registry of *installed code entry
    points*, and runs that handler in its own execution context. A
    tampered IDT entry that points at no registered entry point makes the
    interrupt vanish — which is how the adversary "effectively stops the
    real-time clock" in the paper. A global/timer enable bit lives at a
    memory-mapped control address so that "disabling the timer interrupt"
    is also a (protectable) memory write. *)

type t

type stats = {
  delivered : int;
  lost_no_handler : int; (* IDT pointed at unregistered code *)
  suppressed_disabled : int; (* enable bit was cleared *)
}

val create : Cpu.t -> idt_base:int -> vectors:int -> ctrl_addr:int -> t
(** [ctrl_addr] holds the enable bits; bit 0 = global enable. The boot
    code must call {!enable_all_raw} (or software must set the bit). *)

val idt_size : t -> int
(** Bytes occupied by the IDT ([4 * vectors]). *)

val register_handler :
  t -> entry_addr:int -> code_region:string -> handler:(unit -> unit) -> unit
(** Declare that executable code with the given entry address exists and
    belongs to [code_region]. Dispatch runs [handler] inside
    [Cpu.with_context] for that region. *)

val set_vector_raw : t -> vector:int -> entry_addr:int -> unit
(** Write an IDT entry bypassing the MPU (boot-time initialization). *)

val set_vector : t -> vector:int -> entry_addr:int -> unit
(** Write an IDT entry as the currently executing software; subject to
    the EA-MPU (raises {!Cpu.Protection_fault} if the IDT is locked). *)

val vector_entry : t -> vector:int -> int

val enable_all_raw : t -> unit

val set_enabled : t -> bool -> unit
(** Software write of the enable bit (mediated; protectable). *)

val enabled : t -> bool

val raise_irq : t -> vector:int -> unit
(** Hardware raises the vector: dispatch per the model above. *)

val stats : t -> stats
