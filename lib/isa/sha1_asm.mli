(** SHA-1 written in the interpreted instruction set — the compression
    function a real SMART/TrustLite trust anchor executes from ROM,
    here actually running instruction-by-instruction on {!Core} with
    every memory access mediated by the EA-MPU.

    The driver (padding, block scheduling, HMAC structure) is host code
    preparing data; all hashing work — message schedule expansion and the
    80 rounds — executes on the core. Output is bit-identical to
    {!Ra_crypto.Sha1} (property-tested), and the interpreted cycle count
    lands in the same order of magnitude as Table 1's per-block figure
    for the 24 MHz Siskiyou Peak. *)

type t

val scratch_bytes : int
(** RAM the routine needs at [scratch_addr]: a 64-byte block buffer,
    20 bytes of state, and the 320-byte W schedule. *)

val install : Ra_mcu.Memory.t -> origin:int -> scratch_addr:int -> t
(** Assemble the compression routine, load it at [origin] (raw write —
    mask programming), and bind its scratch area.
    @raise Invalid_argument if assembly fails (a bug, not an input
    error). *)

val attach : origin:int -> scratch_addr:int -> t
(** Bind to a routine already present in memory (e.g. mask-programmed
    via [Device.create ~rom_images]) without writing anything. *)

val code_bytes : origin:int -> scratch_addr:int -> string
(** The routine's encoded bytes, for ROM provisioning. *)

val code_size_bytes : t -> int

exception Trapped of Core.trap
(** A trap of the core stops the routine where it stands: its scratch
    then holds whatever the routine had staged. *)

val digest : t -> Ra_mcu.Cpu.t -> string -> string
(** Full SHA-1 of a message, compressions executed on a fresh core over
    the given CPU. @raise Trapped if the core traps (e.g. the EA-MPU
    denies the routine its scratch — a misconfiguration). *)

type segment =
  | Bytes of string (* data the anchor already holds (pads, headers) *)
  | Range of int * int (* (base, len): device memory, read by the
                          interpreted copy routine — every byte crosses
                          the EA-MPU attributed to this code's region *)

val hmac_segments :
  t -> Ra_mcu.Cpu.t -> key:string -> segment list -> (string, Core.trap) result
(** HMAC-SHA1 over the concatenation of the segments; bit-identical to
    [Ra_crypto.Hmac.mac sha1 ~key (concatenation)]. [Range] bytes never
    enter host code before being staged by the interpreted [copy]
    routine, so a rule protecting the range is honoured or faulted
    exactly as for any other software. A trap is returned as [Error];
    the scratch may then hold the key's pads, and the caller must clear
    it. *)

val hmac : t -> Ra_mcu.Cpu.t -> key:string -> string -> string
(** HMAC-SHA1 with both inner and outer hashes on the core.
    @raise Trapped as {!digest}. *)

val last_run_cycles : t -> int64
(** Cycles the most recent compression consumed (for the Table-1
    comparison). *)

val set_sampler : t -> Sampler.t option -> unit
(** Attach a PC sampler to every core this routine spins up (compression
    and copy blocks alike); registers the routine's labels as symbols.
    [None] turns sampling back off. Observation only — digests, cycle
    counts, and battery drain are identical either way. *)
