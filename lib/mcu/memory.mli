(** The flat physical memory of the simulated device, organized as
    non-overlapping {!Region}s. Access through this module is *raw*
    (hardware view, no protection) — software accesses are mediated by
    {!Cpu} + {!Ea_mpu}. ROM raw-writes are only allowed during device
    construction ("mask programming") and fault afterwards.

    Host storage is paged: each region is backed by 4 KiB pages that all
    start as one shared zero page and get bytes of their own on the first
    write of a non-zero byte, so a memory holds host heap only for the
    pages it wrote. Reads copy into fresh strings or into a caller's
    buffer, and no page buffer is ever handed out, so the zero page stays
    zero and memories owned by different domains may share it. *)

type t

exception Bus_fault of string
(** Raised on access outside any region, or on a ROM write after sealing. *)

val create : Region.t list -> t
(** @raise Invalid_argument on overlapping regions. *)

val regions : t -> Region.t list
val region_named : t -> string -> Region.t
(** @raise Not_found *)

val region_of_addr : t -> int -> Region.t option

val seal_rom : t -> unit
(** After sealing, raw writes to ROM regions raise {!Bus_fault}. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_bytes : t -> int -> int -> string

val read_into : t -> int -> Bytes.t -> pos:int -> len:int -> unit
(** [read_into t addr buf ~pos ~len] copies the [len] bytes at [addr]
    into [buf] at [pos], the bytes {!read_bytes} would return, without
    allocating. On a {!Bus_fault} the runs before the faulting byte have
    been copied.
    @raise Invalid_argument if [pos]/[len] do not denote a range of [buf]. *)

val write_bytes : t -> int -> string -> unit

val read_u32 : t -> int -> int
(** Little-endian 32-bit load. *)

val write_u32 : t -> int -> int -> unit

val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit

val copy_raw : t -> base:int -> string -> unit
(** Write bytes ignoring ROM sealing. This is not a software path: it
    models physically persistent silicon contents carried across a power
    cycle (see [Device.power_cycle]). *)
