(** The flat physical memory of the simulated device, organized as
    non-overlapping {!Region}s. Access through this module is *raw*
    (hardware view, no protection) — software accesses are mediated by
    {!Cpu} + {!Ea_mpu}. ROM raw-writes are only allowed during device
    construction ("mask programming") and fault afterwards.

    Host storage is paged and copy-on-write: each region is backed by
    1 KiB pages, and a memory owns only the pages whose bytes it changed
    since it last called {!share}. Every other page is shared and immutable: a blank
    page is one zero page common to every memory, and {!share} seals a
    memory's pages so that worlds built alike hold one copy of each. The
    first write that changes a shared page's bytes gives the memory a
    private copy; a write that leaves them as they are keeps the page
    shared. Region records (a region's page table and ownership bits)
    are copy-on-write too: a memory keeps one slot per region, {!share}
    puts the pool's record for a region into the slot when it holds the
    same region and the same pages, and a shared record is never
    mutated: the first write that has to own a page puts a private copy
    of that one region's record into the slot before it copies the page.
    So a memory holds host heap only for its slot array and for the
    records and pages in which it differs from the zero page and its
    domain's pool. A region lookup walks the slots and allocates
    nothing. Reads copy into fresh strings or into a caller's buffer,
    and no page buffer is ever handed out, so shared pages never change
    and memories used by different domains may read them
    concurrently. *)

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

val share : t -> unit
(** Seal every page this memory owns: from now on it is shared, and the
    memory writes only a copy of it. A sealed page swaps in the page at
    the same address in this domain's pool if the two hold equal bytes,
    and otherwise takes that page's place in the pool; each region's
    record then does the same against the pool's record for that
    region, swapped in if it is for the same region object and holds
    the very same pages. The pool lives in [Domain.DLS] and holds at
    most one page and one record per address: it is bounded by one
    memory map, needs no lock, and keeps at most one world's pages alive
    per domain. Contents never change; only host storage does.
    [Ra_core.Session.create] calls this once, on a fully built world, so
    that the members of a fleet share their genesis. *)

val copy_raw : t -> base:int -> string -> unit
(** Write bytes ignoring ROM sealing. This is not a software path: it
    models physically persistent silicon contents carried across a power
    cycle (see [Device.power_cycle]). *)
