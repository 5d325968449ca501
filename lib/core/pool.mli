(** Persistent domain pool: spawn helper domains once, reuse them for
    every parallel batch.

    [Domain.spawn] per sweep is what made the old parallel engines lose
    to sequential (0.89x at 2 domains, 0.76x at 4, on a one-core host) —
    a fresh OS thread, minor heap and runtime handshake per domain per
    sweep. Pool helpers park on a condition variable between batches;
    steady-state dispatch is one lock + broadcast.

    A batch runs one thunk on the caller {e and} [helpers] pool domains;
    the thunk distributes work itself (typically by pulling indices from
    a shared [Atomic] counter). One batch at a time per pool — the fleet
    engines' batches are strictly sequential, so there is no job queue. *)

type t

val create : unit -> t
(** An empty pool; helper domains spawn lazily on first {!run}. *)

val shared : unit -> t
(** The process-wide pool the fleet engines share. Its helpers are
    joined automatically at process exit. *)

val run : t -> helpers:int -> (unit -> unit) -> unit
(** [run t ~helpers job] executes [job ()] on the calling domain and on
    [helpers] pool domains (clamped to [0 .. 63], inside the runtime's
    128-domain budget; [0] degrades to a plain call), returning once all
    participants finish. The first
    exception raised by any participant is re-raised on the caller
    (caller's own exception wins), after all participants have quiesced.
    @raise Invalid_argument when the pool is already running a batch. *)

val size : t -> int
(** Helper domains currently alive (monotone; they persist until
    {!shutdown}). *)

val shutdown : t -> unit
(** Stop and join every helper. Idempotent; the pool can spawn fresh
    helpers afterwards. Called automatically at exit for {!shared}. *)
