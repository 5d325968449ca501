(** Bounded per-domain memo tables for pure functions.

    The worlds of a fleet are built from the same inputs: the same key,
    RAM seed and size, and app image. The genesis computations over
    those inputs (a DRBG instantiation, an HMAC key context, the boot
    measurement, the RAM fill) are pure, so a world built like an
    earlier one can take the earlier result instead of recomputing it. *)

val per_domain : capacity:int -> equal:('k -> 'k -> bool) -> ('k -> 'v) -> 'k -> 'v
(** [per_domain ~capacity ~equal f] is [f] behind a table that each
    domain keeps for itself in [Domain.DLS], so domains share nothing
    mutable and need no lock. The table maps whole arguments, compared
    with [equal], to results, and holds at most [capacity] of them.

    A hit moves its entry to the front. A miss computes [f k] and puts
    it in front, evicting the least recently used entry when the table
    is full. An entry, argument and result, stays until it is evicted
    or the domain ends.

    [f] must be pure: [per_domain ~capacity ~equal f k] equals [f k].
    A hit returns the very value an earlier call returned, so the
    caller must not mutate it: it shares an immutable result or copies
    a mutable one.
    @raise Invalid_argument if [capacity < 1]. *)
