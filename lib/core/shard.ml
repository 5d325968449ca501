(* Shard partitioning and the parallel shard runner.

   A shard is a contiguous slice of the member index range. Contiguity
   is what makes the merge trivial and deterministic: every per-member
   output (verdict, ledger entry, transcript, clock) is written at the
   member's own index, shards write disjoint ranges, and reading the
   array back in index order reproduces the sequential oracle's order
   exactly — there is no cross-shard ordering decision left to make.
   Whatever does not index by member (metrics arenas, aggregate
   accumulators) is merged by the coordinator in shard order after the
   shards quiesce.

   The partition function itself is the standard balanced split:
   shard s of S owns [s*n/S, (s+1)*n/S). Sizes differ by at most one,
   every member is covered exactly once, and the mapping depends only on
   (n, S) — never on which domain runs the shard. *)

type range = { sh_lo : int; sh_hi : int } (* [lo, hi) *)

let partition ~members ~shards =
  if members < 0 then invalid_arg "Shard.partition: negative member count";
  if shards < 1 then invalid_arg "Shard.partition: shards must be >= 1";
  Array.init shards (fun s ->
      { sh_lo = members * s / shards; sh_hi = members * (s + 1) / shards })

let size r = r.sh_hi - r.sh_lo

(* nearest-rank percentile over an already-sorted merged sample, p in
   0..1; 0 when empty *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Run [f s] for every shard id s in [0, shards) on the caller plus
   pool helpers. Shard ids are handed out through an atomic counter, so
   with more shards than domains the surplus queues naturally; which
   domain runs which shard is *not* deterministic — which is exactly why
   shard bodies may only touch their own range and their own arena. *)
let run ?pool ~shards f =
  if shards < 1 then invalid_arg "Shard.run: shards must be >= 1";
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  if shards = 1 then f 0
  else begin
    let next = Atomic.make 0 in
    Pool.run pool ~helpers:(shards - 1) (fun () ->
        let rec go () =
          let s = Atomic.fetch_and_add next 1 in
          if s < shards then begin
            f s;
            go ()
          end
        in
        go ())
  end
