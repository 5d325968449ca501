(* Single-domain metrics arena.

   The registry's instruments are safe to hit from any domain, but every
   observation is an atomic RMW on shared cache lines — on a hot loop
   running on several domains at once (one event per member per round,
   thousands of members per shard) that contention is one of the costs
   that made spawn-per-sweep parallelism slower than one domain. An arena
   buffers a domain's
   observations in plain mutable fields with no synchronization at all;
   [flush] folds the accumulated values into the shared registry in one
   bulk operation per instrument.

   The contract: an arena is owned by exactly one domain between
   flushes, and [flush] is called from a single coordinating domain
   after the owners have quiesced (the shard engine flushes arenas in
   shard order, so the merged registry state is deterministic). Flushing
   resets the local values, so an arena can be reused across runs. *)

type flusher = unit -> unit
type t = { mutable flushers : flusher list (* newest first *) }

let create () = { flushers = [] }

let on_flush t f = t.flushers <- f :: t.flushers

(* Flush in registration order: the merged totals are sums so the order
   is invisible for counters/histograms, but gauges keep last-write-wins
   semantics aligned with registration order. *)
let flush t = List.iter (fun f -> f ()) (List.rev t.flushers)

module Counter = struct
  type nonrec t = { mutable n : int; target : Registry.Counter.t }

  let make arena target =
    let c = { n = 0; target } in
    on_flush arena (fun () ->
        if c.n > 0 then begin
          Registry.Counter.inc ~by:c.n c.target;
          c.n <- 0
        end);
    c

  let inc ?(by = 1) c = c.n <- c.n + by
end

module Gauge = struct
  type nonrec t = {
    mutable v : float;
    mutable dirty : bool;
    target : Registry.Gauge.t;
  }

  let make arena target =
    let g = { v = 0.0; dirty = false; target } in
    on_flush arena (fun () ->
        if g.dirty then begin
          Registry.Gauge.set g.target g.v;
          g.dirty <- false
        end);
    g

  let set g v =
    g.v <- v;
    g.dirty <- true
end

module Histogram = struct
  type nonrec t = {
    bounds : float array;
    counts : int array; (* length = bounds + 1 (overflow) *)
    mutable sum : float;
    target : Registry.Histogram.t;
  }

  let make arena target =
    let bounds = Registry.Histogram.bounds target in
    let h = { bounds; counts = Array.make (Array.length bounds + 1) 0; sum = 0.0; target } in
    on_flush arena (fun () ->
        Registry.Histogram.absorb h.target ~counts:h.counts ~sum:h.sum;
        Array.fill h.counts 0 (Array.length h.counts) 0;
        h.sum <- 0.0);
    h

  let observe h v =
    let n = Array.length h.bounds in
    let rec idx i = if i >= n || v <= h.bounds.(i) then i else idx (i + 1) in
    h.counts.(idx 0) <- h.counts.(idx 0) + 1;
    h.sum <- h.sum +. v
end
