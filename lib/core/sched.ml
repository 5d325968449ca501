(* How a scheduler reports into the metrics layer. The default sink hits
   the shared atomic registry handles directly; the sharded engines give
   each shard an [Ra_obs.Arena]-backed sink instead, so the per-event hot
   path touches only domain-local memory and the registry sees one bulk
   merge per shard, in shard order. *)
type metrics = {
  mx_scheduled : unit -> unit;
  mx_fired : unit -> unit;
  mx_depth : int -> unit;
  mx_lag : float -> unit;
}

(* The binary min-heap is three parallel arrays indexed by slot: fire
   times unboxed in a float array, insertion sequence numbers, and the
   thunks. An event is never a record and its time never a boxed float;
   only [fns] holds pointers, so only its stores pay the write barrier.
   Every slot from [size] on holds [noop], so a fired thunk, and all it
   captured, is unreachable from the scheduler once it has fired. *)
type t = {
  mutable now : float;
  mutable times : float array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable size : int; (* the first [size] slots are live *)
  mutable seq : int; (* insertion order, the deterministic tie-break *)
  mutable fired : int;
  mx : metrics;
  track : Ra_obs.Profiler.Track.t option; (* queue depth over sim time *)
}

(* Handles precreated at module init: per-event cost is atomic adds, never
   a registry mutex. *)
module M = struct
  open Ra_obs.Registry

  let scheduled = Counter.get ~labels:[ ("kind", "scheduled") ] "ra_sched_events_total"
  let fired = Counter.get ~labels:[ ("kind", "fired") ] "ra_sched_events_total"
  let depth = Gauge.get "ra_sched_queue_depth"

  (* seconds of member-clock lead over the shared timeline; members run
     ahead by exactly the anchor/pump work their events performed, so the
     buckets span micro-work to whole reply windows *)
  let lag_buckets = [| 0.001; 0.01; 0.1; 0.5; 1.0; 5.0; 30.0; 120.0; 600.0 |]
  let lag = Histogram.get ~buckets:lag_buckets "ra_sched_lag_seconds"
end

let global_metrics =
  {
    mx_scheduled = (fun () -> Ra_obs.Registry.Counter.inc M.scheduled);
    mx_fired = (fun () -> Ra_obs.Registry.Counter.inc M.fired);
    mx_depth = (fun d -> Ra_obs.Registry.Gauge.set M.depth (float_of_int d));
    mx_lag = (fun l -> Ra_obs.Registry.Histogram.observe M.lag l);
  }

let arena_metrics arena =
  let open Ra_obs.Arena in
  let scheduled = Counter.make arena M.scheduled in
  let fired = Counter.make arena M.fired in
  let depth = Gauge.make arena M.depth in
  let lag = Histogram.make arena M.lag in
  {
    mx_scheduled = (fun () -> Counter.inc scheduled);
    mx_fired = (fun () -> Counter.inc fired);
    mx_depth = (fun d -> Gauge.set depth (float_of_int d));
    mx_lag = (fun l -> Histogram.observe lag l);
  }

let noop () = ()

let create ?(start = 0.0) ?(metrics = global_metrics) ?track () =
  {
    now = start;
    times = [||];
    seqs = [||];
    fns = [||];
    size = 0;
    seq = 0;
    fired = 0;
    mx = metrics;
    track;
  }

let now t = t.now
let pending t = t.size
let fired t = t.fired

let grow t =
  let cap = max 16 (2 * t.size) in
  let times = Array.make cap 0.0 and seqs = Array.make cap 0 and fns = Array.make cap noop in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.fns 0 fns 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.fns <- fns

(* (at, seq) lexicographic order: earlier time first, insertion order on
   ties — the whole determinism guarantee lives in this comparison, and
   [seq] makes it strict. Both sifts move a hole rather than swapping,
   and write the moving event once, where the hole stops. *)
let[@inline] before (at : float) (seq : int) at' seq' = at < at' || (at = at' && seq < seq')

let at t ~at:when_ fn =
  (* never schedule into the past: an event "due" before the shared clock
     (a member resumed out of a wait its private clock already served)
     fires at the next step instead of rewinding the timeline *)
  let when_ = Float.max when_ t.now in
  let seq = t.seq in
  t.seq <- seq + 1;
  if t.size = Array.length t.fns then grow t;
  let times = t.times and seqs = t.seqs and fns = t.fns in
  let i = ref t.size and placed = ref false in
  while not !placed do
    let parent = (!i - 1) / 2 in
    if !i > 0 && before when_ seq times.(parent) seqs.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      fns.(!i) <- fns.(parent);
      i := parent
    end
    else placed := true
  done;
  times.(!i) <- when_;
  seqs.(!i) <- seq;
  fns.(!i) <- fn;
  t.size <- t.size + 1;
  t.mx.mx_scheduled ();
  t.mx.mx_depth t.size;
  match t.track with
  | None -> ()
  | Some tr -> Ra_obs.Profiler.Track.push tr ~at:t.now (float_of_int t.size)

let after t ~delay fn =
  if not (delay >= 0.0) then invalid_arg "Sched.after: delay must be >= 0";
  at t ~at:(t.now +. delay) fn

let next_at t = if t.size = 0 then None else Some t.times.(0)

(* drop the root: the last event fills the hole it leaves, sifted down;
   the vacated last slot goes back to [noop] *)
let remove_min t =
  let n = t.size - 1 in
  t.size <- n;
  let times = t.times and seqs = t.seqs and fns = t.fns in
  let last_at = times.(n) and last_seq = seqs.(n) and last_fn = fns.(n) in
  fns.(n) <- noop;
  if n > 0 then begin
    let i = ref 0 and placed = ref false in
    while not !placed do
      let l = (2 * !i) + 1 in
      if l >= n then placed := true
      else begin
        let r = l + 1 in
        let c = if r < n && before times.(r) seqs.(r) times.(l) seqs.(l) then r else l in
        if before times.(c) seqs.(c) last_at last_seq then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          fns.(!i) <- fns.(c);
          i := c
        end
        else placed := true
      end
    done;
    times.(!i) <- last_at;
    seqs.(!i) <- last_seq;
    fns.(!i) <- last_fn
  end

let observe_lag t ~member_now = t.mx.mx_lag (Float.max 0.0 (member_now -. t.now))

let step t =
  if t.size = 0 then false
  else begin
    let at = t.times.(0) and fn = t.fns.(0) in
    remove_min t;
    (* virtual time jumps to the event — monotone because insertions are
       clamped to [now] *)
    t.now <- at;
    t.fired <- t.fired + 1;
    t.mx.mx_fired ();
    t.mx.mx_depth t.size;
    (match t.track with
    | None -> ()
    | Some tr -> Ra_obs.Profiler.Track.push tr ~at:t.now (float_of_int t.size));
    fn ();
    true
  end

let run ?until t =
  let n = ref 0 in
  (match until with
  | None ->
    while step t do
      incr n
    done
  | Some horizon ->
    while t.size > 0 && t.times.(0) <= horizon do
      ignore (step t);
      incr n
    done);
  !n
