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

(* The binary min-heap keeps only unboxed keys: fire times in a float
   array, insertion sequence numbers, and the slot each event's thunk
   sits in. The thunks live in [fns], indexed by slot and never moved, so
   a sift moves only floats and ints and pays no write barrier; an event
   writes [fns] once when it is scheduled and once when it fires. [slots]
   is a permutation of [0, capacity): its first [size] entries follow the
   heap, and the rest are the free list, so a pop hands its slot to the
   position it vacates. Every free slot holds [noop], so a fired thunk,
   and all it captured, is unreachable from the scheduler once it has
   fired. *)
type t = {
  mutable now : float;
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable fns : (unit -> unit) array; (* by slot *)
  mutable size : int; (* the first [size] heap positions are live *)
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
    slots = [||];
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

(* Called when every slot is live: the heap keeps its positions, and the
   new slots, numbered from the old capacity up, are the free list. *)
let grow t =
  let old = Array.length t.fns in
  let cap = max 16 (2 * old) in
  let times = Array.make cap 0.0 and seqs = Array.make cap 0 in
  let slots = Array.init cap Fun.id and fns = Array.make cap noop in
  Array.blit t.times 0 times 0 old;
  Array.blit t.seqs 0 seqs 0 old;
  Array.blit t.slots 0 slots 0 old;
  Array.blit t.fns 0 fns 0 old;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.fns <- fns

(* (at, seq) lexicographic order: earlier time first, insertion order on
   ties — the whole determinism guarantee lives in this comparison, and
   [seq] makes it strict. Both sifts move a hole rather than swapping,
   and write the moving event once, where the hole stops. *)
let[@inline] before (at : float) (seq : int) at' seq' = at < at' || (at = at' && seq < seq')

(* [before] on heap positions [i] and [j], as 1 or 0 and without a
   branch: which child a pop descends to is a coin flip that a branch
   predictor mostly loses at every level *)
let[@inline] earlier (times : float array) (seqs : int array) i j =
  let ti = times.(i) and tj = times.(j) in
  Bool.to_int (ti < tj) lor (Bool.to_int (ti = tj) land Bool.to_int (seqs.(i) < seqs.(j)))

let at t ~at:when_ fn =
  (* never schedule into the past: an event "due" before the shared clock
     (a member resumed out of a wait its private clock already served)
     fires at the next step instead of rewinding the timeline *)
  let when_ = Float.max when_ t.now in
  let seq = t.seq in
  t.seq <- seq + 1;
  if t.size = Array.length t.fns then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.size) in
  t.fns.(slot) <- fn;
  let i = ref t.size and placed = ref false in
  while not !placed do
    let parent = (!i - 1) / 2 in
    if !i > 0 && before when_ seq times.(parent) seqs.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else placed := true
  done;
  times.(!i) <- when_;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
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

(* drop the root: the last event fills the hole it leaves, sifted down,
   and the root's slot joins the free list at the position vacated *)
let remove_min t =
  let n = t.size - 1 in
  t.size <- n;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let root = slots.(0) in
  let last_at = times.(n) and last_seq = seqs.(n) and last_slot = slots.(n) in
  slots.(n) <- root;
  if n > 0 then begin
    let i = ref 0 and placed = ref false in
    while not !placed do
      let l = (2 * !i) + 1 in
      if l >= n then placed := true
      else begin
        let r = l + 1 in
        let c = if r < n then l + earlier times seqs r l else l in
        if before times.(c) seqs.(c) last_at last_seq then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else placed := true
      end
    done;
    times.(!i) <- last_at;
    seqs.(!i) <- last_seq;
    slots.(!i) <- last_slot
  end

let observe_lag t ~member_now = t.mx.mx_lag (Float.max 0.0 (member_now -. t.now))

let step t =
  if t.size = 0 then false
  else begin
    let at = t.times.(0) and slot = t.slots.(0) in
    let fn = t.fns.(slot) in
    t.fns.(slot) <- noop;
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
