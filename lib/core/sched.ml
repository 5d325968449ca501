type event = { ev_at : float; ev_seq : int; ev_fn : unit -> unit }

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

type t = {
  mutable now : float;
  mutable heap : event array; (* binary min-heap, first [size] slots live *)
  mutable size : int;
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

let create ?(start = 0.0) ?(metrics = global_metrics) ?track () =
  { now = start; heap = [||]; size = 0; seq = 0; fired = 0; mx = metrics; track }

let now t = t.now
let pending t = t.size
let fired t = t.fired

(* (at, seq) lexicographic order: earlier time first, insertion order on
   ties — the whole determinism guarantee lives in this comparison *)
let before a b = a.ev_at < b.ev_at || (a.ev_at = b.ev_at && a.ev_seq < b.ev_seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let at t ~at:when_ fn =
  (* never schedule into the past: an event "due" before the shared clock
     (a member resumed out of a wait its private clock already served)
     fires at the next step instead of rewinding the timeline *)
  let when_ = Float.max when_ t.now in
  let ev = { ev_at = when_; ev_seq = t.seq; ev_fn = fn } in
  t.seq <- t.seq + 1;
  if t.size = Array.length t.heap then begin
    let grown = Array.make (max 16 (2 * t.size)) ev in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1);
  t.mx.mx_scheduled ();
  t.mx.mx_depth t.size;
  match t.track with
  | None -> ()
  | Some tr -> Ra_obs.Profiler.Track.push tr ~at:t.now (float_of_int t.size)

let after t ~delay fn =
  if not (delay >= 0.0) then invalid_arg "Sched.after: delay must be >= 0";
  at t ~at:(t.now +. delay) fn

let next_at t = if t.size = 0 then None else Some t.heap.(0).ev_at

let pop t =
  let ev = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  ev

let observe_lag t ~member_now = t.mx.mx_lag (Float.max 0.0 (member_now -. t.now))

let step t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    (* virtual time jumps to the event — monotone because insertions are
       clamped to [now] *)
    t.now <- ev.ev_at;
    t.fired <- t.fired + 1;
    t.mx.mx_fired ();
    t.mx.mx_depth t.size;
    (match t.track with
    | None -> ()
    | Some tr -> Ra_obs.Profiler.Track.push tr ~at:t.now (float_of_int t.size));
    ev.ev_fn ();
    true
  end

let run ?until t =
  let within () =
    match (until, next_at t) with
    | _, None -> false
    | None, Some _ -> true
    | Some horizon, Some at -> at <= horizon
  in
  let n = ref 0 in
  while within () do
    ignore (step t);
    incr n
  done;
  !n
