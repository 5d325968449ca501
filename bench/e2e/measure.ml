(* Host-time measurement helpers shared by every workload: a monotonic
   clock, order statistics, GC and metric-registry deltas, and the span
   aggregation behind the per-layer budgets. *)

module Span = Ra_obs.Span
module Registry = Ra_obs.Registry

(* Host seconds since process start, from CLOCK_MONOTONIC. Kept relative
   so the float keeps nanosecond resolution. *)
let origin = Monotonic_clock.now ()
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---- order statistics ------------------------------------------------ *)

(* Linear interpolation between closest ranks at position q * (n + 1): for
   the quartiles of three or more samples this is the default
   ("exclusive") method of Python's statistics.quantiles. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n = 1 then sorted.(0)
  else
    let pos = q *. float_of_int (n + 1) -. 1.0 in
    let pos = Float.max 0.0 (Float.min (float_of_int (n - 1)) pos) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

type summary = { n : int; q1 : float; median : float; q3 : float; p99 : float }

let summarize samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  {
    n = Array.length s;
    q1 = quantile s 0.25;
    median = quantile s 0.5;
    q3 = quantile s 0.75;
    p99 = quantile s 0.99;
  }

let median samples = (summarize samples).median

(* ---- GC and registry deltas ------------------------------------------ *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

type gc_words = { minor : float; major : float }

let gc_words () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; major = s.Gc.major_words }

let gc_delta a b = { minor = b.minor -. a.minor; major = b.major -. a.major }

(* Sum of every series of a counter family whose labels include [having]. *)
let counter snapshot ?(having = []) name =
  List.fold_left
    (fun acc (n, labels, sample) ->
      match sample with
      | Registry.Counter_sample v
        when String.equal n name
             && List.for_all (fun kv -> List.mem kv labels) having ->
        acc + v
      | _ -> acc)
    0 snapshot

(* The registry counters the per-layer metrics read. *)
type counters = { sent : int; dropped : int; fired : int }

let counters () =
  let snap = Registry.snapshot Registry.default in
  {
    sent = counter snap "ra_channel_sent_total";
    dropped = counter snap ~having:[ ("kind", "drop") ] "ra_channel_impairments_total";
    fired = counter snap ~having:[ ("kind", "fired") ] "ra_sched_events_total";
  }

let counters_delta a b =
  { sent = b.sent - a.sent; dropped = b.dropped - a.dropped; fired = b.fired - a.fired }

(* ---- spans ------------------------------------------------------------- *)

(* Every layer call in a traced run goes through [layer]: without a span
   context it is a plain call, with one it is a host-clock span named for
   the layer. Untraced and traced blocks therefore run the same code. *)
let layer ctx name f =
  match ctx with None -> f () | Some sp -> Span.with_span sp name f

let span_ctx () = Span.no_registry ~clock:now ()

(* Self time per span name (a span's duration minus its children's), and
   the total of root spans, over one context's finished spans. Labelled
   spans aggregate under "name{k=v}". *)
type span_totals = { self : (string, float) Hashtbl.t; mutable roots : float }

let new_totals () = { self = Hashtbl.create 16; roots = 0.0 }

let key (f : Span.finished) =
  match f.Span.f_labels with
  | [] -> f.Span.f_name
  | labels ->
    f.Span.f_name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let absorb totals ctx =
  let spans = Span.finished ctx in
  let children = Hashtbl.create 64 in
  List.iter
    (fun (f : Span.finished) ->
      match f.Span.f_parent with
      | None -> ()
      | Some p ->
        let d = f.Span.f_stop -. f.Span.f_start in
        Hashtbl.replace children p
          (d +. Option.value (Hashtbl.find_opt children p) ~default:0.0))
    spans;
  List.iter
    (fun (f : Span.finished) ->
      let d = f.Span.f_stop -. f.Span.f_start in
      let own = d -. Option.value (Hashtbl.find_opt children f.Span.f_id) ~default:0.0 in
      let k = key f in
      Hashtbl.replace totals.self k
        (own +. Option.value (Hashtbl.find_opt totals.self k) ~default:0.0);
      if f.Span.f_depth = 0 then totals.roots <- totals.roots +. d)
    spans

let self_s totals name = Option.value (Hashtbl.find_opt totals.self name) ~default:0.0

(* ---- kernel micro-timings --------------------------------------------- *)

(* Host seconds per call of [f]: the median over [batches] batches of
   [per_batch] calls, after one untimed batch. *)
let per_call ?(batches = 9) ~per_batch f =
  for _ = 1 to per_batch do
    ignore (Sys.opaque_identity (f ()))
  done;
  let samples =
    Array.init batches (fun _ ->
        let t0 = now () in
        for _ = 1 to per_batch do
          ignore (Sys.opaque_identity (f ()))
        done;
        (now () -. t0) /. float_of_int per_batch)
  in
  median samples
