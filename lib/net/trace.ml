type t = {
  spans : Ra_obs.Span.t;
  mutable tracer : Ra_obs.Trace.t option; (* causal flight recorder, off by default *)
}

let create time =
  { spans = Ra_obs.Span.create ~clock:(fun () -> Simtime.now time) (); tracer = None }

let spans t = t.spans

let with_span t ?labels name f = Ra_obs.Span.with_span t.spans ?labels name f

(* ---- Causal tracing hooks --------------------------------------------- *)

let set_tracer t tracer = t.tracer <- tracer
let tracer t = t.tracer

(* The disabled path is a single option match — cheap enough to leave the
   calls unconditionally in channel/session hot paths. *)
let causal_instant t ?labels ~cat name =
  match t.tracer with
  | None -> ()
  | Some tr -> Ra_obs.Trace.instant tr ~cat ?labels name

let causal_span t ?labels ~cat name f =
  match t.tracer with
  | None -> f ()
  | Some tr -> Ra_obs.Trace.with_span tr ~cat ?labels name f

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then true
  else begin
    (* allocation-free: compare characters in place instead of carving a
       [String.sub] out of the haystack at every candidate offset *)
    let rec matches_at i j = j >= nl || (haystack.[i + j] = needle.[j] && matches_at i (j + 1)) in
    let rec loop i = i + nl <= hl && (matches_at i 0 || loop (i + 1)) in
    loop 0
  end
