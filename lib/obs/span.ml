type finished = {
  f_name : string;
  f_labels : Registry.labels;
  f_id : int;
  f_parent : int option;
  f_parent_name : string option;
  f_depth : int;
  f_start : float;
  f_stop : float;
}

type span = {
  o_id : int;
  o_name : string;
  o_labels : Registry.labels;
  o_parent : int option;
  o_parent_name : string option;
  o_depth : int;
  o_start : float;
}

type t = {
  clock : unit -> float;
  registry : Registry.t option;
  histogram : string;
  mutable callback : (finished -> unit) option;
  mutable stack : span list; (* innermost first *)
  mutable log : finished list; (* newest first; [no_registry] contexts only *)
  mutable next_id : int;
}

let make registry ~histogram ~clock =
  { clock; registry; histogram; callback = None; stack = []; log = []; next_id = 0 }

let create ?(registry = Registry.default) ?(histogram = "ra_span_ms") ~clock () =
  make (Some registry) ~histogram ~clock

let no_registry ~clock () = make None ~histogram:"ra_span_ms" ~clock

let on_finish t cb = t.callback <- Some cb

let enter t ?(labels = []) name =
  let parent = match t.stack with [] -> None | p :: _ -> Some p in
  let sp =
    {
      o_id = t.next_id;
      o_name = name;
      o_labels = labels;
      o_parent = Option.map (fun p -> p.o_id) parent;
      o_parent_name = Option.map (fun p -> p.o_name) parent;
      o_depth = (match parent with None -> 0 | Some p -> p.o_depth + 1);
      o_start = t.clock ();
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- sp :: t.stack;
  sp

let start sp = sp.o_start

(* Histogram handles by span name, one table per domain, each with the
   registry and histogram it was got for: a registered handle never
   changes, so an exit finds its handle here instead of taking the
   registry's lock. A handle is kept only while its family is under the
   series cap, so an over-cap exit still counts its drop. *)
let handles : (string, Registry.t * string * Registry.Histogram.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let handle registry histogram name =
  let cache = Domain.DLS.get handles in
  match Hashtbl.find cache name with
  | r, h, handle when r == registry && String.equal h histogram -> handle
  | _ | (exception Not_found) ->
    let handle = Registry.Histogram.get ~registry ~labels:[ ("span", name) ] histogram in
    if Registry.series_count registry histogram < Registry.series_limit registry then begin
      if Hashtbl.length cache >= 1024 then Hashtbl.reset cache;
      Hashtbl.replace cache name (registry, histogram, handle)
    end;
    handle

let exit t ?(labels = []) sp =
  let stop = t.clock () in
  t.stack <- List.filter (fun o -> o.o_id <> sp.o_id) t.stack;
  let f =
    {
      f_name = sp.o_name;
      f_labels = sp.o_labels @ labels;
      f_id = sp.o_id;
      f_parent = sp.o_parent;
      f_parent_name = sp.o_parent_name;
      f_depth = sp.o_depth;
      f_start = sp.o_start;
      f_stop = stop;
    }
  in
  (match t.registry with
  | None -> t.log <- f :: t.log
  | Some registry ->
    Registry.Histogram.observe
      (handle registry t.histogram sp.o_name)
      ((stop -. sp.o_start) *. 1000.0));
  match t.callback with None -> () | Some cb -> cb f

let with_span t ?labels name f =
  let sp = enter t ?labels name in
  match f () with
  | v ->
    exit t sp;
    v
  | exception e ->
    exit t ~labels:[ ("outcome", "raised") ] sp;
    raise e

let finished t = List.rev t.log
let open_count t = List.length t.stack
let duration_ms f = (f.f_stop -. f.f_start) *. 1000.0
