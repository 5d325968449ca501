(* Request-scoped causal tracing: one {!round} per attestation round,
   holding a tree of timed events under a single trace id. Recording only
   reads the clock — it never advances simulated time and never draws
   randomness, so enabling tracing cannot perturb protocol transcripts. *)

type kind = Span_event | Instant_event

type event = {
  ev_id : int;
  ev_parent : int option; (* None only for the root span (id 0) *)
  ev_name : string;
  ev_cat : string;
  ev_kind : kind;
  ev_start : float;
  ev_stop : float; (* = ev_start for instants *)
  ev_labels : Registry.labels;
}

type round = {
  rd_trace_id : int;
  rd_device : string;
  rd_start : float;
  rd_stop : float;
  rd_verdict : string;
  rd_attempts : int;
  rd_dropped : int; (* events discarded past max_events *)
  rd_events : event list; (* in start order; root span first *)
}

type span = { s_id : int }

type open_span = {
  os_id : int;
  os_parent : int option;
  os_name : string;
  os_cat : string;
  os_start : float;
  os_labels : Registry.labels;
}

type open_round = {
  or_trace : int;
  or_start : float;
  mutable or_events : event list; (* finished events, newest first *)
  mutable or_stack : open_span list; (* innermost first *)
  mutable or_next_id : int;
  mutable or_count : int; (* events recorded (finished + open) *)
  mutable or_dropped : int;
}

type t = {
  device : string;
  clock : unit -> float;
  max_events : int;
  recorder : round Recorder.t;
  mutable next_trace : int;
  mutable cur : open_round option;
}

module M = struct
  let rounds = Registry.Counter.get "ra_trace_rounds_total"
  let events = Registry.Counter.get "ra_trace_events_total"
  let dropped = Registry.Counter.get "ra_trace_dropped_events_total"
end

let create ?(capacity = 64) ?(max_events = 4096) ~device ~clock () =
  if max_events < 2 then invalid_arg "Ra_obs.Trace.create: max_events must be >= 2";
  {
    device;
    clock;
    max_events;
    recorder = Recorder.create ~capacity;
    next_trace = 0;
    cur = None;
  }

let device t = t.device
let recorder t = t.recorder
let rounds t = Recorder.to_list t.recorder
let root_span_name = "attest.round"

let sort_events evs =
  List.stable_sort
    (fun a b ->
      match compare a.ev_start b.ev_start with
      | 0 -> compare a.ev_id b.ev_id
      | c -> c)
    evs

(* Close any spans left open (abandoned rounds), seal and record. *)
let seal t (r : open_round) ~verdict ~attempts =
  let stop = t.clock () in
  List.iter
    (fun os ->
      r.or_events <-
        {
          ev_id = os.os_id;
          ev_parent = os.os_parent;
          ev_name = os.os_name;
          ev_cat = os.os_cat;
          ev_kind = Span_event;
          ev_start = os.os_start;
          ev_stop = stop;
          ev_labels = os.os_labels;
        }
        :: r.or_events)
    r.or_stack;
  r.or_stack <- [];
  let round =
    {
      rd_trace_id = r.or_trace;
      rd_device = t.device;
      rd_start = r.or_start;
      rd_stop = stop;
      rd_verdict = verdict;
      rd_attempts = attempts;
      rd_dropped = r.or_dropped;
      rd_events = sort_events (List.rev r.or_events);
    }
  in
  Recorder.push t.recorder round;
  Registry.Counter.inc M.rounds;
  if r.or_dropped > 0 then Registry.Counter.inc ~by:r.or_dropped M.dropped

let begin_round t =
  (match t.cur with
  | Some r -> seal t r ~verdict:"abandoned" ~attempts:0
  | None -> ());
  let start = t.clock () in
  let trace_id = t.next_trace in
  t.next_trace <- t.next_trace + 1;
  let root =
    {
      os_id = 0;
      os_parent = None;
      os_name = root_span_name;
      os_cat = "retry";
      os_start = start;
      os_labels = [];
    }
  in
  t.cur <-
    Some
      {
        or_trace = trace_id;
        or_start = start;
        or_events = [];
        or_stack = [ root ];
        or_next_id = 1;
        or_count = 1;
        or_dropped = 0;
      };
  trace_id

let current_trace_id t = Option.map (fun r -> r.or_trace) t.cur

(* A dummy id for dropped/out-of-round spans: finish_span ignores it. *)
let null_span = { s_id = -1 }

let span t ?(cat = "trace") ?(labels = []) name =
  match t.cur with
  | None -> null_span
  | Some r ->
    if r.or_count >= t.max_events then begin
      r.or_dropped <- r.or_dropped + 1;
      null_span
    end
    else begin
      let parent = match r.or_stack with [] -> None | os :: _ -> Some os.os_id in
      let os =
        {
          os_id = r.or_next_id;
          os_parent = parent;
          os_name = name;
          os_cat = cat;
          os_start = t.clock ();
          os_labels = labels;
        }
      in
      r.or_next_id <- r.or_next_id + 1;
      r.or_count <- r.or_count + 1;
      r.or_stack <- os :: r.or_stack;
      Registry.Counter.inc M.events;
      { s_id = os.os_id }
    end

let finish_span t ?(labels = []) sp =
  if sp.s_id >= 0 then
    match t.cur with
    | None -> ()
    | Some r ->
      let stop = t.clock () in
      let rec split acc = function
        | [] -> None
        | os :: rest when os.os_id = sp.s_id -> Some (os, List.rev_append acc rest)
        | os :: rest -> split (os :: acc) rest
      in
      (match split [] r.or_stack with
      | None -> ()
      | Some (os, rest) ->
        r.or_stack <- rest;
        r.or_events <-
          {
            ev_id = os.os_id;
            ev_parent = os.os_parent;
            ev_name = os.os_name;
            ev_cat = os.os_cat;
            ev_kind = Span_event;
            ev_start = os.os_start;
            ev_stop = stop;
            ev_labels = os.os_labels @ labels;
          }
          :: r.or_events)

let with_span t ?cat ?labels name f =
  let sp = span t ?cat ?labels name in
  match f () with
  | v ->
    finish_span t sp;
    v
  | exception e ->
    finish_span t ~labels:[ ("outcome", "raised") ] sp;
    raise e

let instant t ?(cat = "trace") ?(labels = []) name =
  match t.cur with
  | None -> ()
  | Some r ->
    if r.or_count >= t.max_events then r.or_dropped <- r.or_dropped + 1
    else begin
      let now = t.clock () in
      let parent = match r.or_stack with [] -> None | os :: _ -> Some os.os_id in
      r.or_events <-
        {
          ev_id = r.or_next_id;
          ev_parent = parent;
          ev_name = name;
          ev_cat = cat;
          ev_kind = Instant_event;
          ev_start = now;
          ev_stop = now;
          ev_labels = labels;
        }
        :: r.or_events;
      r.or_next_id <- r.or_next_id + 1;
      r.or_count <- r.or_count + 1;
      Registry.Counter.inc M.events
    end

let end_round t ~verdict ~attempts =
  match t.cur with
  | None -> ()
  | Some r ->
    t.cur <- None;
    seal t r ~verdict ~attempts
