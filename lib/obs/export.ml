(* Symbol and region names flow into label values verbatim, so every
   control byte needs an escape — a bare \r or \t in the exposition (or
   in Perfetto JSON) corrupts the line-oriented formats. *)
let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let format_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    let parts =
      List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels
    in
    "{" ^ String.concat "," parts ^ "}"

(* %g gives "0.005"/"1"/"+Inf"-free bounds; infinity is special-cased. *)
let format_bound b = if b = infinity then "+Inf" else Printf.sprintf "%g" b

let format_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let sample_type = function
  | Registry.Counter_sample _ -> "counter"
  | Registry.Gauge_sample _ -> "gauge"
  | Registry.Histogram_sample _ -> "histogram"

let render_prometheus registry =
  let rows = Registry.snapshot registry in
  let buf = Buffer.create 1024 in
  let last_family = ref "" in
  List.iter
    (fun (name, labels, sample) ->
      if name <> !last_family then begin
        last_family := name;
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" name (sample_type sample))
      end;
      match sample with
      | Registry.Counter_sample v ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" name (format_labels labels) v)
      | Registry.Gauge_sample v ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" name (format_labels labels) (format_value v))
      | Registry.Histogram_sample { hs_sum; hs_count; hs_buckets; hs_exemplars } ->
        let cumulative = ref 0 in
        List.iter
          (fun (bound, n) ->
            cumulative := !cumulative + n;
            let le = ("le", format_bound bound) in
            (* OpenMetrics exemplar suffix: only on buckets the forensics
               layer annotated, so exemplar-free output is byte-identical
               to the pre-exemplar exposition *)
            let exemplar =
              match List.assoc_opt bound hs_exemplars with
              | None -> ""
              | Some e ->
                Printf.sprintf " # {trace_id=\"%s\"} %s %s"
                  (escape_label_value e.Registry.ex_trace_id)
                  (format_value e.Registry.ex_value)
                  (format_value e.Registry.ex_at)
            in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d%s\n" name
                 (format_labels (labels @ [ le ]))
                 !cumulative exemplar))
          hs_buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" name (format_labels labels)
             (format_value hs_sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" name (format_labels labels) hs_count))
    rows;
  Buffer.contents buf

let labels_obj labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let spans_jsonl ctx =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (f : Span.finished) ->
      let obj =
        Json.Obj
          [
            ("span", Json.Str f.f_name);
            ("id", Json.Num (float_of_int f.f_id));
            ( "parent",
              match f.f_parent with
              | None -> Json.Null
              | Some p -> Json.Num (float_of_int p) );
            ("depth", Json.Num (float_of_int f.f_depth));
            ("start_s", Json.Num f.f_start);
            ("stop_s", Json.Num f.f_stop);
            ("duration_ms", Json.Num (Span.duration_ms f));
            ("labels", labels_obj f.f_labels);
          ]
      in
      Buffer.add_string buf (Json.to_string obj);
      Buffer.add_char buf '\n')
    (Span.finished ctx);
  Buffer.contents buf

(* ---- Causal rounds: Chrome/Perfetto trace-event JSON ------------------- *)

let us_of_s s = s *. 1e6

(* One pid per device (first-appearance order, from 1), one tid per trace
   id: Perfetto then renders each device as a process and each round as
   its own track. Every event carries args.trace_id so causal membership
   survives re-sorting in the viewer. [counters] become ph:"C" counter
   tracks under a dedicated pid 0 "counters" process; [phases] become
   instants on the device/round track they belong to, so profiler phase
   attribution and causal spans cross-link by trace id. *)
let perfetto ?(counters = []) ?(phases = []) rounds =
  let pids = Hashtbl.create 8 in
  let pid_events = ref [] in
  let pid_of device =
    match Hashtbl.find_opt pids device with
    | Some pid -> pid
    | None ->
      let pid = Hashtbl.length pids + 1 in
      Hashtbl.replace pids device pid;
      pid_events :=
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num (float_of_int pid));
            ("args", Json.Obj [ ("name", Json.Str ("device:" ^ device)) ]);
          ]
        :: !pid_events;
      pid
  in
  let event_json pid (rd : Trace.round) (ev : Trace.event) =
    let args =
      ("trace_id", Json.Num (float_of_int rd.Trace.rd_trace_id))
      :: ("id", Json.Num (float_of_int ev.Trace.ev_id))
      :: ( "parent",
           match ev.Trace.ev_parent with
           | None -> Json.Null
           | Some p -> Json.Num (float_of_int p) )
      :: List.map (fun (k, v) -> (k, Json.Str v)) ev.Trace.ev_labels
    in
    let base =
      [
        ("name", Json.Str ev.Trace.ev_name);
        ("cat", Json.Str ev.Trace.ev_cat);
        ("pid", Json.Num (float_of_int pid));
        ("tid", Json.Num (float_of_int rd.Trace.rd_trace_id));
        ("ts", Json.Num (us_of_s ev.Trace.ev_start));
        ("args", Json.Obj args);
      ]
    in
    match ev.Trace.ev_kind with
    | Trace.Span_event ->
      Json.Obj
        (base
        @ [
            ("ph", Json.Str "X");
            ("dur", Json.Num (us_of_s (ev.Trace.ev_stop -. ev.Trace.ev_start)));
          ])
    | Trace.Instant_event ->
      Json.Obj (base @ [ ("ph", Json.Str "i"); ("s", Json.Str "t") ])
  in
  let round_events =
    List.concat_map
      (fun (rd : Trace.round) ->
        let pid = pid_of rd.Trace.rd_device in
        List.map (event_json pid rd) rd.Trace.rd_events)
      rounds
  in
  let counter_meta =
    if counters = [] then []
    else
      [
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Num 0.0);
            ("args", Json.Obj [ ("name", Json.Str "counters") ]);
          ];
      ]
  in
  let counter_events =
    List.concat_map
      (fun track ->
        let name = Profiler.Track.name track in
        List.map
          (fun (at, v) ->
            Json.Obj
              [
                ("name", Json.Str name);
                ("ph", Json.Str "C");
                ("pid", Json.Num 0.0);
                ("tid", Json.Num 0.0);
                ("ts", Json.Num (us_of_s at));
                ("args", Json.Obj [ ("value", Json.Num v) ]);
              ])
          (Profiler.Track.points track))
      counters
  in
  let phase_events =
    List.map
      (fun (ps : Profiler.phase_sample) ->
        let tid =
          match ps.Profiler.ps_trace_id with None -> 0 | Some id -> id
        in
        Json.Obj
          [
            ("name", Json.Str ("phase." ^ ps.Profiler.ps_phase));
            ("cat", Json.Str "profile");
            ("ph", Json.Str "i");
            ("s", Json.Str "t");
            ("pid", Json.Num (float_of_int (pid_of ps.Profiler.ps_device)));
            ("tid", Json.Num (float_of_int tid));
            ("ts", Json.Num (us_of_s ps.Profiler.ps_at));
            ( "args",
              Json.Obj
                [
                  ( "trace_id",
                    match ps.Profiler.ps_trace_id with
                    | None -> Json.Null
                    | Some id -> Json.Num (float_of_int id) );
                  ("phase", Json.Str ps.Profiler.ps_phase);
                  ("cycles", Json.Num (Int64.to_float ps.Profiler.ps_cycles));
                  ("nj", Json.Num ps.Profiler.ps_nj);
                ] );
          ])
      phases
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.rev !pid_events @ counter_meta @ round_events @ phase_events
         @ counter_events) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let perfetto_string ?counters ?phases rounds =
  Json.to_string (perfetto ?counters ?phases rounds)

let parse_jsonl text =
  let lines = String.split_on_char '\n' text in
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" then loop (lineno + 1) acc rest
      else begin
        match Json.of_string trimmed with
        | Ok v -> loop (lineno + 1) (v :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      end
  in
  loop 1 [] lines
