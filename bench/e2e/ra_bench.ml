(* ra_bench: the end-to-end benchmark of the four attestation paths.

     ra_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--smoke] [--commit C] [--out FILE] [--spans FILE]
     ra_bench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
     ra_bench summary RESULTS.jsonl
     ra_bench selftest --benchmark BENCHMARK.json

   A run prints every metric by name and unit, then, as its last line,
   one JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics untraced, the per-layer metrics with --trace 1.
   --out appends the same result plus its run descriptor (host, seed,
   repeat count, quartiles) to a JSONL file; see README.md. *)

module Json = Ra_obs.Json
module W = Workloads
module M = Measure

let default_seed = 2016L

(* Simulated-output digests at the default seed. Host speed never moves
   these; a change that does alters what the system computes. *)
let expected_digest name size =
  match (name, size) with
  | "attest-64k", W.Full -> "b31d1f4cda339b4ad4ac48fdb153482d7341b52f"
  | "attest-64k", W.Smoke -> "aa83514b54e96538d61e22dcd271ffc0b83aae32"
  | "fleet-2k-loss20", W.Full -> "372cc839ed33c01084bc8b4e1ff6ae3cdcc6195d"
  | "fleet-2k-loss20", W.Smoke -> "66ec913481de9ee1f8fe91acd17e56b71ba5cf68"
  | "server-flood", W.Full -> "0d32558345bf862cb93658e567d8100e30451edd"
  | "server-flood", W.Smoke -> "c2d8691d2001d9a529ded9a4627c2987aa61e15a"
  | "session-stream", W.Full -> "ce092bf29be3a4edf596c81f7187deb71e903da6"
  | "session-stream", W.Smoke -> "325ee6507c9a2cf9bf4e23ee7e6b112da5234c25"
  | _ -> "unknown workload"

let end_to_end =
  [ ("ops_per_s", "ops/s"); ("op_us_p50", "us"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

(* Every per-layer metric; a layer a workload does not exercise reads 0. *)
let per_layer =
  [
    ("session.send_request_us", "us");
    ("session.prover_us", "us");
    ("session.verifier_us", "us");
    ("session.round_begin_us", "us");
    ("session.resume_us", "us");
    ("session.attempts_per_round", "tx/round");
    ("fleet.unconverged_pct", "%");
    ("engine.bare_round_us", "us");
    ("engine.overhead_pct", "%");
    ("engine.events_per_op", "events/op");
    ("engine.step_us", "us");
    ("ss.request_round_us", "us");
    ("ss.prover_us", "us");
    ("ss.verifier_us", "us");
    ("ss.window_accept_ns", "ns");
    ("server.submit_us", "us");
    ("server.drain_us", "us");
    ("load.frame_us", "us");
    ("server.submit_forged_us", "us");
    ("server.verify_batched_us", "us");
    ("server.verify_one_us", "us");
    ("net.arrival_next_ns", "ns");
    ("server.verified_pct", "%");
    ("server.avg_batch", "reports");
    ("server.max_queue", "reports");
    ("server.authentic_shed_pct", "%");
    ("crypto.hmac_sha1_64k_us", "us");
    ("crypto.hmac_sha1_1k_us", "us");
    ("crypto.aes_ctr_64B_us", "us");
    ("crypto.cmac_64B_us", "us");
    ("mcu.read_attested_us", "us");
    ("codec.encode_us", "us");
    ("codec.decode_us", "us");
    ("net.frames_per_op", "frames/op");
    ("net.dropped_per_op", "frames/op");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_words_per_op", "words/op");
    ("trace.coverage_pct", "%");
    ("trace.overhead_pct", "%");
  ]

type run = {
  workload : W.t;
  size : W.size;
  seed : int64;
  seconds : float;
  trace : bool;
  commit : string;
}

type outcome = {
  metrics : (string * string * float) list;
  attempted : int;
  failed : int;
  digest : string;
  repeats : int;
  quartiles : (string * M.summary) list;
  gate : (unit, string) Stdlib.result;
}

(* ---- running ------------------------------------------------------------ *)

let min_chunks = function W.Full -> 3 | W.Smoke -> 2

(* Chunks until the run's seconds are spent (at least [min_chunks]); a
   smoke run does exactly [min_chunks]. *)
let run_chunks r =
  let deadline = M.now () +. r.seconds in
  let rec go i acc =
    if i >= min_chunks r.size && (r.size = W.Smoke || M.now () >= deadline) then
      List.rev acc
    else begin
      Gc.full_major ();
      go (i + 1) (r.workload.W.chunk r.size ~seed:r.seed ~index:i :: acc)
    end
  in
  go 0 []

let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let run_e2e r =
  let chunks = run_chunks r in
  let ops = isum (fun c -> c.W.ops) chunks in
  let op_us = M.summarize (Array.concat (List.map (fun c -> c.W.samples_us) chunks)) in
  let setup = M.summarize (Array.concat (List.map (fun c -> c.W.setup_s) chunks)) in
  let rates = Array.of_list (List.map (fun c -> float_of_int c.W.ops /. c.W.timed_s) chunks) in
  let value = function
    | "ops_per_s" -> M.median rates
    | "op_us_p50" -> op_us.M.median
    | "setup_s" -> setup.M.median
    | "peak_heap_mb" -> M.peak_heap_mb ()
    | m -> invalid_arg m
  in
  {
    metrics = List.map (fun (n, u) -> (n, u, value n)) end_to_end;
    attempted = ops;
    failed = isum (fun c -> c.W.failed) chunks;
    digest = (List.hd chunks).W.digest;
    repeats = List.length chunks;
    quartiles = [ ("op_us", op_us); ("setup_s", setup) ];
    gate = Ok ();
  }

let run_traced ?spans_out r =
  let deadline = M.now () +. r.seconds in
  let c = r.workload.W.chunk r.size ~seed:r.seed ~index:0 in
  Gc.full_major ();
  let t = r.workload.W.traced r.size ~seed:r.seed ~deadline ~e2e:c in
  let per x = W.per c.W.ops x in
  let from_chunk =
    [
      ("gc.minor_words_per_op", per c.W.gc.M.minor);
      ("gc.major_words_per_op", per c.W.gc.M.major);
      ("net.frames_per_op", per (float_of_int c.W.net.M.sent));
      ("net.dropped_per_op", per (float_of_int c.W.net.M.dropped));
      ("engine.events_per_op", per (float_of_int c.W.net.M.fired));
    ]
  in
  (* first binding wins: the workload's own measurement, then the chunk's
     counts, then the seeded kernel timings *)
  let known = t.W.layers @ c.W.facts @ from_chunk @ W.crypto_kernels r.size ~seed:r.seed in
  let value n = Option.value (List.assoc_opt n known) ~default:0.0 in
  (match (spans_out, t.W.spans) with
  | Some path, Some sp ->
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Ra_obs.Export.spans_jsonl sp))
  | _ -> ());
  let coverage = value "trace.coverage_pct" in
  let gate =
    if r.size = W.Smoke || (coverage >= 90.0 && coverage <= 110.0) then Ok ()
    else Error (Printf.sprintf "layer spans cover %.1f%% of traced op time (gate 90-110%%)" coverage)
  in
  {
    metrics = List.map (fun (n, u) -> (n, u, value n)) per_layer;
    attempted = c.W.ops + t.W.t_ops;
    failed = c.W.failed + t.W.t_failed;
    digest = c.W.digest;
    repeats = 1;
    quartiles = [ ("op_us", M.summarize c.W.samples_us) ];
    gate;
  }

let digest_ok r res =
  r.seed <> default_seed || String.equal res.digest (expected_digest r.workload.W.name r.size)

let correct r res = res.failed = 0 && res.attempted > 0 && digest_ok r res

(* ---- result JSON ----------------------------------------------------------- *)

let metrics_json res =
  Json.Obj
    (List.map
       (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
       res.metrics)

let result_line r res =
  Json.Obj
    [
      ("correct", Json.Bool (correct r res));
      ("attempted", Json.Num (float_of_int res.attempted));
      ("failed", Json.Num (float_of_int res.failed));
      ("metrics", metrics_json res);
    ]

let summary_json (s : M.summary) =
  Json.Obj
    [
      ("n", Json.Num (float_of_int s.M.n));
      ("q1", Json.Num s.M.q1);
      ("median", Json.Num s.M.median);
      ("q3", Json.Num s.M.q3);
      ("p99", Json.Num s.M.p99);
    ]

let host_json () =
  Json.Obj
    [
      ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("os", Json.Str Sys.os_type);
      ("word_size", Json.Num (float_of_int Sys.word_size));
    ]

let record_json r res =
  Json.Obj
    [
      ("workload", Json.Str r.workload.W.name);
      ("seed", Json.Str (Int64.to_string r.seed));
      ("seconds", Json.Num r.seconds);
      ("trace", Json.Bool r.trace);
      ("smoke", Json.Bool (r.size = W.Smoke));
      ("commit", Json.Str r.commit);
      ("host", host_json ());
      ("repeats", Json.Num (float_of_int res.repeats));
      ("quartiles", Json.Obj (List.map (fun (k, s) -> (k, summary_json s)) res.quartiles));
      ("digest", Json.Str res.digest);
      ("correct", Json.Bool (correct r res));
      ("attempted", Json.Num (float_of_int res.attempted));
      ("failed", Json.Num (float_of_int res.failed));
      ("metrics", metrics_json res);
    ]

let print_report r res =
  let w = r.workload in
  Printf.printf "%s (%s%s, seed %Ld, one op = one %s)\n" w.W.name
    (if r.trace then "traced" else "untraced")
    (if r.size = W.Smoke then ", smoke" else "")
    r.seed w.W.op;
  List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.4f %s\n" n v u) res.metrics;
  let op_us = List.assoc "op_us" res.quartiles in
  Printf.printf "  op_us quartiles %.2f / %.2f / %.2f, p99 %.2f (n = %d samples, %d repeats)\n"
    op_us.M.q1 op_us.M.median op_us.M.q3 op_us.M.p99 op_us.M.n res.repeats;
  Printf.printf "  attempted %d, failed %d, digest %s%s\n" res.attempted res.failed res.digest
    (if r.seed <> default_seed then ""
     else if digest_ok r res then " (matches)"
     else Printf.sprintf " (EXPECTED %s)" (expected_digest w.W.name r.size));
  match res.gate with Ok () -> () | Error e -> Printf.printf "  trace gate FAILED: %s\n" e

let execute ?out ?spans_out r =
  let res = if r.trace then run_traced ?spans_out r else run_e2e r in
  print_report r res;
  (match out with
  | None -> ()
  | Some path ->
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
        output_string oc (Json.to_string (record_json r res) ^ "\n")));
  print_endline (Json.to_string (result_line r res));
  if not (correct r res) then 1 else match res.gate with Ok () -> 0 | Error _ -> 3

(* ---- reading result files and BENCHMARK.json ------------------------------ *)

let read_json path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let read_jsonl path =
  match Ra_obs.Export.parse_jsonl (In_channel.with_open_text path In_channel.input_all) with
  | Ok l -> l
  | Error e -> failwith (path ^ ": " ^ e)

let str k j = Option.bind (Json.member k j) Json.as_string
let num k j = Option.bind (Json.member k j) Json.as_float
let list k j = match Json.member k j with Some (Json.Arr l) -> l | _ -> []
let flag k j = Json.member k j = Some (Json.Bool true)

type bound = { b_name : string; b_unit : string; lower_better : bool; bound : float }

let bounds benchmark =
  List.filter_map
    (fun m ->
      match (str "name" m, str "unit" m, str "better" m, num "bound" m) with
      | Some b_name, Some b_unit, Some better, Some bound ->
        Some { b_name; b_unit; lower_better = better = "lower"; bound }
      | _ -> None)
    (list "end_to_end" benchmark)

let metric_value name record =
  Option.bind (Json.member "metrics" record) (fun m ->
      Option.bind (Json.member name m) (num "value"))

(* End-to-end records of one workload, in file order. *)
let runs_of records workload =
  List.filter
    (fun j -> str "workload" j = Some workload && not (flag "trace" j))
    records

let workloads_in records =
  List.sort_uniq compare
    (List.filter_map (fun j -> if flag "trace" j then None else str "workload" j) records)

let values name runs = Array.of_list (List.filter_map (metric_value name) runs)

let failed_pct runs =
  Array.of_list
    (List.filter_map
       (fun j ->
         match (num "failed" j, num "attempted" j) with
         | Some f, Some a when a > 0.0 -> Some (100.0 *. f /. a)
         | _ -> None)
       runs)

(* ---- compare ----------------------------------------------------------------- *)

(* The rule of the choosing-metrics guide, section 8: a regression is a
   median worse than the parent's by more than the metric's bound; a gain
   needs the change to win nine tenths of the (index-paired) runs by more
   than the parent's own interquartile spread; a metric whose parent
   spread is wider than its bound is unresolved unless every change run
   beats every parent run. *)
let verdict ~lower_better ~bound a b =
  let sa = M.summarize a and sb = M.summarize b in
  let better x y = if lower_better then x < y else x > y in
  let worse_by =
    (if lower_better then sb.M.median -. sa.M.median else sa.M.median -. sb.M.median)
    /. Float.abs sa.M.median
  in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr wins
  done;
  let spread = sa.M.q3 -. sa.M.q1 in
  let dominates =
    Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b
  in
  let label =
    if worse_by > bound then "worse"
    else if
      dominates
      || (10 * !wins >= 9 * pairs && Float.abs (sb.M.median -. sa.M.median) > spread
         && better sb.M.median sa.M.median)
    then "better"
    else if spread /. Float.abs sa.M.median > bound then "unresolved"
    else "unchanged"
  in
  (label, sa, sb)

let compare_cmd ~benchmark a_path b_path =
  let bounds = bounds (read_json benchmark) in
  let a = read_jsonl a_path and b = read_jsonl b_path in
  let regressions = ref 0 in
  Printf.printf "%-18s %-14s %12s %25s %25s  %s\n" "workload" "metric" "bound"
    "parent q1/median/q3" "change q1/median/q3" "label";
  let row w name bound (label, (sa : M.summary), (sb : M.summary)) =
    if label = "worse" then incr regressions;
    Printf.printf "%-18s %-14s %11.1f%% %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g  %s\n" w name
      (100.0 *. bound) sa.M.q1 sa.M.median sa.M.q3 sb.M.q1 sb.M.median sb.M.q3 label
  in
  List.iter
    (fun w ->
      let ra = runs_of a w and rb = runs_of b w in
      if rb = [] then Printf.printf "%-18s (no change runs)\n" w
      else begin
        if List.length ra < 10 || List.length rb < 10 then
          Printf.printf "%-18s note: %d parent / %d change runs; the rule asks for >= 10 each\n"
            w (List.length ra) (List.length rb);
        List.iter
          (fun bd ->
            let va = values bd.b_name ra and vb = values bd.b_name rb in
            if Array.length va > 0 && Array.length vb > 0 then
              row w bd.b_name bd.bound
                (verdict ~lower_better:bd.lower_better ~bound:bd.bound va vb))
          bounds;
        (* any rise in the failure share is a regression *)
        let fa = failed_pct ra and fb = failed_pct rb in
        let sa = M.summarize fa and sb = M.summarize fb in
        row w "failed_pct" 0.0
          ((if sb.M.median > sa.M.median then "worse" else "unchanged"), sa, sb)
      end)
    (workloads_in a);
  if !regressions > 0 then begin
    Printf.printf "%d regression(s) beyond their bounds\n" !regressions;
    1
  end
  else 0

(* ---- summary: the baseline document --------------------------------------- *)

let rec pretty ?(indent = 0) j =
  let pad n = String.make n ' ' in
  match j with
  | Json.Obj fields when fields <> [] ->
    "{\n"
    ^ String.concat ",\n"
        (List.map
           (fun (k, v) ->
             pad (indent + 2) ^ Json.to_string (Json.Str k) ^ ": " ^ pretty ~indent:(indent + 2) v)
           fields)
    ^ "\n" ^ pad indent ^ "}"
  | j -> Json.to_string j

let summary_cmd path =
  let records = read_jsonl path in
  let per_workload w =
    let runs = runs_of records w in
    let metric name =
      let s = M.summarize (values name runs) in
      ( name,
        Json.Obj
          [
            ("median", Json.Num s.M.median);
            ("q1", Json.Num s.M.q1);
            ("q3", Json.Num s.M.q3);
            ("iqr_pct", Json.Num (100.0 *. (s.M.q3 -. s.M.q1) /. Float.abs s.M.median));
          ] )
    in
    let first = List.hd runs in
    ( w,
      Json.Obj
        [
          ("runs", Json.Num (float_of_int (List.length runs)));
          ("seeds", Json.Str (String.concat " " (List.filter_map (str "seed") runs)));
          ("seconds", Option.value (Json.member "seconds" first) ~default:Json.Null);
          ("commit", Option.value (Json.member "commit" first) ~default:Json.Null);
          ("host", Option.value (Json.member "host" first) ~default:Json.Null);
          ( "median_repeats",
            Json.Num (M.median (Array.of_list (List.filter_map (num "repeats") runs))) );
          ("failed_pct", Json.Num (M.median (failed_pct runs)));
          ("metrics", Json.Obj (List.map (fun (n, _) -> metric n) end_to_end));
        ] )
  in
  print_endline (pretty (Json.Obj (List.map per_workload (workloads_in records))));
  0

(* ---- selftest ------------------------------------------------------------- *)

(* Every workload at smoke size, untraced and traced, in this process:
   outputs must be correct, digests must match, and every metric
   BENCHMARK.json names must be emitted with its unit. *)
let selftest ~benchmark =
  let spec = read_json benchmark in
  let names k = List.filter_map (str "name") (list k spec) in
  let units k = List.filter_map (fun m -> Option.map (fun n -> (n, str "unit" m)) (str "name" m)) (list k spec) in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let builtin = List.map (fun w -> w.W.name) W.all in
  if List.sort compare (names "workloads") <> List.sort compare builtin then
    fail "BENCHMARK.json workloads %s differ from the built-in %s"
      (String.concat "," (names "workloads"))
      (String.concat "," builtin);
  List.iter
    (fun w ->
      List.iter
        (fun (trace, declared) ->
          let r =
            { workload = w; size = W.Smoke; seed = default_seed; seconds = 0.0; trace; commit = "" }
          in
          let res = if trace then run_traced r else run_e2e r in
          let mode = if trace then "traced" else "untraced" in
          if not (correct r res) then
            fail "%s %s: failed %d of %d, digest %s (expected %s)" w.W.name mode res.failed
              res.attempted res.digest (expected_digest w.W.name W.Smoke);
          List.iter
            (fun (n, u) ->
              match List.find_opt (fun (m, _, _) -> m = n) res.metrics with
              | None -> fail "%s %s: metric %s not emitted" w.W.name mode n
              | Some (_, u', v) ->
                if Some u' <> u then fail "%s %s: metric %s has unit %s" w.W.name mode n u';
                if not (Float.is_finite v) then fail "%s %s: metric %s is %f" w.W.name mode n v)
            declared)
        [ (false, units "end_to_end"); (true, units "per_layer") ])
    W.all;
  match List.rev !problems with
  | [] ->
    Printf.printf "ra_bench selftest: %d workloads ok\n" (List.length W.all);
    0
  | ps ->
    List.iter (Printf.printf "ra_bench selftest: %s\n") ps;
    1

(* ---- command line ------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: ra_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
    \                [--commit C] [--out FILE.jsonl] [--spans FILE.jsonl]\n\
    \       ra_bench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]\n\
    \       ra_bench summary RESULTS.jsonl\n\
    \       ra_bench selftest --benchmark BENCHMARK.json";
  2

let main argv =
  match argv with
  | "compare" :: a :: b :: rest ->
    let benchmark = match rest with [ "--benchmark"; f ] -> f | _ -> "BENCHMARK.json" in
    compare_cmd ~benchmark a b
  | [ "summary"; path ] -> summary_cmd path
  | [ "selftest"; "--benchmark"; f ] -> selftest ~benchmark:f
  | args -> (
    let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
    let trace = ref false and smoke = ref false and commit = ref "unknown" in
    let out = ref None and spans = ref None in
    let rec parse = function
      | [] -> true
      | "--workload" :: v :: rest ->
        workload := v;
        parse rest
      | "--seed" :: v :: rest -> (
        match Int64.of_string_opt v with
        | Some s ->
          seed := s;
          parse rest
        | None -> false)
      | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 ->
          seconds := s;
          parse rest
        | _ -> false)
      | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
      | "--smoke" :: rest ->
        smoke := true;
        parse rest
      | "--commit" :: v :: rest ->
        commit := v;
        parse rest
      | "--out" :: v :: rest ->
        out := Some v;
        parse rest
      | "--spans" :: v :: rest ->
        spans := Some v;
        parse rest
      | _ -> false
    in
    match (parse args, W.find !workload) with
    | false, _ | _, None -> usage ()
    | true, Some w ->
      (* smoke results never land in a full-run file *)
      let smoke_file p = Filename.check_suffix p ".smoke.json" || Filename.check_suffix p ".smoke.jsonl" in
      if !smoke && not (Option.fold ~none:true ~some:smoke_file !out) then begin
        prerr_endline "ra_bench: --smoke writes only to *.smoke.json / *.smoke.jsonl";
        2
      end
      else
        execute ?out:!out ?spans_out:!spans
          {
            workload = w;
            size = (if !smoke then W.Smoke else W.Full);
            seed = !seed;
            seconds = !seconds;
            trace = !trace;
            commit = !commit;
          })

let () = exit (main (List.tl (Array.to_list Sys.argv)))
