(* Ra_obs causal-tracing primitives: the flight-recorder ring, tracer
   event trees, the trace-JSON round-trip, SLO arithmetic, the registry
   cardinality cap and Prometheus label escaping. *)

open Ra_obs

let contains needle hay = Ra_net.Trace.contains_substring ~needle hay

(* --- Recorder: bounded ring --- *)

let test_recorder_eviction_order () =
  let r = Recorder.create ~capacity:3 in
  List.iter (Recorder.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "oldest evicted first" [ 3; 4; 5 ] (Recorder.to_list r);
  Alcotest.(check int) "length capped" 3 (Recorder.length r);
  Alcotest.(check int) "evictions counted" 2 (Recorder.evicted r);
  Alcotest.(check (option int)) "latest" (Some 5) (Recorder.latest r);
  Alcotest.(check int) "capacity" 3 (Recorder.capacity r)

let test_recorder_capacity_one () =
  let r = Recorder.create ~capacity:1 in
  Alcotest.(check (option string)) "empty" None (Recorder.latest r);
  Recorder.push r "a";
  Recorder.push r "b";
  Alcotest.(check (list string)) "only the newest survives" [ "b" ]
    (Recorder.to_list r);
  Alcotest.(check int) "one eviction" 1 (Recorder.evicted r)

let test_recorder_clear () =
  let r = Recorder.create ~capacity:2 in
  List.iter (Recorder.push r) [ 1; 2; 3 ];
  Recorder.clear r;
  Alcotest.(check (list int)) "empty after clear" [] (Recorder.to_list r);
  Alcotest.(check int) "eviction count zeroed" 0 (Recorder.evicted r);
  Recorder.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Recorder.to_list r)

let test_recorder_invalid_capacity () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Ra_obs.Recorder.create: capacity must be >= 1") (fun () ->
      ignore (Recorder.create ~capacity:0))

(* --- Tracer: event trees --- *)

let make_tracer ?capacity ?max_events () =
  let now = ref 0.0 in
  let t =
    Trace.create ?capacity ?max_events ~device:"testdev"
      ~clock:(fun () -> !now)
      ()
  in
  (t, now)

let events_named name rd =
  List.filter (fun e -> e.Trace.ev_name = name) rd.Trace.rd_events

let test_tracer_tree () =
  let t, now = make_tracer () in
  let id = Trace.begin_round t in
  Alcotest.(check (option int)) "round open" (Some id) (Trace.current_trace_id t);
  now := 1.0;
  let s1 = Trace.span t ~cat:"retry" "retry.attempt" in
  now := 2.0;
  Trace.instant t ~cat:"net" "net.tx";
  now := 3.0;
  Trace.finish_span t s1;
  now := 4.0;
  Trace.instant t ~cat:"verdict" ~labels:[ ("verdict", "trusted") ] "verdict";
  now := 5.0;
  Trace.end_round t ~verdict:"trusted" ~attempts:1;
  match Trace.rounds t with
  | [ rd ] ->
    Alcotest.(check int) "trace id" id rd.Trace.rd_trace_id;
    Alcotest.(check string) "device" "testdev" rd.Trace.rd_device;
    Alcotest.(check string) "verdict" "trusted" rd.Trace.rd_verdict;
    Alcotest.(check int) "four events" 4 (List.length rd.Trace.rd_events);
    let root = List.hd rd.Trace.rd_events in
    Alcotest.(check int) "root id 0" 0 root.Trace.ev_id;
    Alcotest.(check string) "root name" Trace.root_span_name root.Trace.ev_name;
    Alcotest.(check bool) "root parentless" true (root.Trace.ev_parent = None);
    Alcotest.(check (float 0.0)) "root spans the round" 5.0 root.Trace.ev_stop;
    let attempt = List.hd (events_named "retry.attempt" rd) in
    Alcotest.(check bool) "attempt under root" true
      (attempt.Trace.ev_parent = Some 0);
    Alcotest.(check (float 0.0)) "attempt closed at finish" 3.0
      attempt.Trace.ev_stop;
    let tx = List.hd (events_named "net.tx" rd) in
    Alcotest.(check bool) "tx under the open attempt" true
      (tx.Trace.ev_parent = Some attempt.Trace.ev_id);
    Alcotest.(check bool) "instants are zero-width" true
      (tx.Trace.ev_start = tx.Trace.ev_stop);
    let verdict = List.hd (events_named "verdict" rd) in
    Alcotest.(check bool) "verdict under root again" true
      (verdict.Trace.ev_parent = Some 0);
    (* ids unique, events chronological *)
    let ids = List.map (fun e -> e.Trace.ev_id) rd.Trace.rd_events in
    Alcotest.(check int) "unique ids" (List.length ids)
      (List.length (List.sort_uniq compare ids));
    let starts = List.map (fun e -> e.Trace.ev_start) rd.Trace.rd_events in
    Alcotest.(check bool) "sorted by start" true
      (starts = List.sort compare starts)
  | rds -> Alcotest.failf "expected one sealed round, got %d" (List.length rds)

let test_tracer_max_events () =
  let t, _ = make_tracer ~max_events:2 () in
  ignore (Trace.begin_round t);
  for _ = 1 to 5 do
    Trace.instant t "tick"
  done;
  Trace.end_round t ~verdict:"done" ~attempts:1;
  match Trace.rounds t with
  | [ rd ] ->
    Alcotest.(check int) "budget kept" 2 (List.length rd.Trace.rd_events);
    Alcotest.(check int) "drops counted" 4 rd.Trace.rd_dropped
  | _ -> Alcotest.fail "expected one sealed round"

let test_tracer_abandoned_round () =
  let t, _ = make_tracer () in
  let first = Trace.begin_round t in
  Trace.instant t "orphan";
  let second = Trace.begin_round t in
  Alcotest.(check bool) "fresh id" true (second <> first);
  Trace.end_round t ~verdict:"trusted" ~attempts:1;
  match Trace.rounds t with
  | [ a; b ] ->
    Alcotest.(check string) "implicit seal" "abandoned" a.Trace.rd_verdict;
    Alcotest.(check int) "first id" first a.Trace.rd_trace_id;
    Alcotest.(check string) "explicit seal" "trusted" b.Trace.rd_verdict
  | rds -> Alcotest.failf "expected two rounds, got %d" (List.length rds)

let test_tracer_with_span_exception () =
  let t, _ = make_tracer () in
  ignore (Trace.begin_round t);
  (try Trace.with_span t "boom" (fun () -> failwith "kaboom")
   with Failure _ -> ());
  Trace.end_round t ~verdict:"faulted" ~attempts:1;
  match Trace.rounds t with
  | [ rd ] ->
    let sp = List.hd (events_named "boom" rd) in
    Alcotest.(check (option string)) "outcome label" (Some "raised")
      (List.assoc_opt "outcome" sp.Trace.ev_labels)
  | _ -> Alcotest.fail "expected one sealed round"

(* --- SLO arithmetic --- *)

let test_slo_exact_threshold () =
  let p99 = Slo.objective ~unit:"s" ~name:"p99" ~limit:60.0 Slo.At_most in
  Alcotest.(check bool) "at_most meets exactly" true
    (Slo.compliant p99 ~observed:60.0);
  Alcotest.(check bool) "over breaches" false (Slo.compliant p99 ~observed:60.001);
  Alcotest.(check (float 1e-9)) "margin zero at the limit" 0.0
    (Slo.margin p99 ~observed:60.0);
  let conv = Slo.objective ~unit:"%" ~name:"conv" ~limit:99.0 Slo.At_least in
  Alcotest.(check bool) "at_least meets exactly" true
    (Slo.compliant conv ~observed:99.0);
  Alcotest.(check bool) "under breaches" false (Slo.compliant conv ~observed:98.5);
  Alcotest.(check (float 1e-9)) "headroom positive inside" 1.0
    (Slo.margin conv ~observed:100.0);
  Alcotest.(check (float 1e-9)) "headroom negative outside" (-0.5)
    (Slo.margin conv ~observed:98.5)

let test_slo_evaluate_metrics () =
  let obj = Slo.objective ~unit:"s" ~name:"slo_test_latency" ~limit:1.0 Slo.At_most in
  let evals =
    Registry.Counter.get
      ~labels:[ ("objective", "slo_test_latency") ]
      "ra_slo_evaluations_total"
  in
  let breach_counter =
    Registry.Counter.get
      ~labels:[ ("objective", "slo_test_latency") ]
      "ra_slo_breaches_total"
  in
  let e0 = Registry.Counter.value evals in
  let b0 = Registry.Counter.value breach_counter in
  let ok = Slo.evaluate ~scope:"test" obj ~observed:0.5 in
  let bad = Slo.evaluate ~scope:"test" obj ~observed:2.0 in
  Alcotest.(check bool) "ok check" true ok.Slo.ck_ok;
  Alcotest.(check bool) "breach check" false bad.Slo.ck_ok;
  Alcotest.(check int) "evaluations counted" (e0 + 2) (Registry.Counter.value evals);
  Alcotest.(check int) "breaches counted" (b0 + 1)
    (Registry.Counter.value breach_counter);
  Alcotest.(check (list (of_pp Fmt.nop))) "breaches filter" [ bad ]
    (Slo.breaches [ ok; bad ]);
  Alcotest.(check (list (of_pp Fmt.nop))) "no breaches in empty" []
    (Slo.breaches []);
  (* the typed breach record keeps what was judged *)
  Alcotest.(check (float 1e-9)) "observed field" 2.0 bad.Slo.ck_observed;
  Alcotest.(check string) "scope field" "test" bad.Slo.ck_scope

(* --- registry cardinality cap --- *)

let test_registry_series_cap () =
  let r = Registry.create () in
  Alcotest.(check int) "default limit" Registry.default_max_series
    (Registry.series_limit r);
  Registry.set_series_limit r 4;
  let handles =
    List.init 6 (fun i ->
        Registry.Counter.get ~registry:r
          ~labels:[ ("dev", Printf.sprintf "dev-%d" i) ]
          "cap_total")
  in
  List.iter Registry.Counter.inc handles;
  Alcotest.(check int) "family capped" 4 (Registry.series_count r "cap_total");
  let dropped =
    Registry.Counter.get ~registry:r
      ~labels:[ ("metric", "cap_total") ]
      Registry.dropped_series_name
  in
  Alcotest.(check int) "drops counted" 2 (Registry.Counter.value dropped);
  (* over-cap handles stay live, they just are not exported *)
  let overflow = List.nth handles 5 in
  Registry.Counter.inc overflow;
  Alcotest.(check int) "overflow handle live" 2 (Registry.Counter.value overflow);
  let text = Export.render_prometheus r in
  Alcotest.(check bool) "registered series exported" true
    (contains "dev=\"dev-0\"" text);
  Alcotest.(check bool) "dropped series absent" false (contains "dev-5" text);
  Alcotest.(check bool) "drop counter exported" true
    (contains "ra_obs_dropped_series_total{metric=\"cap_total\"} 2" text);
  Alcotest.check_raises "limit >= 1"
    (Invalid_argument "Ra_obs.Registry.set_series_limit: limit must be >= 1")
    (fun () -> Registry.set_series_limit r 0)

(* --- Prometheus label escaping (regression) --- *)

let test_prometheus_label_escaping () =
  let r = Registry.create () in
  let hostile = "a\\b\"c\nd" in
  let c = Registry.Counter.get ~registry:r ~labels:[ ("dev", hostile) ] "esc_total" in
  Registry.Counter.inc c;
  let text = Export.render_prometheus r in
  Alcotest.(check bool) "escaped exactly" true
    (contains "esc_total{dev=\"a\\\\b\\\"c\\nd\"} 1" text);
  (* the raw newline must not survive: every exposition line is complete *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if contains "esc_total{" line then
           Alcotest.(check bool) "value on the same line" true (contains "} 1" line))

let tests =
  [
    Alcotest.test_case "recorder eviction order" `Quick test_recorder_eviction_order;
    Alcotest.test_case "recorder capacity one" `Quick test_recorder_capacity_one;
    Alcotest.test_case "recorder clear" `Quick test_recorder_clear;
    Alcotest.test_case "recorder invalid capacity" `Quick
      test_recorder_invalid_capacity;
    Alcotest.test_case "tracer event tree" `Quick test_tracer_tree;
    Alcotest.test_case "tracer event budget" `Quick test_tracer_max_events;
    Alcotest.test_case "tracer abandoned round" `Quick test_tracer_abandoned_round;
    Alcotest.test_case "tracer span exception" `Quick
      test_tracer_with_span_exception;
    Alcotest.test_case "slo exact threshold" `Quick test_slo_exact_threshold;
    Alcotest.test_case "slo evaluate metrics" `Quick test_slo_evaluate_metrics;
    Alcotest.test_case "registry series cap" `Quick test_registry_series_cap;
    Alcotest.test_case "prometheus label escaping" `Quick
      test_prometheus_label_escaping;
  ]
