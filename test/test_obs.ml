(* Ra_obs: metrics registry semantics, span tracing over Simtime, JSONL
   round-trips and the shard-count invariance of merged sweep metrics. *)

open Ra_obs
module Simtime = Ra_net.Simtime

let fresh () = Registry.create ()

(* --- counters --- *)

let test_counter_semantics () =
  let r = fresh () in
  let c = Registry.Counter.get ~registry:r "requests_total" in
  Alcotest.(check int) "starts at zero" 0 (Registry.Counter.value c);
  Registry.Counter.inc c;
  Registry.Counter.inc ~by:4 c;
  Alcotest.(check int) "accumulates" 5 (Registry.Counter.value c);
  (* same (name, labels) -> same underlying series *)
  let c' = Registry.Counter.get ~registry:r "requests_total" in
  Registry.Counter.inc c';
  Alcotest.(check int) "shared series" 6 (Registry.Counter.value c);
  Alcotest.check_raises "monotonic"
    (Invalid_argument "Ra_obs counter: negative increment") (fun () ->
      Registry.Counter.inc ~by:(-1) c)

let test_label_canonicalization () =
  let r = fresh () in
  let a =
    Registry.Counter.get ~registry:r ~labels:[ ("x", "1"); ("a", "2") ] "m_total"
  in
  (* same label set, different order: must resolve to the same series *)
  let b =
    Registry.Counter.get ~registry:r ~labels:[ ("a", "2"); ("x", "1") ] "m_total"
  in
  Registry.Counter.inc a;
  Registry.Counter.inc b;
  Alcotest.(check int) "one series" 2 (Registry.Counter.value a);
  (* a different label value is a different series of the same family *)
  let other =
    Registry.Counter.get ~registry:r ~labels:[ ("a", "3"); ("x", "1") ] "m_total"
  in
  Alcotest.(check int) "distinct series" 0 (Registry.Counter.value other);
  Alcotest.(check int) "two series in the family" 2
    (List.length (Registry.snapshot r))

let test_kind_conflict () =
  let r = fresh () in
  let _ = Registry.Counter.get ~registry:r "mixed" in
  Alcotest.check_raises "kind is per family"
    (Invalid_argument "Ra_obs.Registry: mixed is already registered as a counter")
    (fun () -> ignore (Registry.Gauge.get ~registry:r "mixed"))

(* --- gauges --- *)

let test_gauge () =
  let r = fresh () in
  let g = Registry.Gauge.get ~registry:r "temperature" in
  Registry.Gauge.set g 21.5;
  Registry.Gauge.add g 0.5;
  Alcotest.(check (float 1e-9)) "set+add" 22.0 (Registry.Gauge.value g);
  Registry.Gauge.add g (-23.0);
  Alcotest.(check (float 1e-9)) "gauges go down" (-1.0) (Registry.Gauge.value g)

(* --- histograms --- *)

let test_histogram () =
  let r = fresh () in
  let h =
    Registry.Histogram.get ~registry:r ~buckets:[| 1.0; 5.0; 10.0 |] "lat_ms"
  in
  List.iter (Registry.Histogram.observe h) [ 0.5; 1.0; 3.0; 7.0; 99.0 ];
  Alcotest.(check int) "count" 5 (Registry.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 110.5 (Registry.Histogram.sum h);
  (* per-bucket (le, n): 1.0 is inclusive; 99 overflows to +Inf *)
  let buckets = Registry.Histogram.buckets h in
  Alcotest.(check (list (pair (float 0.0) int)))
    "bucket assignment"
    [ (1.0, 2); (5.0, 1); (10.0, 1); (infinity, 1) ]
    buckets;
  Alcotest.(check (float 1e-9)) "p50" 5.0 (Registry.Histogram.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p100 overflows" infinity
    (Registry.Histogram.percentile h 100.0);
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan
       (Registry.Histogram.percentile
          (Registry.Histogram.get ~registry:r "empty_ms") 50.0));
  Alcotest.check_raises "bounds must increase"
    (Invalid_argument "Ra_obs histogram: bucket bounds must be strictly increasing")
    (fun () ->
      ignore (Registry.Histogram.get ~registry:r ~buckets:[| 2.0; 2.0 |] "bad_ms"))

let test_reset_keeps_handles () =
  let r = fresh () in
  let c = Registry.Counter.get ~registry:r "c_total" in
  let h = Registry.Histogram.get ~registry:r "h_ms" in
  Registry.Counter.inc ~by:7 c;
  Registry.Histogram.observe h 1.0;
  Registry.reset r;
  Alcotest.(check int) "counter zeroed" 0 (Registry.Counter.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Registry.Histogram.count h);
  (* the handle acquired before reset still feeds the same series *)
  Registry.Counter.inc c;
  Alcotest.(check int) "handle survives" 1 (Registry.Counter.value c)

let test_domain_safety () =
  let r = fresh () in
  let c = Registry.Counter.get ~registry:r "par_total" in
  let h = Registry.Histogram.get ~registry:r ~buckets:[| 10.0 |] "par_ms" in
  let worker () =
    for _ = 1 to 10_000 do
      Registry.Counter.inc c;
      Registry.Histogram.observe h 1.0
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost counter increments" 40_000
    (Registry.Counter.value c);
  Alcotest.(check int) "no lost observations" 40_000 (Registry.Histogram.count h);
  Alcotest.(check (float 1e-6)) "no lost sum" 40_000.0 (Registry.Histogram.sum h)

(* --- spans over simulated time --- *)

let test_span_nesting_over_simtime () =
  (* one nesting, run on each kind of context *)
  let nest make =
    let time = Simtime.create () in
    let ctx = make ~clock:(fun () -> Simtime.now time) in
    let outer = Span.enter ctx "attest.round" in
    Simtime.advance_by time 0.100;
    let inner = Span.enter ctx ~labels:[ ("scheme", "hmac_sha1") ] "anchor.mac" in
    Simtime.advance_by time 0.654;
    Span.exit ctx inner;
    Simtime.advance_by time 0.046;
    Span.exit ctx ~labels:[ ("result", "attested") ] outer;
    Alcotest.(check int) "balanced" 0 (Span.open_count ctx);
    ctx
  in
  (* a no_registry context keeps the finished list *)
  (match Span.finished (nest (fun ~clock -> Span.no_registry ~clock ())) with
  | [ i; o ] ->
    (* completion order: the inner span finishes first *)
    Alcotest.(check string) "inner name" "anchor.mac" i.Span.f_name;
    Alcotest.(check int) "inner depth" 1 i.Span.f_depth;
    Alcotest.(check bool) "inner parent is outer" true
      (i.Span.f_parent = Some o.Span.f_id);
    Alcotest.(check (option string)) "parent name" (Some "attest.round")
      i.Span.f_parent_name;
    Alcotest.(check (float 1e-6)) "inner simulated ms" 654.0 (Span.duration_ms i);
    Alcotest.(check int) "outer depth" 0 o.Span.f_depth;
    Alcotest.(check (float 1e-6)) "outer simulated ms" 800.0 (Span.duration_ms o);
    Alcotest.(check bool) "exit labels appended" true
      (List.mem_assoc "result" o.Span.f_labels)
  | l -> Alcotest.failf "expected 2 finished spans, got %d" (List.length l));
  (* a registry context mirrors every exit into the ra_span_ms{span=...}
     histogram and keeps no list *)
  let r = fresh () in
  let ctx = nest (fun ~clock -> Span.create ~registry:r ~clock ()) in
  Alcotest.(check int) "registry context keeps no list" 0
    (List.length (Span.finished ctx));
  let hist name =
    Registry.Histogram.get ~registry:r ~labels:[ ("span", name) ] "ra_span_ms"
  in
  Alcotest.(check int) "histogram mirror" 1
    (Registry.Histogram.count (hist "anchor.mac"));
  Alcotest.(check (float 1e-6)) "histogram sum is ms" 800.0
    (Registry.Histogram.sum (hist "attest.round"))

let test_with_span_exception () =
  let ctx = Span.no_registry ~clock:(fun () -> 0.0) () in
  (try Span.with_span ctx "doomed" (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check int) "closed on raise" 0 (Span.open_count ctx);
  match Span.finished ctx with
  | [ f ] ->
    Alcotest.(check (option string)) "outcome label" (Some "raised")
      (List.assoc_opt "outcome" f.Span.f_labels)
  | _ -> Alcotest.fail "expected one finished span"

(* Exits find their histogram handle in a per-domain cache. Across two
   registries each span lands in its own, and a span family over its
   series cap still counts a drop at every exit, as when each exit
   asked the registry. *)
let test_span_handles_per_registry () =
  let exits registry name n =
    let ctx = Span.create ~registry ~clock:(fun () -> 0.0) () in
    for _ = 1 to n do
      Span.exit ctx (Span.enter ctx name)
    done
  in
  let a = Registry.create () and b = Registry.create () in
  exits a "cached" 2;
  exits b "cached" 3;
  exits a "cached" 1;
  let count r =
    Registry.Histogram.count
      (Registry.Histogram.get ~registry:r ~labels:[ ("span", "cached") ] "ra_span_ms")
  in
  Alcotest.(check (pair int int)) "each registry observed its own exits" (3, 3) (count a, count b);
  let capped = Registry.create () in
  Registry.set_series_limit capped 1;
  exits capped "first" 1;
  exits capped "over" 3;
  let dropped =
    Registry.Counter.get ~registry:capped ~labels:[ ("metric", "ra_span_ms") ]
      Registry.dropped_series_name
  in
  Alcotest.(check int) "a drop counted per over-cap exit" 3 (Registry.Counter.value dropped)

(* --- JSON + JSONL sinks --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "quote \" slash \\ newline \n unicode \x01");
        ("n", Json.Num 1.5);
        ("i", Json.Num 42.0);
        ("arr", Json.Arr [ Json.Bool true; Json.Null; Json.Num (-0.25) ]);
        ("nested", Json.Obj [ ("k", Json.Str "") ]);
      ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trip" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (match Json.of_string "{\"a\": [1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input accepted");
  match Json.of_string "1 trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

let test_spans_jsonl_roundtrip () =
  let now = ref 0.0 in
  let ctx = Span.no_registry ~clock:(fun () -> !now) () in
  Span.with_span ctx "outer" (fun () ->
      now := 0.25;
      Span.with_span ctx "inner" (fun () -> now := 1.0));
  match Export.parse_jsonl (Export.spans_jsonl ctx) with
  | Error e -> Alcotest.failf "spans jsonl unparseable: %s" e
  | Ok [ inner; outer ] ->
    Alcotest.(check (option string)) "inner first" (Some "inner")
      (Option.bind (Json.member "span" inner) Json.as_string);
    Alcotest.(check (option (float 1e-9))) "duration in ms" (Some 750.0)
      (Option.bind (Json.member "duration_ms" inner) Json.as_float);
    Alcotest.(check (option (float 1e-9))) "root parent is null" None
      (Option.bind (Json.member "parent" outer) Json.as_float)
  | Ok l -> Alcotest.failf "expected 2 span lines, got %d" (List.length l)

let test_prometheus_exposition () =
  let r = fresh () in
  Registry.Counter.inc ~by:2
    (Registry.Counter.get ~registry:r ~labels:[ ("scheme", "hmac_sha1") ] "ok_total");
  Registry.Gauge.set (Registry.Gauge.get ~registry:r "level") 0.5;
  let h = Registry.Histogram.get ~registry:r ~buckets:[| 1.0; 5.0 |] "lat_ms" in
  Registry.Histogram.observe h 0.5;
  Registry.Histogram.observe h 3.0;
  let text = Export.render_prometheus r in
  let has needle =
    Alcotest.(check bool) needle true
      (Ra_net.Trace.contains_substring ~needle text)
  in
  has "# TYPE ok_total counter";
  has "ok_total{scheme=\"hmac_sha1\"} 2";
  has "# TYPE level gauge";
  has "# TYPE lat_ms histogram";
  (* cumulative buckets: le="5" must include the le="1" observation *)
  has "lat_ms_bucket{le=\"1\"} 1";
  has "lat_ms_bucket{le=\"5\"} 2";
  has "lat_ms_bucket{le=\"+Inf\"} 2";
  has "lat_ms_sum 3.5";
  has "lat_ms_count 2"

(* --- hostile names: every sink must escape, none may emit raw control
   bytes --- *)

let hostile = "we\"ird\\name\nwith\ttab\rret\x01ctl end"

let test_hostile_names_escaped () =
  let r = fresh () in
  Registry.Counter.inc
    (Registry.Counter.get ~registry:r ~labels:[ ("name", hostile) ] "sym_total");
  (* Prometheus exposition: label values escape backslash, quote and
     newline; no control byte may survive raw *)
  let text = Export.render_prometheus r in
  Alcotest.(check bool) "backslash escaped" true
    (Ra_net.Trace.contains_substring ~needle:"we\\\"ird\\\\name" text);
  Alcotest.(check bool) "no raw control bytes in exposition" true
    (String.for_all (fun c -> c = '\n' || Char.code c >= 0x20) text);
  (* span JSONL: the hostile label value must round-trip exactly *)
  let ctx = Span.no_registry ~clock:(fun () -> 0.0) () in
  Span.with_span ctx ~labels:[ ("name", hostile) ] "sym" ignore;
  (match Export.parse_jsonl (Export.spans_jsonl ctx) with
  | Error e -> Alcotest.failf "spans jsonl unparseable: %s" e
  | Ok [ line ] ->
    Alcotest.(check (option string)) "label round-trips" (Some hostile)
      (Option.bind
         (Option.bind (Json.member "labels" line) (Json.member "name"))
         Json.as_string)
  | Ok l -> Alcotest.failf "expected 1 line, got %d" (List.length l));
  (* raw JSON: quotes, backslashes and control chars in strings *)
  match Json.of_string (Json.to_string (Json.Str hostile)) with
  | Ok (Json.Str s) -> Alcotest.(check string) "json string round-trips" hostile s
  | _ -> Alcotest.fail "hostile string did not survive JSON"

(* --- percentile vs the exact sorted-sample oracle --- *)

let qcheck_percentile_oracle =
  QCheck.Test.make ~name:"obs: percentile matches sorted-sample oracle"
    ~count:500
    QCheck.(
      triple
        (small_list (int_range 0 20))
        (small_list (int_range 1 19))
        (int_range 0 100))
    (fun (bound_ints, obs_ints, p_int) ->
      (* a fixed bound below every observation keeps the bounds non-empty
         (the registry rejects [||]) without masking overflow-to-+inf *)
      let bounds =
        List.sort_uniq compare (-1 :: bound_ints)
        |> List.map float_of_int
        |> Array.of_list
      in
      let obs = List.map float_of_int obs_ints in
      let p = float_of_int p_int in
      let r = fresh () in
      let h = Registry.Histogram.get ~registry:r ~buckets:bounds "oracle_ms" in
      List.iter (Registry.Histogram.observe h) obs;
      let got = Registry.Histogram.percentile h p in
      match obs with
      | [] -> Float.is_nan got
      | _ ->
        (* nearest-rank on the raw samples, then the answer a histogram
           can give: the smallest bucket bound at or above that sample,
           +inf when it overflows every bound *)
        let sorted = Array.of_list (List.sort compare obs) in
        let n = Array.length sorted in
        let rank =
          int_of_float (Float.max 1.0 (Float.ceil (p /. 100.0 *. float_of_int n)))
        in
        let x = sorted.(rank - 1) in
        let expected =
          match Array.find_opt (fun b -> x <= b) bounds with
          | Some b -> b
          | None -> infinity
        in
        got = expected)

(* --- fleet: the merged registry totals are shard-count invariant --- *)

let comparable snapshot =
  (* drop histogram float sums (accumulation order differs across shard
     arenas) and keep everything integer-valued: counters, gauges, bucket
     counts *)
  List.map
    (fun (name, labels, sample) ->
      match sample with
      | Registry.Histogram_sample { hs_count; hs_buckets; _ } ->
        (name, labels, `Histogram (hs_count, hs_buckets))
      | Registry.Counter_sample v -> (name, labels, `Counter v)
      | Registry.Gauge_sample v -> (name, labels, `Gauge v))
    snapshot

let run_sweeps ~shards () =
  Registry.reset Registry.default;
  let fleet = Ra_core.Fleet.create ~ram_size:2048 ~names:[ "a"; "b"; "c" ] () in
  for _ = 1 to 2 do
    Ra_core.Fleet.advance fleet ~seconds:5.0;
    ignore (Ra_core.Fleet.sweep ~engine:(`Shards shards) fleet)
  done;
  ignore (Ra_core.Fleet.health_snapshot fleet);
  let snap = comparable (Registry.snapshot Registry.default) in
  Registry.reset Registry.default;
  snap

let test_registry_totals_shard_invariant () =
  let seq = run_sweeps ~shards:1 () in
  let par = run_sweeps ~shards:3 () in
  Alcotest.(check int) "same series set" (List.length seq) (List.length par);
  List.iter2
    (fun (n1, l1, s1) (n2, l2, s2) ->
      Alcotest.(check string) "series name" n1 n2;
      Alcotest.(check bool) (n1 ^ " labels equal") true (l1 = l2);
      Alcotest.(check bool) (n1 ^ " sample equal") true (s1 = s2))
    seq par

(* --- fleet: every metric family the fleet paths feed moves --- *)

let fleet_families =
  [
    (* sweeps and the service path *)
    "ra_attest_requests_total"; "ra_auth_verifications_total{";
    "ra_channel_sent_total{"; "ra_channel_delivered_total{";
    "ra_fleet_sweep_latency_ms_bucket{"; "ra_fleet_members{";
    "ra_service_invocations_total"; "ra_service_rejections_total{";
    "ra_verifier_verdicts_total{"; "ra_span_ms_bucket{"; "ra_device_cycles{";
    (* the chaos cell *)
    "ra_channel_impairments_total{"; "ra_chaos_rounds_total{";
    "ra_chaos_round_time_ms_bucket{"; "ra_session_rounds_total{";
    (* tracing and the SLO watchdog *)
    "ra_trace_rounds_total"; "ra_trace_events_total"; "ra_slo_evaluations_total{";
    "ra_slo_breaches_total{"; "ra_slo_margin{";
    (* the event engine *)
    "ra_sched_events_total{"; "ra_sched_queue_depth"; "ra_sched_lag_seconds_bucket{";
  ]

let test_fleet_metric_families () =
  let open Ra_core in
  Registry.reset Registry.default;
  let fleet = Fleet.create ~ram_size:2048 ~names:[ "a"; "b"; "c" ] () in
  for _ = 1 to 2 do
    Fleet.advance fleet ~seconds:10.0;
    ignore (Fleet.sweep fleet)
  done;
  Alcotest.(check int) "one trusted verdict per member sweep" 6
    (Registry.Counter.value
       (Registry.Counter.get ~labels:[ ("verdict", "trusted") ] "ra_verifier_verdicts_total"));
  (* service path on one member: a ping, then a forged and a stale request *)
  let first = Fleet.member_session (List.hd (Fleet.members fleet)) in
  Alcotest.(check bool) "ping acknowledged" true (Session.service_round first Service.Ping);
  let scheme = Verifier.scheme (Session.verifier first) in
  List.iter
    (fun (sym_key, counter) ->
      ignore
        (Service.handle (Session.service first)
           (Service.make_request ~sym_key ~scheme ~freshness:(Message.F_counter counter)
              Service.Ping)))
    [ (String.make 20 'x', 99L); (Session.sym_key first, 0L) ];
  ignore (Fleet.health_snapshot fleet);
  (* one traced chaos cell, judged by the SLO watchdog at the default
     and at an impossible latency objective *)
  Fleet.enable_tracing fleet;
  ignore
    (Fleet.chaos_sweep ~rounds_per_member:3 ~losses:[ 0.2 ]
       ~policies:[ ("default", Retry.default) ]
       fleet);
  ignore (Fleet.slo_watch fleet);
  ignore (Fleet.slo_watch ~policy:{ Fleet.default_slo_policy with slo_max_p99_s = 0.0 } fleet);
  List.iter
    (fun m ->
      Alcotest.(check int) (Fleet.member_name m ^ " spans balanced") 0
        (Span.open_count (Ra_net.Trace.spans (Session.trace (Fleet.member_session m)))))
    (Fleet.members fleet);
  let lines = String.split_on_char '\n' (Export.render_prometheus Registry.default) in
  List.iter
    (fun family ->
      (* a series of the family with a non-zero sample: the run fed it
         (the queue-depth gauge drains back to zero, so it need only be
         exposed) *)
      Alcotest.(check bool) (family ^ " exposed and fed") true
        (List.exists
           (fun line ->
             String.starts_with ~prefix:family line
             &&
             match String.split_on_char ' ' line with
             | _ :: v :: _ ->
               family = "ra_sched_queue_depth" || float_of_string_opt v <> Some 0.0
             | _ -> false)
           lines))
    fleet_families;
  List.iter
    (fun reason ->
      let line = Printf.sprintf "ra_service_rejections_total{reason=\"%s\"} 1" reason in
      Alcotest.(check bool) line true (List.mem line lines))
    [ "bad_auth"; "not_fresh" ];
  Registry.reset Registry.default

let tests =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "label canonicalization" `Quick test_label_canonicalization;
    Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
    Alcotest.test_case "domain safety" `Quick test_domain_safety;
    Alcotest.test_case "span nesting over simtime" `Quick
      test_span_nesting_over_simtime;
    Alcotest.test_case "with_span on exception" `Quick test_with_span_exception;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "spans jsonl round-trip" `Quick test_spans_jsonl_roundtrip;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
    Alcotest.test_case "hostile names escaped" `Quick test_hostile_names_escaped;
    QCheck_alcotest.to_alcotest qcheck_percentile_oracle;
    Alcotest.test_case "registry totals equal at shards 1 and 3" `Quick
      test_registry_totals_shard_invariant;
    Alcotest.test_case "fleet metric families fed" `Quick test_fleet_metric_families;
    Alcotest.test_case "span handles per registry, drops per exit" `Quick
      test_span_handles_per_registry;
  ]
