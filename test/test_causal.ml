(* End-to-end causal tracing: session rounds under impairment, wire
   neutrality (tracing must not change transcripts), the fleet SLO
   watchdog and the flight-recorder bound. *)

module Session = Ra_core.Session
module Fleet = Ra_core.Fleet
module Retry = Ra_core.Retry
module Verdict = Ra_core.Verdict
module Impairment = Ra_net.Impairment
module Trace = Ra_obs.Trace
module Slo = Ra_obs.Slo

let events_named name rd =
  List.filter (fun e -> e.Trace.ev_name = name) rd.Trace.rd_events

let well_formed rd =
  let ids = List.map (fun e -> e.Trace.ev_id) rd.Trace.rd_events in
  List.length ids = List.length (List.sort_uniq compare ids)
  && List.for_all
       (fun e ->
         match e.Trace.ev_parent with
         | None -> e.Trace.ev_id = 0
         | Some p -> List.mem p ids)
       rd.Trace.rd_events

let test_timeout_round_traced () =
  let s = Session.create ~ram_size:4096 () in
  Session.advance_time s ~seconds:1.0;
  let tr = Session.enable_tracing s in
  let prof = Session.enable_profiling s in
  Session.set_impairment s
    (Some
       (Impairment.create ~to_prover:(Impairment.lossy 1.0)
          ~to_verifier:(Impairment.lossy 1.0) ~seed:7L ()));
  let r = Session.attest_round_r ~policy:Retry.impatient s in
  (match r.Session.r_verdict with
  | Verdict.Timed_out _ -> ()
  | v -> Alcotest.failf "expected Timed_out, got %s" (Verdict.label v));
  Alcotest.(check bool) "backoff attributed to the wait phase" true
    (List.mem_assoc "wait" (Ra_obs.Profiler.Phases.totals prof.Ra_obs.Profiler.phases));
  match Trace.rounds tr with
  | [ rd ] ->
    Alcotest.(check bool) "well-formed tree" true (well_formed rd);
    Alcotest.(check string) "verdict recorded" (Verdict.label r.Session.r_verdict)
      rd.Trace.rd_verdict;
    Alcotest.(check int) "attempts recorded" r.Session.r_attempts
      rd.Trace.rd_attempts;
    Alcotest.(check int) "one attempt span per transmission"
      r.Session.r_attempts
      (List.length (events_named "retry.attempt" rd));
    Alcotest.(check int) "one backoff wait per timed-out attempt"
      r.Session.r_attempts
      (List.length (events_named "retry.backoff" rd));
    Alcotest.(check bool) "impairment drops linked" true
      (events_named "net.drop" rd <> []);
    Alcotest.(check int) "exactly one verdict instant" 1
      (List.length (events_named "verdict" rd))
  | rds -> Alcotest.failf "expected one sealed round, got %d" (List.length rds)

let test_benign_round_traced () =
  let s = Session.create ~ram_size:4096 () in
  Session.advance_time s ~seconds:1.0;
  let tr = Session.enable_tracing ~device:"unit" s in
  let r = Session.attest_round_r s in
  Alcotest.(check string) "trusted" "trusted" (Verdict.label r.Session.r_verdict);
  match Trace.rounds tr with
  | [ rd ] ->
    Alcotest.(check string) "device name" "unit" rd.Trace.rd_device;
    Alcotest.(check int) "single attempt" 1 rd.Trace.rd_attempts;
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " present") true (events_named name rd <> []))
      [ "retry.attempt"; "net.tx"; "net.deliver"; "prover.attest";
        "verifier.check"; "verdict" ];
    Alcotest.(check (list (Alcotest.of_pp Fmt.nop))) "no backoff" []
      (events_named "retry.backoff" rd);
    (* the prover's CPU-clocked sub-steps are mirrored in as instants *)
    Alcotest.(check bool) "cpu_ms mirror present" true
      (List.exists
         (fun e -> List.mem_assoc "cpu_ms" e.Trace.ev_labels)
         rd.Trace.rd_events)
  | rds -> Alcotest.failf "expected one sealed round, got %d" (List.length rds)

(* Tracing and profiling must be invisible on the wire: the same lossy
   schedule with and without them attached produces identical rounds,
   verdicts, prover clocks and wire bytes. *)
let test_wire_neutrality () =
  let run ?(profiled = false) ~traced () =
    let s = Session.create ~ram_size:4096 () in
    Session.advance_time s ~seconds:1.0;
    if traced then ignore (Session.enable_tracing s);
    if profiled then ignore (Session.enable_profiling s);
    Session.set_impairment s
      (Some
         (Impairment.create ~to_prover:(Impairment.lossy 0.3)
            ~to_verifier:(Impairment.lossy 0.3) ~seed:42L ()));
    let rounds =
      List.init 5 (fun _ ->
          let r = Session.attest_round_r s in
          (Verdict.label r.Session.r_verdict, r.Session.r_attempts,
           r.Session.r_elapsed_s))
    in
    let wire =
      List.map
        (fun e -> e.Ra_net.Channel.payload)
        (Ra_net.Channel.transcript (Session.channel s))
    in
    (rounds, Session.prover_wall_ms s, List.length (Session.verdicts s), wire)
  in
  let plain = run ~traced:false () in
  Alcotest.(check bool) "identical transcripts" true (plain = run ~traced:true ());
  Alcotest.(check bool) "profiling leaves the wire alone" true
    (plain = run ~profiled:true ~traced:false ())

let test_recorder_bound_across_rounds () =
  let s = Session.create ~ram_size:4096 () in
  Session.advance_time s ~seconds:1.0;
  let tr = Session.enable_tracing ~capacity:2 s in
  for _ = 1 to 5 do
    ignore (Session.attest_round_r s)
  done;
  let rounds = Trace.rounds tr in
  Alcotest.(check int) "ring keeps the newest two" 2 (List.length rounds);
  Alcotest.(check int) "three evictions" 3
    (Ra_obs.Recorder.evicted (Trace.recorder tr));
  (match rounds with
  | [ a; b ] ->
    Alcotest.(check int) "consecutive ids, oldest first" 1
      (b.Trace.rd_trace_id - a.Trace.rd_trace_id)
  | _ -> Alcotest.fail "expected two rounds");
  Session.disable_tracing s;
  Alcotest.(check bool) "tracer detached" true (Session.tracing s = None);
  ignore (Session.attest_round_r s);
  Alcotest.(check int) "no recording after disable" 2
    (List.length (Trace.rounds tr))

let test_fleet_slo_watchdog () =
  let fleet = Fleet.create ~ram_size:4096 ~names:[ "slo-a"; "slo-b" ] () in
  Alcotest.(check (list (Alcotest.of_pp Fmt.nop)))
    "no vacuous checks before any sweep" [] (Fleet.slo_watch fleet);
  Fleet.enable_tracing fleet;
  ignore
    (Fleet.chaos_sweep ~rounds_per_member:2 ~losses:[ 0.2 ]
       ~policies:[ ("default", Retry.default) ]
       fleet);
  let rounds = Fleet.recent_rounds fleet in
  Alcotest.(check int) "every round recorded" 4 (List.length rounds);
  Alcotest.(check bool) "all well-formed" true (List.for_all well_formed rounds);
  (* Perfetto puts each round on its own track: tid = args.trace_id *)
  (match Ra_obs.Json.of_string (Ra_obs.Export.perfetto_string rounds) with
  | Error e -> Alcotest.failf "perfetto export unparseable: %s" e
  | Ok j ->
    let module Json = Ra_obs.Json in
    let evs =
      match Json.member "traceEvents" j with Some (Json.Arr evs) -> evs | _ -> []
    in
    Alcotest.(check bool) "perfetto events present" true (evs <> []);
    Alcotest.(check bool) "perfetto events carry tid = args.trace_id" true
      (List.for_all
         (fun ev ->
           Json.member "ph" ev = Some (Json.Str "M")
           ||
           match Json.member "tid" ev with
           | Some (Json.Num _) as tid ->
             tid = Option.bind (Json.member "args" ev) (Json.member "trace_id")
           | _ -> false)
         evs));
  let devices = List.sort_uniq compare (List.map (fun r -> r.Trace.rd_device) rounds) in
  Alcotest.(check (list string)) "member names as devices" [ "slo-a"; "slo-b" ]
    devices;
  let checks = Fleet.slo_watch fleet in
  Alcotest.(check bool) "convergence + latency + rejection checks" true
    (List.length checks >= 3);
  Alcotest.(check (list (Alcotest.of_pp Fmt.nop))) "objectives met" []
    (Slo.breaches checks);
  (* an impossible p99 objective must surface as a typed breach *)
  let strict =
    { Fleet.default_slo_policy with Fleet.slo_max_p99_s = 0.0 }
  in
  let breached = Slo.breaches (Fleet.slo_watch ~policy:strict fleet) in
  Alcotest.(check bool) "strict policy breaches" true (breached <> []);
  List.iter
    (fun ck ->
      Alcotest.(check string) "breached objective" "chaos_p99_latency"
        ck.Slo.ck_objective.Slo.slo_name)
    breached;
  (* the snapshot carries the default-policy checks *)
  let snap = Fleet.health_snapshot fleet in
  Alcotest.(check int) "snapshot embeds slo checks" (List.length checks)
    (List.length snap.Fleet.s_slo)

let tests =
  [
    Alcotest.test_case "timeout round traced" `Quick test_timeout_round_traced;
    Alcotest.test_case "benign round traced" `Quick test_benign_round_traced;
    Alcotest.test_case "wire neutrality" `Quick test_wire_neutrality;
    Alcotest.test_case "recorder bound across rounds" `Quick
      test_recorder_bound_across_rounds;
    Alcotest.test_case "fleet slo watchdog" `Quick test_fleet_slo_watchdog;
  ]
