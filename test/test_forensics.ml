open Ra_core
module F = Forensics

(* ---- capsule JSON round-trip ------------------------------------------ *)

let sample_capsule =
  {
    F.cap_kind = F.Failure;
    cap_member = 3;
    cap_name = "dev-3";
    cap_sweep_seed = 0xC4A05L;
    cap_losses = [ 0.0; 0.25 ];
    cap_policies =
      [
        ( "default",
          {
            Retry.max_attempts = 8;
            base_timeout_s = 0.5;
            multiplier = 2.0;
            max_timeout_s = 30.0;
            jitter = 0.1;
          } );
      ];
    cap_rounds_per_member = 10;
    cap_cell = 1;
    cap_loss = 0.25;
    cap_policy = "default";
    cap_round = 7;
    cap_workload = `Attest;
    cap_imp_seed = -123456789L;
    cap_prior_sweeps = 0;
    cap_started_at = 42.5;
    cap_elapsed_s = 1.75;
    cap_attempts = 3;
    cap_verdict = Verdict.Trusted;
    cap_trace_id = Some 17;
    cap_phase = Some "mac";
    cap_wire_digest = "deadbeef";
    cap_config = "cfg";
  }

let test_json_roundtrip_fixed () =
  let j = F.capsule_to_json sample_capsule in
  (match F.capsule_of_json j with
  | Some c -> Alcotest.(check bool) "structural round-trip" true (c = sample_capsule)
  | None -> Alcotest.fail "capsule_of_json rejected its own encoding");
  (* through the actual string form too (floats print as %.17g) *)
  match Ra_obs.Json.of_string (Ra_obs.Json.to_string j) with
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)
  | Ok j' -> (
    match F.capsule_of_json j' with
    | Some c -> Alcotest.(check bool) "string round-trip" true (c = sample_capsule)
    | None -> Alcotest.fail "reparsed JSON rejected")

(* hostile member names (quotes, control bytes, unicode-ish), full-range
   int64 seeds, optional fields in every combination *)
let capsule_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:(int_range 0 255 >|= Char.chr) (int_range 0 12) in
  let i64 = map Int64.of_int int in
  let fl = float_range (-1e6) 1e6 in
  let policy =
    map2
      (fun name (a, b, c) ->
        ( name,
          {
            Retry.max_attempts = a;
            base_timeout_s = b;
            multiplier = c;
            max_timeout_s = b +. c;
            jitter = 0.5;
          } ))
      str
      (triple (int_range 1 16) fl fl)
  in
  let kind = oneofl [ F.Failure; F.Slowest ] in
  let verdict =
    oneof
      [
        oneofl
          Verdict.
            [
              Trusted;
              Untrusted_state;
              Bad_auth;
              Not_fresh Replayed_nonce;
              Timed_out { attempts = 3; waited_s = 1.75 };
            ];
        map (fun code -> Verdict.Fault { fault_addr = 0x20000; fault_code = code }) str;
      ]
  in
  map
    (fun ((kind, member, name, seed), (losses, policies, cell, round), (f1, f2, verdict), (attempts, trace, phase, digest)) ->
      {
        F.cap_kind = kind;
        cap_member = member;
        cap_name = name;
        cap_sweep_seed = seed;
        cap_losses = losses;
        cap_policies = policies;
        cap_rounds_per_member = round + 1;
        cap_cell = cell;
        cap_loss = (match losses with l :: _ -> l | [] -> 0.0);
        cap_policy = (match policies with (n, _) :: _ -> n | [] -> "p");
        cap_round = round;
        cap_workload = (if round mod 2 = 0 then `Attest else `Session round);
        cap_imp_seed = Int64.mul seed 0x9E3779B97F4A7C15L;
        cap_prior_sweeps = 0;
        cap_started_at = f1;
        cap_elapsed_s = f2;
        cap_attempts = attempts;
        cap_verdict = verdict;
        cap_trace_id = trace;
        cap_phase = phase;
        cap_wire_digest = digest;
        cap_config = "cfg";
      })
    (quad
       (quad kind (int_range 0 10000) str i64)
       (quad (list_size (int_range 0 4) fl) (list_size (int_range 0 3) policy)
          (int_range 0 20) (int_range 1 20))
       (triple fl fl verdict)
       (quad (int_range 1 64) (opt (int_range 0 1000)) (opt str) str))

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"capsule JSON round-trips (hostile strings)"
    (QCheck.make capsule_gen ~print:(fun c ->
         Ra_obs.Json.to_string (F.capsule_to_json c)))
    (fun c ->
      match
        Ra_obs.Json.of_string (Ra_obs.Json.to_string (F.capsule_to_json c))
      with
      | Error _ -> false
      | Ok j -> F.capsule_of_json j = Some c)

(* ---- capture determinism and replay byte-identity --------------------- *)

let losses = [ 0.0; 0.4 ]

let policies =
  [ ("none", Retry.no_retry); ("default", { Retry.default with jitter = 0.1 }) ]

let capturing_fleet () =
  let names = List.init 6 (fun i -> Printf.sprintf "dev-%d" i) in
  let fleet = Fleet.create ~ram_size:1024 ~names () in
  ignore (Fleet.enable_forensics fleet);
  Fleet.enable_tracing fleet;
  Fleet.enable_profiling fleet;
  fleet

let sweep ?engine fleet =
  ignore
    (Fleet.chaos_sweep ~seed:31L ~rounds_per_member:4 ?engine ~losses ~policies
       fleet)

let test_capture_stream_engine_invariant () =
  let stream engine =
    let fleet = capturing_fleet () in
    sweep ~engine fleet;
    F.capsules_jsonl (Fleet.capsules fleet)
  in
  let reference = stream (`Shards 1) in
  Alcotest.(check bool) "captured something" true (String.length reference > 0);
  List.iter
    (fun (label, engine) ->
      Alcotest.(check string)
        (Printf.sprintf "capsule stream identical under %s" label)
        reference (stream engine))
    [ ("shards 2", `Shards 2); ("shards 3", `Shards 3); ("shards 4", `Shards 4) ]

let test_capture_has_failures_and_slowest () =
  let fleet = capturing_fleet () in
  sweep fleet;
  let caps = Fleet.capsules fleet in
  let kinds k = List.filter (fun c -> c.F.cap_kind = k) caps in
  Alcotest.(check bool) "some failures captured" true (kinds F.Failure <> []);
  (* one slowest capsule per cell *)
  Alcotest.(check int) "one slowest per cell"
    (List.length losses * List.length policies)
    (List.length (kinds F.Slowest));
  List.iter
    (fun c ->
      Alcotest.(check bool) "trace id present (tracing was on)" true
        (c.F.cap_trace_id <> None);
      Alcotest.(check bool) "dominant phase attributed" true
        (c.F.cap_phase <> None);
      Alcotest.(check bool) "wire digest non-empty" true
        (String.length c.F.cap_wire_digest = 40))
    caps

let test_replay_byte_identical () =
  let fleet = capturing_fleet () in
  sweep fleet;
  let caps = Fleet.capsules fleet in
  Alcotest.(check bool) "captured" true (caps <> []);
  List.iter
    (fun cap ->
      match Fleet.replay_capsule fleet cap with
      | Error e -> Alcotest.fail ("replay refused: " ^ e)
      | Ok rp ->
        Alcotest.(check string)
          (Printf.sprintf "wire digest matches (%s %s round %d)"
             (F.kind_label cap.F.cap_kind) cap.F.cap_name cap.F.cap_round)
          cap.F.cap_wire_digest rp.Fleet.rp_digest;
        Alcotest.(check bool) "verdict+attempts+times match" true
          rp.Fleet.rp_match;
        Alcotest.(check bool) "replay carries a trace" true
          (rp.Fleet.rp_round <> None))
    caps

let test_replay_guards () =
  let fleet = capturing_fleet () in
  sweep fleet;
  let cap = List.hd (Fleet.capsules fleet) in
  let expect_error label cap =
    match Fleet.replay_capsule fleet cap with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": expected Error")
  in
  expect_error "tampered seed" { cap with F.cap_imp_seed = 1L };
  expect_error "foreign config" { cap with F.cap_config = "bogus" };
  expect_error "pre-sweep history" { cap with F.cap_prior_sweeps = 3 };
  expect_error "cell out of range" { cap with F.cap_cell = 99 };
  expect_error "round out of range" { cap with F.cap_round = 99 }

(* capture, tracing and profiling must be wire-neutral: same fingerprint
   and grid with and without them, for both workloads *)
let test_capture_wire_neutral () =
  let run ~workload observed =
    let names = List.init 5 (fun i -> Printf.sprintf "dev-%d" i) in
    let fleet = Fleet.create ~ram_size:1024 ~names () in
    if observed then begin
      ignore (Fleet.enable_forensics fleet);
      Fleet.enable_tracing fleet;
      Fleet.enable_profiling fleet
    end;
    let grid =
      Fleet.chaos_sweep ~seed:31L ~rounds_per_member:4 ~workload ~losses ~policies fleet
    in
    (Fleet.fingerprint fleet, grid)
  in
  List.iter
    (fun workload ->
      Alcotest.(check bool)
        (F.workload_label workload ^ ": fingerprint and grid unchanged by capture")
        true
        (run ~workload false = run ~workload true))
    [ `Attest; `Session 2 ]

(* ---- triage ----------------------------------------------------------- *)

let test_triage () =
  let fleet = capturing_fleet () in
  sweep fleet;
  let caps = Fleet.capsules fleet in
  let rows = F.triage caps in
  Alcotest.(check bool) "has diagnoses" true (rows <> []);
  let failures =
    List.length (List.filter (fun c -> c.F.cap_kind <> F.Slowest) caps)
  in
  Alcotest.(check int) "diagnosis counts sum to triaged capsules" failures
    (List.fold_left (fun a d -> a + d.F.dg_count) 0 rows);
  (* ranked: counts never increase *)
  let counts = List.map (fun d -> d.F.dg_count) rows in
  Alcotest.(check bool) "ranked by count" true
    (List.sort (fun a b -> compare b a) counts = counts);
  let share = List.fold_left (fun a d -> a +. d.F.dg_share_pct) 0.0 rows in
  Alcotest.(check bool) "shares sum to 100" true (Float.abs (share -. 100.0) < 1e-6);
  Alcotest.(check bool) "jsonl renders" true
    (String.length (F.diagnosis_jsonl rows) > 0);
  Alcotest.(check bool) "human report renders" true
    (String.length (F.render_diagnosis rows) > 0)

(* ---- exemplars -------------------------------------------------------- *)

let test_exemplars () =
  Ra_obs.Registry.reset Ra_obs.Registry.default;
  let fleet = capturing_fleet () in
  sweep fleet;
  let stamped = Fleet.annotate_exemplars fleet in
  Alcotest.(check bool) "stamped some exemplars" true (stamped > 0);
  let h = Ra_obs.Registry.Histogram.get "ra_chaos_round_time_ms" in
  let exs = Ra_obs.Registry.Histogram.exemplars h in
  Alcotest.(check bool) "histogram carries exemplars" true (exs <> []);
  List.iter
    (fun (_, e) ->
      Alcotest.(check bool) "exemplar links a trace" true
        (String.contains e.Ra_obs.Registry.ex_trace_id '/'))
    exs;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let text = Ra_obs.Export.render_prometheus Ra_obs.Registry.default in
  Alcotest.(check bool) "OpenMetrics exemplar suffix rendered" true
    (contains text "# {trace_id=");
  Ra_obs.Registry.reset Ra_obs.Registry.default

(* ---- dominant phase --------------------------------------------------- *)

let test_dominant_phase () =
  let s ?(trace = 1) phase cycles =
    {
      Ra_obs.Profiler.ps_at = 0.0;
      ps_trace_id = Some trace;
      ps_device = "d";
      ps_phase = phase;
      ps_cycles = Int64.of_int cycles;
      ps_nj = 0.0;
    }
  in
  Alcotest.(check (option string)) "max cycles wins" (Some "mac")
    (F.dominant_phase [ s "auth" 5; s "mac" 10; s "mac" 6; s "auth" 3 ] ~trace_id:1);
  Alcotest.(check (option string)) "tie breaks lexicographically" (Some "auth")
    (F.dominant_phase [ s "mac" 5; s "auth" 5 ] ~trace_id:1);
  Alcotest.(check (option string)) "foreign trace ignored" None
    (F.dominant_phase [ s ~trace:2 "mac" 5 ] ~trace_id:1)

(* a capsule whose loss grid no sweep accepts is refused, not raised on *)
let test_replay_bad_loss_refused () =
  let fleet = capturing_fleet () in
  sweep fleet;
  let cap = List.hd (Fleet.capsules fleet) in
  match Fleet.replay_capsule fleet { cap with F.cap_losses = [ 1.5; 0.4 ] } with
  | Error msg -> Alcotest.(check string) "reason" "capsule loss 1.5 outside [0, 1]" msg
  | Ok _ -> Alcotest.fail "replayed a capsule with loss 1.5"

(* A profile ring of 16 samples holds about one round of a member, so
   the member's next rounds evict a kept round's samples before its cell
   merges. A capsule's phase is read when its round ends; read at the
   merge, 7 of these 13 failure capsules had none. *)
let test_phase_survives_eviction () =
  let fleet = Fleet.create ~ram_size:1024 ~names:[ "dev-0"; "dev-1" ] () in
  ignore (Fleet.enable_forensics fleet);
  Fleet.enable_tracing fleet;
  Fleet.enable_profiling ~capacity:16 fleet;
  ignore
    (Fleet.chaos_sweep ~seed:2016L ~rounds_per_member:10 ~losses:[ 0.4 ]
       ~policies:[ ("none", Retry.no_retry) ]
       fleet);
  let failures = List.filter (fun c -> c.F.cap_kind = F.Failure) (Fleet.capsules fleet) in
  Alcotest.(check bool) "failures captured" true (failures <> []);
  List.iter
    (fun c ->
      if c.F.cap_phase = None then
        Alcotest.failf "%s round %d: failure capsule without a phase" c.F.cap_name
          c.F.cap_round)
    failures

let tests =
  [
    Alcotest.test_case "capsule JSON round-trip (fixed)" `Quick
      test_json_roundtrip_fixed;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    Alcotest.test_case "capsule stream invariant across engines/shards" `Slow
      test_capture_stream_engine_invariant;
    Alcotest.test_case "failures and slowest retained" `Quick
      test_capture_has_failures_and_slowest;
    Alcotest.test_case "replay is byte-identical" `Slow test_replay_byte_identical;
    Alcotest.test_case "replay guards reject bad capsules" `Quick
      test_replay_guards;
    Alcotest.test_case "capture is wire-neutral" `Quick test_capture_wire_neutral;
    Alcotest.test_case "triage ranks signatures" `Quick test_triage;
    Alcotest.test_case "exemplars reach breached buckets" `Quick test_exemplars;
    Alcotest.test_case "dominant phase attribution" `Quick test_dominant_phase;
    Alcotest.test_case "replay refuses a loss outside [0, 1]" `Quick
      test_replay_bad_loss_refused;
    Alcotest.test_case "a kept capsule keeps its phase after its ring wraps" `Quick
      test_phase_survives_eviction;
  ]
