open Ra_core
module Impairment = Ra_net.Impairment

(* ---- Retry policy math ------------------------------------------------ *)

let test_retry_timeout_math () =
  let near msg expect got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.6f ~ %.6f" msg expect got)
      true
      (Float.abs (expect -. got) < 1e-9)
  in
  let p =
    { Retry.max_attempts = 8; base_timeout_s = 0.5; multiplier = 2.0;
      max_timeout_s = 30.0; jitter = 0.0 }
  in
  near "attempt 1 = base" 0.5 (Retry.timeout_s p ~attempt:1 ~u:0.0);
  near "attempt 4 = base*8" 4.0 (Retry.timeout_s p ~attempt:4 ~u:0.0);
  near "attempt 8 capped" 30.0 (Retry.timeout_s p ~attempt:8 ~u:0.0);
  let j = { p with jitter = 0.2 } in
  near "jitter low edge" (0.5 *. 0.9) (Retry.timeout_s j ~attempt:1 ~u:0.0);
  near "jitter centered at u=0.5" 0.5 (Retry.timeout_s j ~attempt:1 ~u:0.5);
  near "jitter high edge" (0.5 *. 1.1)
    (Retry.timeout_s j ~attempt:1 ~u:(1.0 -. 1e-12));
  Alcotest.(check bool) "attempt 0 rejected" true
    (try ignore (Retry.timeout_s p ~attempt:0 ~u:0.0); false
     with Invalid_argument _ -> true)

let test_retry_validate () =
  let bad p =
    Alcotest.(check bool) "rejected" true
      (try Retry.validate p; false with Invalid_argument _ -> true)
  in
  Retry.validate Retry.default;
  Retry.validate Retry.no_retry;
  Retry.validate Retry.impatient;
  bad { Retry.default with max_attempts = 0 };
  bad { Retry.default with base_timeout_s = 0.0 };
  bad { Retry.default with multiplier = 0.5 };
  bad { Retry.default with jitter = 1.5 }

let prop_timeout_within_band =
  let gen = QCheck.Gen.(triple (int_range 1 12) (float_bound_exclusive 1.0) (float_bound_exclusive 1.0)) in
  QCheck.Test.make ~count:500
    ~name:"jittered timeout stays inside [1-j/2, 1+j/2] band of un-jittered"
    (QCheck.make gen ~print:(fun (a, u, j) ->
         Printf.sprintf "attempt=%d u=%f jitter=%f" a u j))
    (fun (attempt, u, jitter) ->
      let p = { Retry.default with jitter } in
      let plain =
        Retry.timeout_s { p with jitter = 0.0 } ~attempt ~u:0.0
      in
      let t = Retry.timeout_s p ~attempt ~u in
      t >= plain *. (1.0 -. (jitter /. 2.0)) -. 1e-9
      && t <= plain *. (1.0 +. (jitter /. 2.0)) +. 1e-9)

(* ---- Retry engine over the session ------------------------------------ *)

let test_benign_round_single_attempt () =
  let session = Session.create ~ram_size:1024 () in
  Session.advance_time session ~seconds:1.0;
  let round = Session.attest_round_r session in
  Alcotest.(check bool) "trusted" true
    (Verdict.accepted round.Session.r_verdict);
  Alcotest.(check int) "one attempt" 1 round.Session.r_attempts

let test_dead_wire_times_out () =
  let session = Session.create ~ram_size:1024 () in
  Session.advance_time session ~seconds:1.0;
  Session.set_impairment session
    (Some
       (Impairment.create
          ~to_prover:(Impairment.lossy 1.0)
          ~to_verifier:(Impairment.lossy 1.0)
          ~seed:5L ()));
  let round = Session.attest_round_r ~policy:Retry.impatient session in
  (match round.Session.r_verdict with
  | Verdict.Timed_out { attempts; waited_s } ->
    Alcotest.(check int) "all attempts used" Retry.impatient.Retry.max_attempts
      attempts;
    Alcotest.(check bool) "waited a positive while" true (waited_s > 0.0)
  | v -> Alcotest.failf "expected Timed_out, got %s" (Verdict.label v));
  Alcotest.(check int) "attempts reported"
    Retry.impatient.Retry.max_attempts round.Session.r_attempts

let counter_spec =
  Architecture.with_policy Architecture.trustlite_base Freshness.Counter

(* The tentpole's replay-safety property: whatever the wire does to the
   retransmissions, the prover's freshness cell only ever moves forward. *)
let prop_counter_monotone_under_retries =
  let gen = QCheck.Gen.(pair (float_bound_exclusive 0.6) (map Int64.of_int int)) in
  QCheck.Test.make ~count:25
    ~name:"freshness counter never regresses across retry interleavings"
    (QCheck.make gen ~print:(fun (loss, seed) ->
         Printf.sprintf "loss=%.3f seed=%Ld" loss seed))
    (fun (loss, seed) ->
      let session = Session.create ~spec:counter_spec ~ram_size:1024 () in
      Session.advance_time session ~seconds:1.0;
      Session.set_impairment session
        (Some
           (Impairment.create
              ~to_prover:
                { (Impairment.lossy loss) with duplicate = 0.1; reorder = 0.1 }
              ~to_verifier:
                { (Impairment.lossy loss) with duplicate = 0.1; reorder = 0.1 }
              ~seed ()));
      let cell () =
        Freshness.current_cell (Code_attest.freshness (Session.anchor session))
      in
      let monotone = ref true in
      let last = ref (cell ()) in
      for _ = 1 to 4 do
        ignore (Session.attest_round_r ~policy:Retry.impatient session);
        let now = cell () in
        if Int64.compare now !last < 0 then monotone := false;
        last := now
      done;
      !monotone)

let test_replayed_retransmission_rejected () =
  (* run a lossy round so several requests hit the wire, then replay an
     old recorded transmission: the anchor must reject it and produce no
     response for the verifier *)
  let session = Session.create ~spec:counter_spec ~ram_size:1024 () in
  Session.advance_time session ~seconds:1.0;
  Session.set_impairment session
    (Some
       (Impairment.create ~to_verifier:(Impairment.lossy 0.9) ~seed:7L ()));
  let round = Session.attest_round_r session in
  Alcotest.(check bool) "round converged" true
    (Verdict.accepted round.Session.r_verdict);
  Alcotest.(check bool) "took retransmissions" true
    (round.Session.r_attempts > 1);
  Session.set_impairment session None;
  let recorded = Adversary.recorded_requests session in
  Alcotest.(check bool) "several requests recorded" true
    (List.length recorded > 1);
  let rejected_before =
    (Code_attest.stats (Session.anchor session)).Code_attest.requests_rejected
  in
  let verdicts_before = List.length (Session.verdicts session) in
  List.iter (fun req -> Adversary.replay session req) recorded;
  ignore (Session.deliver_next_to_verifier session);
  let rejected_after =
    (Code_attest.stats (Session.anchor session)).Code_attest.requests_rejected
  in
  Alcotest.(check int) "every replay rejected"
    (rejected_before + List.length recorded)
    rejected_after;
  Alcotest.(check int) "verifier saw nothing new" verdicts_before
    (List.length (Session.verdicts session))

(* ---- chaos sweep ------------------------------------------------------ *)

let run_grid ~shards () =
  let fleet =
    Fleet.create ~ram_size:1024 ~names:[ "a"; "b"; "c" ] ()
  in
  Fleet.chaos_sweep ~seed:99L ~engine:(`Shards shards) ~rounds_per_member:3
    ~losses:[ 0.0; 0.2 ]
    ~policies:[ ("default", Retry.default) ]
    fleet

let test_chaos_sweep_deterministic_across_shards () =
  let one = run_grid ~shards:1 () in
  List.iter
    (fun shards ->
      Alcotest.(check bool)
        (Printf.sprintf "1 shard = %d shards" shards)
        true
        (one = run_grid ~shards ()))
    [ 2; 4 ]

let test_chaos_sweep_grid () =
  let fleet = Fleet.create ~ram_size:1024 ~names:[ "a"; "b"; "c"; "d" ] () in
  let grid =
    Fleet.chaos_sweep ~seed:7L ~rounds_per_member:5 ~losses:[ 0.0; 0.2 ]
      ~policies:[ ("default", Retry.default) ]
      fleet
  in
  Alcotest.(check int) "two cells" 2 (List.length grid);
  let pristine = List.nth grid 0 and lossy = List.nth grid 1 in
  Alcotest.(check (float 0.0)) "pristine converges fully" 100.0
    (Fleet.convergence_pct pristine);
  Alcotest.(check (float 0.0)) "pristine needs one attempt" 1.0
    pristine.Fleet.c_mean_attempts;
  Alcotest.(check bool) "lossy converges >= 99%" true
    (Fleet.convergence_pct lossy >= 99.0);
  Alcotest.(check bool) "lossy retransmits" true
    (lossy.Fleet.c_mean_attempts > 1.0);
  Alcotest.(check bool) "percentiles ordered" true
    (lossy.Fleet.c_p50_s <= lossy.Fleet.c_p90_s
    && lossy.Fleet.c_p90_s <= lossy.Fleet.c_p99_s);
  Alcotest.(check bool) "grid remembered" true (Fleet.last_chaos fleet = grid);
  let snapshot = Fleet.health_snapshot fleet in
  Alcotest.(check bool) "snapshot carries grid" true
    (snapshot.Fleet.s_chaos = grid);
  Alcotest.(check int) "everyone healthy after chaos" 4
    snapshot.Fleet.s_healthy

let test_classify_verdict () =
  let check v expect =
    Alcotest.(check string) (Verdict.label v)
      (Fleet.health_label expect)
      (Fleet.health_label (Fleet.classify_verdict v))
  in
  check Verdict.Trusted Fleet.Healthy;
  check Verdict.Untrusted_state Fleet.Compromised;
  check Verdict.Invalid_response Fleet.Compromised;
  check (Verdict.Fault { fault_addr = 16; fault_code = "W" }) Fleet.Compromised;
  check Verdict.Bad_auth Fleet.Unresponsive;
  check (Verdict.Not_fresh Verdict.Replayed_nonce) Fleet.Unresponsive;
  check (Verdict.Timed_out { attempts = 8; waited_s = 60.0 }) Fleet.Unresponsive

let test_chaos_sweep_validation () =
  let fleet = Fleet.create ~ram_size:1024 ~names:[ "a" ] () in
  let bad f =
    Alcotest.(check bool) "rejected" true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  bad (fun () ->
      Fleet.chaos_sweep ~losses:[]
        ~policies:[ ("default", Retry.default) ]
        fleet);
  bad (fun () -> Fleet.chaos_sweep ~losses:[ 0.1 ] ~policies:[] fleet);
  bad (fun () ->
      Fleet.chaos_sweep ~losses:[ 0.1 ]
        ~policies:[ ("bad", { Retry.default with max_attempts = 0 }) ]
        fleet)

(* a loss outside [0, 1] anywhere in the grid stops the sweep before its
   first cell: no member is swept and the previous grid stays *)
let test_chaos_sweep_bad_loss_runs_nothing () =
  let fleet = Fleet.create ~ram_size:1024 ~names:[ "a"; "b" ] () in
  let policies = [ ("default", Retry.default) ] in
  let grid = Fleet.chaos_sweep ~rounds_per_member:2 ~losses:[ 0.0 ] ~policies fleet in
  let refused =
    match Fleet.chaos_sweep ~rounds_per_member:2 ~losses:[ 0.0; 1.5 ] ~policies fleet with
    | _ -> None
    | exception Invalid_argument msg -> Some msg
  in
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Fleet.member_name m ^ " swept only by the valid sweep")
        2 (Fleet.sweeps_of m))
    (Fleet.members fleet);
  Alcotest.(check bool) "previous grid kept" true (Fleet.last_chaos fleet = grid);
  Alcotest.(check (option string)) "refused up front"
    (Some "Fleet.chaos_sweep: loss 1.5 outside [0, 1]") refused

let tests =
  [
    Alcotest.test_case "retry timeout math" `Quick test_retry_timeout_math;
    Alcotest.test_case "retry validate" `Quick test_retry_validate;
    QCheck_alcotest.to_alcotest prop_timeout_within_band;
    Alcotest.test_case "benign round: one attempt" `Quick
      test_benign_round_single_attempt;
    Alcotest.test_case "dead wire times out" `Quick test_dead_wire_times_out;
    QCheck_alcotest.to_alcotest prop_counter_monotone_under_retries;
    Alcotest.test_case "replayed retransmission rejected" `Quick
      test_replayed_retransmission_rejected;
    Alcotest.test_case "chaos sweep deterministic across shard counts" `Slow
      test_chaos_sweep_deterministic_across_shards;
    Alcotest.test_case "chaos sweep grid" `Slow test_chaos_sweep_grid;
    Alcotest.test_case "classify verdict" `Quick test_classify_verdict;
    Alcotest.test_case "chaos sweep validation" `Quick
      test_chaos_sweep_validation;
    Alcotest.test_case "bad loss grid runs nothing" `Quick
      test_chaos_sweep_bad_loss_runs_nothing;
  ]
