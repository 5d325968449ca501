(* The verifier-as-a-service: admission control, batched verification,
   open-loop load. *)
open Ra_core
module Simtime = Ra_net.Simtime
module Verdict = Ra_core.Verdict

let sym_key = "K_attest_0123456789." (* 20 bytes *)
let image = String.init 64 (fun i -> Char.chr (i * 3 mod 256))

let vcfg ?(reference_image = image) () =
  Verifier.Config.v ~sym_key ~reference_image ~time:(Simtime.create ()) ()

let config ?(batch = 4) ?(linger = 0.05) ?(deadline = 2.0) ?admission () =
  let base = Server.default_config (vcfg ()) in
  {
    base with
    Server.sc_batch = batch;
    sc_linger_s = linger;
    sc_deadline_s = deadline;
    sc_admission = Option.value admission ~default:base.Server.sc_admission;
  }

let make ?(record = true) ?batch ?linger ?deadline ?admission () =
  let sched = Sched.create () in
  let server =
    match
      Server.create ~record_outcomes:record ~sched
        (config ?batch ?linger ?deadline ?admission ())
    with
    | Ok s -> s
    | Error msg -> Alcotest.failf "Server.create: %s" msg
  in
  (sched, server)

let keyed = Auth.keyed sym_key

let good_frame ?(image = image) counter =
  let resp0 =
    {
      Message.echo_challenge = "";
      echo_freshness = Message.F_counter counter;
      report = "";
    }
  in
  let report =
    Auth.response_report_keyed ~keyed
      ~body:(Message.response_body resp0)
      ~memory_image:image
  in
  Message.wire_to_bytes (Message.Response { resp0 with report })

let forged_frame counter =
  let resp =
    {
      Message.echo_challenge = "";
      echo_freshness = Message.F_counter counter;
      report = String.make 20 '\xa5';
    }
  in
  Message.wire_to_bytes (Message.Response resp)

let rejections stats reason =
  match List.assoc_opt reason stats.Server.sv_breakdown with
  | Some n -> n
  | None -> 0

let rejections_of report reason =
  Option.value (List.assoc_opt reason report.Server.Load.rp_breakdown) ~default:0

(* ---- token bucket ----------------------------------------------------- *)

let test_bucket_refill () =
  let b = Admission.Bucket.create ~rate:2.0 ~burst:4.0 in
  (* starts full *)
  Alcotest.(check (float 1e-9)) "full at birth" 4.0 (Admission.Bucket.tokens b ~now:0.0);
  for _ = 1 to 4 do
    Alcotest.(check bool) "take" true (Admission.Bucket.try_take b ~now:0.0)
  done;
  Alcotest.(check bool) "empty" false (Admission.Bucket.try_take b ~now:0.0);
  (* refill is proportional to elapsed simulated time *)
  Alcotest.(check bool) "0.25s: half a token" false
    (Admission.Bucket.try_take b ~now:0.25);
  Alcotest.(check bool) "0.5s boundary: exactly one" true
    (Admission.Bucket.try_take b ~now:0.5);
  Alcotest.(check bool) "and no more" false (Admission.Bucket.try_take b ~now:0.5);
  (* cap at burst after a long idle *)
  Alcotest.(check (float 1e-9)) "cap" 4.0 (Admission.Bucket.tokens b ~now:1000.0);
  (* time running backwards refills nothing *)
  let b2 = Admission.Bucket.create ~rate:1.0 ~burst:1.0 in
  Alcotest.(check bool) "take at t=10" true (Admission.Bucket.try_take b2 ~now:10.0);
  Alcotest.(check (float 1e-9)) "t=5 refills nothing" 0.0
    (Admission.Bucket.tokens b2 ~now:5.0)

let test_bucket_validation () =
  Alcotest.check_raises "rate 0" (Invalid_argument "Admission.Bucket.create: rate must be > 0")
    (fun () -> ignore (Admission.Bucket.create ~rate:0.0 ~burst:4.0));
  Alcotest.check_raises "burst < 1"
    (Invalid_argument "Admission.Bucket.create: burst must be >= 1") (fun () ->
      ignore (Admission.Bucket.create ~rate:1.0 ~burst:0.5))

(* ---- triage queue ------------------------------------------------------ *)

let triage_config =
  {
    Admission.device_rate = 100.0;
    device_burst = 100.0;
    unknown_rate = 100.0;
    unknown_burst = 100.0;
    triage_capacity = 8;
    unknown_share = 0.5;
  }

let test_triage_overflow () =
  let a = Admission.create ~config:triage_config () in
  Admission.register a "dev";
  (* unknowns may only fill their share: 4 of 8 slots *)
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "unknown %d admitted" i)
      true
      (Admission.offer a ~identity:None ~now:0.0 i = Admission.Admitted)
  done;
  Alcotest.(check bool) "unknown over share" true
    (Admission.offer a ~identity:None ~now:0.0 5
    = Admission.Rejected Verdict.Reason.Queue_full);
  (* known fills the rest *)
  for i = 5 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "known %d admitted" i)
      true
      (Admission.offer a ~identity:(Some "dev") ~now:0.0 i = Admission.Admitted)
  done;
  Alcotest.(check int) "queue full" 8 (Admission.depth a);
  (* a known arrival at a full queue evicts the oldest unknown *)
  Alcotest.(check bool) "known evicts" true
    (Admission.offer a ~identity:(Some "dev") ~now:0.0 9 = Admission.Admitted);
  Alcotest.(check (list int)) "oldest unknown evicted" [ 1 ] (Admission.evicted a);
  Alcotest.(check int) "still full" 8 (Admission.depth a);
  Alcotest.(check int) "unknown depth down" 3 (Admission.unknown_depth a);
  (* drain order is FIFO over the survivors *)
  let drained = List.init 8 (fun _ -> Option.get (Admission.take a)) in
  Alcotest.(check (list int)) "fifo minus evicted" [ 2; 3; 4; 5; 6; 7; 8; 9 ] drained;
  Alcotest.(check bool) "empty" true (Admission.take a = None)

let test_unregistered_identity_is_unknown () =
  let a = Admission.create ~config:triage_config () in
  Admission.register a "real";
  Alcotest.(check bool) "registered is known" true (Admission.known a "real");
  Alcotest.(check bool) "claimed name is not" false (Admission.known a "fake");
  (* claimed-but-unregistered identities burn the shared unknown share *)
  for i = 1 to 4 do
    Alcotest.(check bool) "fake admitted to share" true
      (Admission.offer a ~identity:(Some (Printf.sprintf "fake%d" i)) ~now:0.0 i
      = Admission.Admitted)
  done;
  Alcotest.(check bool) "share exhausted" true
    (Admission.offer a ~identity:(Some "fake9") ~now:0.0 9
    = Admission.Rejected Verdict.Reason.Queue_full)

(* ---- server verdict paths --------------------------------------------- *)

let test_reason_paths () =
  let _sched, server = make ~batch:1 () in
  Server.register_device server "dev-0";
  let submit ?device ~tag frame =
    Server.submit server { Server.rq_device = device; rq_tag = tag; rq_frame = frame }
  in
  submit ~device:"dev-0" ~tag:1 (good_frame 1L);
  Server.flush server;
  submit ~device:"dev-0" ~tag:2 (good_frame 1L) (* replayed counter: pre-crypto *);
  submit ~device:"dev-0" ~tag:3 "not a frame";
  submit ~device:"dev-0" ~tag:4 (forged_frame 2L);
  Server.flush server;
  let st = Server.stats server in
  Alcotest.(check int) "requests" 4 st.Server.sv_requests;
  Alcotest.(check int) "trusted" 1 st.Server.sv_trusted;
  Alcotest.(check int) "stale" 1 (rejections st Verdict.Reason.Not_fresh);
  Alcotest.(check int) "malformed" 1 (rejections st Verdict.Reason.Malformed);
  Alcotest.(check int) "forged" 1 (rejections st Verdict.Reason.Untrusted_state);
  (* outcome log agrees, in completion order of the trusted one *)
  let results = List.map (fun o -> o.Server.oc_result) (Server.outcomes server) in
  Alcotest.(check int) "outcomes logged" 4 (List.length results);
  Alcotest.(check int) "one ok" 1
    (List.length (List.filter (fun r -> r = Ok ()) results))

let test_rate_limited () =
  let admission =
    { Admission.default_config with device_rate = 0.5; device_burst = 1.0 }
  in
  let _sched, server = make ~batch:64 ~admission () in
  Server.register_device server "dev-0";
  for i = 1 to 3 do
    Server.submit server
      {
        Server.rq_device = Some "dev-0";
        rq_tag = i;
        rq_frame = good_frame (Int64.of_int i);
      }
  done;
  let st = Server.stats server in
  Alcotest.(check int) "one token at t=0" 1 st.Server.sv_admitted;
  Alcotest.(check int) "rest rate-limited" 2
    (rejections st Verdict.Reason.Rate_limited)

let test_batch_equals_single () =
  (* the batched path and the per-report key-derivation path agree verdict
     for verdict *)
  let resps =
    List.init 8 (fun i ->
        let frame =
          if i mod 3 = 0 then forged_frame (Int64.of_int (i + 1))
          else good_frame (Int64.of_int (i + 1))
        in
        match Message.wire_of_bytes frame with
        | Some (Message.Response r) -> r
        | _ -> assert false)
  in
  let verifier =
    match Verifier.of_config (vcfg ()) with
    | Ok v -> v
    | Error m -> Alcotest.failf "of_config: %s" m
  in
  let batched = Server.Batch.verify verifier (Array.of_list resps) in
  List.iteri
    (fun i r ->
      let single = Server.Batch.verify_one ~sym_key ~reference_image:image r in
      Alcotest.(check bool)
        (Printf.sprintf "report %d agrees" i)
        true
        (batched.(i) = single))
    resps;
  Alcotest.(check int) "midstate saves the two pad compressions" 2
    Server.Batch.key_blocks

let test_deadline_timeout () =
  (* a report stuck behind a huge backlog times out instead of burning
     verification on a dead answer *)
  let sched, server = make ~batch:64 ~linger:10.0 ~deadline:0.5 () in
  Server.register_device server "dev-0";
  Server.submit server
    { Server.rq_device = Some "dev-0"; rq_tag = 1; rq_frame = good_frame 1L };
  (* nothing flushes until the linger timer at t=10 — past the deadline *)
  ignore (Sched.run sched);
  let st = Server.stats server in
  Alcotest.(check int) "timed out, not verified" 1
    (rejections st Verdict.Reason.Timed_out);
  Alcotest.(check int) "no verdicts" 0 st.Server.sv_trusted

let test_of_config_validation () =
  let sched = Sched.create () in
  let bad_key =
    Server.default_config (Verifier.Config.v ~sym_key:"short" ~time:(Simtime.create ()) ())
  in
  (match Server.create ~sched bad_key with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad sym_key must not construct");
  (match Server.create ~sched { (config ()) with Server.sc_batch = 0 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "batch 0 must not construct");
  match Server.create ~sched { (config ()) with Server.sc_block_s = 0.0 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero block time must not construct"

(* ---- open-loop load ---------------------------------------------------- *)

(* buckets sized above the per-device offered rate, so a quiet fleet is
   never throttled; the flood still hits the shared unknown bucket *)
let load_admission =
  { Admission.default_config with device_rate = 8.0; device_burst = 16.0 }

let load_config () =
  config ~batch:8 ~linger:0.05 ~deadline:5.0 ~admission:load_admission ()

let quiet_traffic =
  {
    Server.Load.default_traffic with
    Server.Load.tr_devices = 12;
    tr_rate = 2.0;
    tr_horizon_s = 10.0;
    tr_seed = 42L;
  }

let test_load_all_trusted () =
  let report, _ = Server.Load.run (load_config ()) quiet_traffic in
  Alcotest.(check bool) "some traffic" true (report.Server.Load.rp_requests > 100);
  Alcotest.(check int) "everything trusted"
    report.Server.Load.rp_requests report.Server.Load.rp_trusted;
  Alcotest.(check (list (pair Alcotest.reject Alcotest.int))) "no rejections" []
    (List.map (fun (r, n) -> (r, n)) report.Server.Load.rp_breakdown
    |> List.filter (fun (_, n) -> n > 0));
  Alcotest.(check bool) "p99 sane" true (report.Server.Load.rp_p99_ms > 0.0)

let test_flood_then_drain () =
  (* a 10x flood mid-run: goodput holds, drops land on the flood as
     admission rejections, and once it stops the server recovers *)
  let cfg = load_config () in
  let flood =
    {
      quiet_traffic with
      Server.Load.tr_flood_sources = 8;
      tr_flood_rate = 30.0;
    }
  in
  let base, _ = Server.Load.run cfg quiet_traffic in
  (* the run publishes its totals into the default registry under the
     shared reason labels *)
  let published ~label value name =
    Ra_obs.Registry.Counter.value (Ra_obs.Registry.Counter.get ~labels:[ (label, value) ] name)
  in
  let rate_limited () =
    published ~label:"reason" (Verdict.Reason.label Verdict.Reason.Rate_limited)
      "ra_server_rejections_total"
  in
  let trusted () = published ~label:"verdict" "trusted" "ra_server_verdicts_total" in
  let limited0 = rate_limited () and trusted0 = trusted () in
  let attacked, outcomes = Server.Load.run ~record_outcomes:true cfg flood in
  Alcotest.(check int) "rate-limited drops published"
    (rejections_of attacked Verdict.Reason.Rate_limited)
    (rate_limited () - limited0);
  Alcotest.(check int) "trusted verdicts published" attacked.Server.Load.rp_trusted
    (trusted () - trusted0);
  let trusted_base = base.Server.Load.rp_trusted in
  let trusted_flood = attacked.Server.Load.rp_trusted in
  Alcotest.(check bool)
    (Printf.sprintf "goodput holds under flood (%d vs %d)" trusted_flood trusted_base)
    true
    (float_of_int trusted_flood >= 0.9 *. float_of_int trusted_base);
  (* the flood is turned away by admission, not by verification timeouts *)
  Alcotest.(check int) "no timeouts" 0 (rejections_of attacked Verdict.Reason.Timed_out);
  let admission_drops =
    List.fold_left
      (fun acc (r, n) ->
        if r = Verdict.Reason.Rate_limited || r = Verdict.Reason.Queue_full then
          acc + n
        else acc)
      0 attacked.Server.Load.rp_breakdown
  in
  Alcotest.(check bool) "flood drops attributed to admission" true
    (admission_drops > 0);
  (* every anonymous (flood) outcome was rejected; authenticated outcomes
     recover after the flood: the last authenticated outcome is trusted *)
  let flood_ok =
    List.exists
      (fun o -> o.Server.oc_device = None && o.Server.oc_result = Ok ())
      outcomes
  in
  Alcotest.(check bool) "no forged report ever trusted" false flood_ok

let test_bursty_arrivals_average_out () =
  let bursty =
    { quiet_traffic with Server.Load.tr_process = `Bursty; tr_horizon_s = 50.0 }
  in
  let report, _ = Server.Load.run (load_config ()) bursty in
  let expected =
    float_of_int bursty.Server.Load.tr_devices
    *. bursty.Server.Load.tr_rate *. bursty.Server.Load.tr_horizon_s
  in
  let got = float_of_int report.Server.Load.rp_requests in
  Alcotest.(check bool)
    (Printf.sprintf "long-run rate calibrated (got %.0f, expected %.0f)" got expected)
    true
    (Float.abs (got -. expected) /. expected < 0.25)

(* ---- determinism across shard counts ----------------------------------- *)

let per_device_outcomes outcomes =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun o ->
      match o.Server.oc_device with
      | Some d ->
        let prev = Option.value (Hashtbl.find_opt tbl d) ~default:[] in
        Hashtbl.replace tbl d ((o.Server.oc_tag, o.Server.oc_result) :: prev)
      | None -> ())
    outcomes;
  Hashtbl.fold
    (fun d l acc -> (d, List.sort compare l) :: acc)
    tbl []
  |> List.sort compare

let qcheck_shard_determinism =
  QCheck.Test.make ~count:8 ~name:"admitted ordering is shard-count independent"
    QCheck.(pair (int_range 1 6) (int_range 1 5))
    (fun (shards, seed) ->
      let traffic =
        {
          quiet_traffic with
          Server.Load.tr_devices = 10;
          tr_rate = 1.0;
          tr_horizon_s = 6.0;
          tr_seed = Int64.of_int (seed * 1009);
        }
      in
      let cfg = load_config () in
      let _, seq = Server.Load.run ~engine:(`Shards 1) ~record_outcomes:true cfg traffic in
      let _, sh =
        Server.Load.run ~engine:(`Shards shards) ~record_outcomes:true cfg traffic
      in
      per_device_outcomes seq = per_device_outcomes sh)

let test_shard_merge_totals () =
  let cfg = load_config () in
  let a, _ = Server.Load.run ~engine:(`Shards 1) cfg quiet_traffic in
  let b, _ = Server.Load.run ~engine:(`Shards 4) cfg quiet_traffic in
  Alcotest.(check int) "requests merge" a.Server.Load.rp_requests
    b.Server.Load.rp_requests;
  Alcotest.(check int) "trusted merge" a.Server.Load.rp_trusted
    b.Server.Load.rp_trusted

(* ---- observability ----------------------------------------------------- *)

let test_breakdown_labels_agree () =
  (* the server-side and service-side rejection breakdowns speak the same
     Prometheus label values *)
  List.iter
    (fun r ->
      let label = Verdict.Reason.label r in
      Alcotest.(check bool)
        (Printf.sprintf "label %s is lower_snake" label)
        true
        (String.for_all (fun c -> (c >= 'a' && c <= 'z') || c = '_') label))
    Verdict.Reason.all;
  (* shared constructors match Verdict.label exactly *)
  List.iter
    (fun (v, r) ->
      Alcotest.(check string) "shared label" (Verdict.label v) (Verdict.Reason.label r))
    [
      (Verdict.Untrusted_state, Verdict.Reason.Untrusted_state);
      (Verdict.Invalid_response, Verdict.Reason.Invalid_response);
      (Verdict.Bad_auth, Verdict.Reason.Bad_auth);
    ]

let test_publish_and_slo () =
  let registry = Ra_obs.Registry.create () in
  let _sched, server = make ~batch:1 () in
  Server.register_device server "dev-0";
  Server.submit server
    { Server.rq_device = Some "dev-0"; rq_tag = 1; rq_frame = good_frame 1L };
  Server.flush server;
  Server.submit server
    { Server.rq_device = Some "dev-0"; rq_tag = 2; rq_frame = forged_frame 2L };
  Server.flush server;
  Server.publish ~registry server;
  let counter ?labels name =
    Ra_obs.Registry.Counter.value (Ra_obs.Registry.Counter.get ~registry ?labels name)
  in
  Alcotest.(check int) "requests counter" 2 (counter "ra_server_requests_total");
  Alcotest.(check int) "rejection label" 1
    (counter ~labels:[ ("reason", "untrusted_state") ] "ra_server_rejections_total");
  Alcotest.(check int) "trusted verdicts" 1
    (counter ~labels:[ ("verdict", "trusted") ] "ra_server_verdicts_total");
  (* SLO wiring *)
  let report, _ = Server.Load.run (load_config ()) quiet_traffic in
  let checks = Server.Load.slo_watch ~max_p99_ms:10_000.0 report in
  Alcotest.(check int) "two objectives" 2 (List.length checks);
  Alcotest.(check int) "no breaches at generous limits" 0
    (List.length (Ra_obs.Slo.breaches checks));
  let tight = Server.Load.slo_watch ~max_p99_ms:0.0001 report in
  Alcotest.(check int) "tight p99 breaches" 1
    (List.length (Ra_obs.Slo.breaches tight))

let tests =
  [
    Alcotest.test_case "bucket refill at time boundaries" `Quick test_bucket_refill;
    Alcotest.test_case "bucket validation" `Quick test_bucket_validation;
    Alcotest.test_case "triage overflow and eviction" `Quick test_triage_overflow;
    Alcotest.test_case "unregistered identity is unknown-class" `Quick
      test_unregistered_identity_is_unknown;
    Alcotest.test_case "rejection reason paths" `Quick test_reason_paths;
    Alcotest.test_case "rate limiting" `Quick test_rate_limited;
    Alcotest.test_case "batch verdicts equal single" `Quick test_batch_equals_single;
    Alcotest.test_case "deadline timeout before crypto" `Quick test_deadline_timeout;
    Alcotest.test_case "config validation as Result" `Quick test_of_config_validation;
    Alcotest.test_case "open-loop load, quiet fleet" `Quick test_load_all_trusted;
    Alcotest.test_case "flood then drain" `Quick test_flood_then_drain;
    Alcotest.test_case "bursty arrivals keep the long-run rate" `Quick
      test_bursty_arrivals_average_out;
    QCheck_alcotest.to_alcotest qcheck_shard_determinism;
    Alcotest.test_case "shard merge totals" `Quick test_shard_merge_totals;
    Alcotest.test_case "breakdown labels agree across sides" `Quick
      test_breakdown_labels_agree;
    Alcotest.test_case "publish and SLO wiring" `Quick test_publish_and_slo;
  ]
