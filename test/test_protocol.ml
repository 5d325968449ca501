(* End-to-end protocol: Code_attest + Verifier + Session. *)
open Ra_core
module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Timing = Ra_mcu.Timing

let small_session ?spec () = Session.create ?spec ~ram_size:4096 ()

let test_benign_round_trusted () =
  let s = small_session () in
  Session.advance_time s ~seconds:1.0;
  (match Session.attest_round s with
  | Some Verdict.Trusted -> ()
  | Some v -> Alcotest.failf "expected trusted, got %a" Verdict.pp v
  | None -> Alcotest.fail "no response")

let test_modified_memory_detected () =
  let s = small_session () in
  Session.advance_time s ~seconds:1.0;
  (* malware modifies attested RAM and stays resident *)
  let d = Session.device s in
  Cpu.store_bytes (Device.cpu d) (Device.attested_base d) "INFECTED";
  (match Session.attest_round s with
  | Some Verdict.Untrusted_state -> ()
  | Some v -> Alcotest.failf "expected untrusted, got %a" Verdict.pp v
  | None -> Alcotest.fail "no response")

let test_forged_request_rejected () =
  let s = small_session () in
  Session.advance_time s ~seconds:1.0;
  let forged =
    {
      Message.challenge = "evil";
      freshness = Message.F_timestamp 1000L;
      tag = Message.Tag_none;
    }
  in
  Session.deliver_to_prover s ~origin:Ra_net.Channel.Injected forged;
  let stats = Code_attest.stats (Session.anchor s) in
  Alcotest.(check int) "no attestation" 0 stats.Code_attest.attestations_performed;
  Alcotest.(check int) "rejected" 1 stats.Code_attest.requests_rejected

let test_wrong_mac_rejected () =
  let s = small_session () in
  Session.advance_time s ~seconds:1.0;
  let req = Session.send_request s in
  let tampered = { req with Message.challenge = req.Message.challenge ^ "x" } in
  Session.deliver_to_prover s ~origin:Ra_net.Channel.Injected tampered;
  Alcotest.(check int) "rejected" 1
    (Code_attest.stats (Session.anchor s)).Code_attest.requests_rejected

let test_attestation_charges_cycles_and_energy () =
  let s = small_session () in
  Session.advance_time s ~seconds:1.0;
  let d = Session.device s in
  let before = Cpu.work_cycles (Device.cpu d) in
  let _ = Session.attest_round s in
  let spent = Int64.sub (Cpu.work_cycles (Device.cpu d)) before in
  (* at minimum the memory MAC of 4 KB plus request authentication *)
  let mac = Timing.memory_mac_cycles ~bytes_len:4096 in
  Alcotest.(check bool) "at least the MAC cost" true (Int64.compare spent mac >= 0);
  Alcotest.(check bool) "energy consumed" true
    (Ra_mcu.Energy.consumed_joules (Device.energy d) > 0.0)

let test_unauthenticated_spec_attests_bogus () =
  (* the §3.1 victim: no request authentication *)
  let s = small_session ~spec:Architecture.unprotected () in
  let bogus =
    { Message.challenge = "any"; freshness = Message.F_none; tag = Message.Tag_none }
  in
  Session.deliver_to_prover s ~origin:Ra_net.Channel.Injected bogus;
  Alcotest.(check int) "attested a bogus request" 1
    (Code_attest.stats (Session.anchor s)).Code_attest.attestations_performed

let test_response_echo_checked () =
  let s = small_session () in
  Session.advance_time s ~seconds:1.0;
  let req = Session.send_request s in
  let _ = Session.deliver_next_to_prover s in
  (* tamper the response's echoed challenge in flight *)
  (match Ra_net.Channel.undelivered (Session.channel s) with
  | [ sent ] ->
    (match Message.wire_of_bytes sent.Ra_net.Channel.payload with
    | Some (Message.Response resp) ->
      let tampered = { resp with Message.echo_challenge = "spoof" } in
      Ra_net.Channel.deliver (Session.channel s) ~origin:Ra_net.Channel.Injected ~dst:Ra_net.Channel.Verifier_side
        (Message.wire_to_bytes (Message.Response tampered));
      (* unsolicited (unknown challenge) responses are dropped: no verdict *)
      Alcotest.(check int) "no verdict" 0 (List.length (Session.verdicts s));
      ignore req
    | Some (Message.Request _ | Message.Sync_request _ | Message.Sync_response _
           | Message.Service_request _ | Message.Service_ack _
           | Message.Hs_init _ | Message.Hs_resp _ | Message.Hs_fin _
           | Message.Record _)
    | None ->
      Alcotest.fail "expected response on wire")
  | l -> Alcotest.failf "expected one pending message, got %d" (List.length l))

let test_all_schemes_end_to_end () =
  List.iter
    (fun scheme ->
      let spec =
        Architecture.with_scheme
          (Architecture.with_policy Architecture.trustlite_base Freshness.Counter)
          (Some scheme)
      in
      let spec = { spec with Architecture.clock_impl = Device.Clock_none } in
      let s = small_session ~spec () in
      match Session.attest_round s with
      | Some Verdict.Trusted -> ()
      | Some v ->
        Alcotest.failf "%a: got %a" Timing.pp_auth_scheme scheme Verdict.pp v
      | None -> Alcotest.failf "%a: no response" Timing.pp_auth_scheme scheme)
    [
      Timing.Auth_hmac_sha1;
      Timing.Auth_aes128_cbc_mac;
      Timing.Auth_speck64_cbc_mac;
      Timing.Auth_ecdsa_verify;
    ]

let test_counter_policy_round_robin () =
  let spec =
    { (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
      Architecture.clock_impl = Device.Clock_none }
  in
  let s = small_session ~spec () in
  (* several consecutive rounds all succeed: counters advance in step *)
  List.iter
    (fun i ->
      match Session.attest_round s with
      | Some Verdict.Trusted -> ()
      | Some _ | None -> Alcotest.failf "round %d failed" i)
    [ 1; 2; 3; 4; 5 ]

let test_malformed_frames_dropped () =
  let s = small_session () in
  let device = Session.device s in
  let before_energy = Ra_mcu.Energy.consumed_joules (Device.energy device) in
  Session.deliver_frame_to_prover s ~origin:Ra_net.Channel.Injected "";
  Session.deliver_frame_to_prover s ~origin:Ra_net.Channel.Injected "garbage that is not a frame";
  Session.deliver_frame_to_prover s ~origin:Ra_net.Channel.Injected (String.make 4096 '\xff');
  let stats = Code_attest.stats (Session.anchor s) in
  Alcotest.(check int) "anchor never invoked" 0 stats.Code_attest.requests_seen;
  (* receiving junk still costs radio energy *)
  Alcotest.(check bool) "radio energy charged" true
    (Ra_mcu.Energy.consumed_joules (Device.energy device) > before_energy);
  (* the session still works afterwards *)
  Session.advance_time s ~seconds:1.0;
  (match Session.attest_round s with
  | Some Verdict.Trusted -> ()
  | Some _ | None -> Alcotest.fail "session broken by garbage frames")

let test_bitexact_frame_replay_rejected () =
  let s = small_session () in
  Session.advance_time s ~seconds:1.0;
  let req = Session.send_request s in
  let _ = Session.deliver_next_to_prover s in
  let _ = Session.deliver_next_to_verifier s in
  (* replay the exact recorded frame bytes *)
  (match Ra_net.Channel.transcript (Session.channel s) with
  | frame :: _ -> Session.deliver_frame_to_prover s ~origin:Ra_net.Channel.Replayed frame.Ra_net.Channel.payload
  | [] -> Alcotest.fail "empty transcript");
  let stats = Code_attest.stats (Session.anchor s) in
  Alcotest.(check int) "single attestation" 1 stats.Code_attest.attestations_performed;
  Alcotest.(check int) "frame replay rejected" 1 stats.Code_attest.requests_rejected;
  ignore req

let test_code_update_with_flash_attestation () =
  (* with attest_app_flash the measurement covers code: an update changes
     the verdict until the verifier re-provisions its reference image *)
  let spec =
    {
      (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
      Architecture.clock_impl = Device.Clock_none;
      spec_name = "flash-attested";
      attest_app_flash = true;
    }
  in
  let s = small_session ~spec () in
  (match Session.attest_round s with
  | Some Verdict.Trusted -> ()
  | Some _ | None -> Alcotest.fail "initial round should be trusted");
  (* an authorized code update through the service layer *)
  let svc =
    Service.install (Session.device s) ~scheme:(Some Timing.Auth_hmac_sha1)
      ~policy:Freshness.Counter
  in
  let update =
    Service.make_request ~sym_key:"K_attest_0123456789."
      ~scheme:(Some Timing.Auth_hmac_sha1) ~freshness:(Message.F_counter 1L)
      (Service.Code_update { image = "firmware v2" })
  in
  (match Service.handle svc update with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update rejected: %a" Verdict.pp e);
  (* the measurement now differs from the verifier's reference *)
  (match Session.attest_round s with
  | Some Verdict.Untrusted_state -> ()
  | Some v -> Alcotest.failf "expected untrusted after update, got %a" Verdict.pp v
  | None -> Alcotest.fail "no response");
  (* verifier learns the new good state; next sweep is green again *)
  Verifier.set_reference_image (Session.verifier s)
    (Code_attest.measure_memory (Session.device s));
  (match Session.attest_round s with
  | Some Verdict.Trusted -> ()
  | Some v -> Alcotest.failf "expected trusted after re-provisioning, got %a"
                Verdict.pp v
  | None -> Alcotest.fail "no response")

let test_flash_attestation_costs_more () =
  let base_spec =
    {
      (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
      Architecture.clock_impl = Device.Clock_none;
    }
  in
  let work spec =
    let s = small_session ~spec () in
    let cpu = Device.cpu (Session.device s) in
    let before = Cpu.work_cycles cpu in
    let _ = Session.attest_round s in
    Int64.sub (Cpu.work_cycles cpu) before
  in
  let ram_only = work base_spec in
  let with_flash = work { base_spec with Architecture.attest_app_flash = true } in
  (* 64 KB of flash at 0.092 ms per 64-byte block on top of the RAM MAC *)
  let expected_extra = Timing.memory_mac_cycles ~bytes_len:(65536 + 4096) in
  Alcotest.(check bool) "flash sweep costs more" true
    (Int64.compare with_flash ram_only > 0);
  Alcotest.(check bool) "cost grows by the flash MAC" true
    (Int64.compare with_flash expected_extra >= 0)

let test_sync_round_over_the_channel () =
  (* future-work 2 running over the same Dolev-Yao wire as attestation *)
  let s = small_session () (* trustlite_base: 64-bit clock *) in
  Session.advance_time s ~seconds:30.0;
  Alcotest.(check bool) "sync succeeds" true (Session.sync_round s);
  Alcotest.(check bool) "prover wall time tracks verifier" true
    (Int64.abs (Int64.sub (Session.prover_wall_ms s) 30_000L) < 1_000L);
  (* attestation still works afterwards *)
  (match Session.attest_round s with
  | Some Verdict.Trusted -> ()
  | Some _ | None -> Alcotest.fail "round after sync failed");
  (* replaying the recorded sync frame is rejected by the sync counter *)
  let sync_frames =
    List.filter
      (fun sent ->
        match Message.wire_of_bytes sent.Ra_net.Channel.payload with
        | Some (Message.Sync_request _) -> true
        | Some
            ( Message.Request _ | Message.Response _ | Message.Sync_response _
            | Message.Service_request _ | Message.Service_ack _
            | Message.Hs_init _ | Message.Hs_resp _ | Message.Hs_fin _
            | Message.Record _ )
        | None ->
          false)
      (Ra_net.Channel.transcript (Session.channel s))
  in
  (match sync_frames with
  | frame :: _ ->
    let stale =
      Ra_obs.Registry.Counter.get ~labels:[ ("result", "stale_counter") ]
        "ra_clock_sync_requests_total"
    in
    let before = Ra_obs.Registry.Counter.value stale in
    let wire = Ra_net.Channel.transcript_length (Session.channel s) in
    Session.deliver_frame_to_prover s ~origin:Ra_net.Channel.Replayed frame.Ra_net.Channel.payload;
    Alcotest.(check int) "sync replay rejected" (before + 1)
      (Ra_obs.Registry.Counter.value stale);
    Alcotest.(check int) "no sync ack sent" wire
      (Ra_net.Channel.transcript_length (Session.channel s))
  | [] -> Alcotest.fail "no sync frame recorded")

let test_sync_round_without_clock () =
  let spec =
    { (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
      Architecture.clock_impl = Device.Clock_none }
  in
  let s = small_session ~spec () in
  Alcotest.(check bool) "clock-less prover cannot sync" false (Session.sync_round s)

let test_anchor_fault_on_misconfigured_rules () =
  (* pathological config: a rule that denies even Code_attest the key *)
  let spec =
    { Architecture.trustlite_base with Architecture.clock_impl = Device.Clock_none;
      policy = Freshness.Counter; protect_key = false; lock_mpu = false }
  in
  let s = small_session ~spec () in
  let d = Session.device s in
  Ra_mcu.Ea_mpu.program (Device.mpu d)
    {
      Ra_mcu.Ea_mpu.rule_name = "break-key";
      data_base = Device.key_addr d;
      data_size = Device.key_len d;
      read_by = Ra_mcu.Ea_mpu.Nobody;
      write_by = Ra_mcu.Ea_mpu.Nobody;
    };
  let req = Session.send_request s in
  (match Code_attest.handle_request (Session.anchor s) req with
  | Error (Verdict.Fault _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected anchor fault")

(* The sync-counter cell (NVRAM +8) has no rule in a Session world, so
   app code can park it at all ones. The sync counter is checked under
   RFC 1982 serial arithmetic, as the attestation counter is, so the
   verifier's next counter lies in the forward half-window of 2^64 - 1
   and every later sync still goes through. *)
let test_sync_after_counter_cell_set_to_all_ones () =
  let s = small_session () in
  let d = Session.device s in
  Cpu.with_context (Device.cpu d) Device.region_app (fun () ->
      Cpu.store_u64 (Device.cpu d) (Device.counter_addr d + 8) (-1L));
  for i = 1 to 3 do
    Session.advance_time s ~seconds:10.0;
    Alcotest.(check bool) (Printf.sprintf "sync %d succeeds" i) true (Session.sync_round s)
  done;
  Alcotest.(check bool) "prover wall time tracks verifier" true
    (Int64.abs (Int64.sub (Session.prover_wall_ms s) 30_000L) < 1_000L)

(* ---- the image buffer the anchor MACs in place ---- *)

let fresh_session ?spec ?ram_seed ram_size = Session.create ?spec ?ram_seed ~ram_size ()

(* a second apart, so a timestamped request is always fresh *)
let anchor_request s =
  Session.advance_time s ~seconds:1.0;
  Code_attest.handle_request (Session.anchor s) (Verifier.make_request (Session.verifier s))

(* One accepted request: its report must be the MAC over the image
   [measure_memory] reads into a buffer of its own. *)
let check_report what s =
  match anchor_request s with
  | Error v -> Alcotest.failf "%s: anchor rejected: %a" what Verdict.pp v
  | Ok resp ->
    let expected =
      Auth.response_report ~sym_key:(Session.sym_key s)
        ~body:(Message.response_body { resp with Message.report = "" })
        ~memory_image:(Code_attest.measure_memory (Session.device s))
    in
    Alcotest.(check string) what (Ra_crypto.Hexutil.to_hex expected)
      (Ra_crypto.Hexutil.to_hex resp.Message.report);
    resp.Message.report

let test_image_buffer_reports () =
  (* the domain's buffer changes length 1 KiB -> 64 KiB -> 1 KiB *)
  let small = fresh_session ~ram_seed:1L 1024 in
  ignore (check_report "1 KiB" small);
  ignore (check_report "64 KiB" (fresh_session ~ram_seed:2L 65536));
  ignore (check_report "1 KiB after 64 KiB" (fresh_session ~ram_seed:3L 1024));
  ignore (check_report "first device again" small);
  (* two attested ranges, RAM then application flash, in one buffer *)
  let spec = { Architecture.trustlite_base with Architecture.attest_app_flash = true } in
  ignore (check_report "RAM + app flash" (fresh_session ~spec 1024));
  (* RAM written between rounds *)
  let s = fresh_session 1024 in
  let before = check_report "before the write" s in
  let d = Session.device s in
  Ra_mcu.Memory.write_bytes (Device.memory d) (Device.attested_base d + 100) "changed";
  let after = check_report "after the write" s in
  Alcotest.(check bool) "the write moves the report" true (before <> after)

let test_image_read_fault () =
  (* an unlocked EA-MPU takes a rule that denies the anchor part of the
     second attested range, so the read faults after the RAM range was
     copied: at that range's base, as the fresh-buffer reader does *)
  let spec =
    { Architecture.trustlite_base with Architecture.clock_impl = Device.Clock_none;
      policy = Freshness.Counter; protect_key = false; lock_mpu = false;
      attest_app_flash = true }
  in
  let s = fresh_session ~spec 1024 in
  let d = Session.device s in
  let cpu = Device.cpu d in
  let flash_base = fst (List.nth (Device.attested_ranges d) 1) in
  Ra_mcu.Ea_mpu.program (Device.mpu d)
    {
      Ra_mcu.Ea_mpu.rule_name = "flash-app-only";
      data_base = flash_base + 100;
      data_size = 16;
      read_by = Ra_mcu.Ea_mpu.Code_in [ Device.region_app ];
      write_by = Ra_mcu.Ea_mpu.Anyone;
    };
  let fault =
    {
      Cpu.fault_code = Device.region_attest;
      fault_addr = flash_base;
      fault_mode = Ra_mcu.Ea_mpu.Read;
    }
  in
  let faults = Cpu.faults cpu in
  (match anchor_request s with
  | Error (Verdict.Fault { fault_addr; fault_code }) ->
    Alcotest.(check int) "at the flash range's base" flash_base fault_addr;
    Alcotest.(check string) "in the anchor's context" Device.region_attest fault_code
  | Error v -> Alcotest.failf "expected Fault, got %a" Verdict.pp v
  | Ok _ -> Alcotest.fail "anchor read flash only application code may read");
  Alcotest.(check bool) "one fault recorded" true (Cpu.faults cpu = fault :: faults);
  (match Code_attest.measure_memory (Session.device s) with
  | _ -> Alcotest.fail "measure_memory read flash only application code may read"
  | exception Cpu.Protection_fault f ->
    Alcotest.(check bool) "measure_memory faults the same" true (f = fault));
  (* a partly filled buffer leaves no trace in the next report *)
  Ra_mcu.Ea_mpu.clear (Device.mpu d);
  ignore (check_report "after the fault" s)

let tests =
  [
    Alcotest.test_case "benign round trusted" `Quick test_benign_round_trusted;
    Alcotest.test_case "image buffer report = measure_memory MAC" `Quick
      test_image_buffer_reports;
    Alcotest.test_case "image read fault as measure_memory" `Quick test_image_read_fault;
    Alcotest.test_case "modified memory detected" `Quick test_modified_memory_detected;
    Alcotest.test_case "forged request rejected" `Quick test_forged_request_rejected;
    Alcotest.test_case "wrong MAC rejected" `Quick test_wrong_mac_rejected;
    Alcotest.test_case "attestation charges cycles/energy" `Quick
      test_attestation_charges_cycles_and_energy;
    Alcotest.test_case "unauthenticated prover attests bogus" `Quick
      test_unauthenticated_spec_attests_bogus;
    Alcotest.test_case "response echo checked" `Quick test_response_echo_checked;
    Alcotest.test_case "all schemes end-to-end" `Slow test_all_schemes_end_to_end;
    Alcotest.test_case "counter round-robin" `Quick test_counter_policy_round_robin;
    Alcotest.test_case "malformed frames dropped" `Quick test_malformed_frames_dropped;
    Alcotest.test_case "bit-exact frame replay rejected" `Quick
      test_bitexact_frame_replay_rejected;
    Alcotest.test_case "code update + flash attestation" `Quick
      test_code_update_with_flash_attestation;
    Alcotest.test_case "flash attestation costs more" `Quick
      test_flash_attestation_costs_more;
    Alcotest.test_case "sync round over the channel" `Quick
      test_sync_round_over_the_channel;
    Alcotest.test_case "sync round without clock" `Quick test_sync_round_without_clock;
    Alcotest.test_case "anchor fault on misconfiguration" `Quick
      test_anchor_fault_on_misconfigured_rules;
    Alcotest.test_case "sync after the counter cell is all ones" `Quick
      test_sync_after_counter_cell_set_to_all_ones;
  ]
