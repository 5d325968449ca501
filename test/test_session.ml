open Ra_core
module Device = Ra_mcu.Device
module Channel = Ra_net.Channel

let spec_counter =
  {
    (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
    Architecture.clock_impl = Device.Clock_none;
  }

let make () = Session.create ~spec:spec_counter ~ram_size:2048 ()

let test_multiple_outstanding_requests () =
  let s = make () in
  let _r1 = Session.send_request s in
  let _r2 = Session.send_request s in
  let _r3 = Session.send_request s in
  (* deliver all three to the prover in order, then drain responses *)
  Alcotest.(check bool) "d1" true (Session.deliver_next_to_prover s);
  Alcotest.(check bool) "d2" true (Session.deliver_next_to_prover s);
  Alcotest.(check bool) "d3" true (Session.deliver_next_to_prover s);
  let rec drain n = if Session.deliver_next_to_verifier s then drain (n + 1) else n in
  Alcotest.(check int) "three responses" 3 (drain 0);
  Alcotest.(check int) "three verdicts" 3 (List.length (Session.verdicts s));
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "trusted" true (v = Verdict.Trusted))
    (Session.verdicts s)

let test_verdict_timeline_monotone () =
  let s = make () in
  Session.advance_time s ~seconds:1.0;
  let _ = Session.attest_round s in
  Session.advance_time s ~seconds:5.0;
  let _ = Session.attest_round s in
  (match Session.verdicts s with
  | [ (t1, _); (t2, _) ] ->
    Alcotest.(check bool) "chronological" true (t1 < t2);
    (* each round's timestamp includes the prover's ~31 ms of work *)
    Alcotest.(check bool) "work time visible" true (t1 > 1.0)
  | l -> Alcotest.failf "expected 2 verdicts, got %d" (List.length l))

let test_trace_records_protocol_events () =
  let s = make () in
  Session.advance_time s ~seconds:1.0;
  let tracer = Session.enable_tracing s in
  let r = Session.attest_round_r s in
  Alcotest.(check string) "trusted" "trusted" (Verdict.label r.Session.r_verdict);
  match Ra_obs.Trace.rounds tracer with
  | [ rd ] ->
    List.iter
      (fun (name, label) ->
        Alcotest.(check bool) name true
          (List.exists
             (fun e ->
               e.Ra_obs.Trace.ev_name = name && List.mem label e.Ra_obs.Trace.ev_labels)
             rd.Ra_obs.Trace.rd_events))
      [
        ("net.tx", ("src", "verifier"));
        ("prover.result", ("result", "attested"));
        ("verifier.verdict", ("verdict", "trusted"));
      ]
  | l -> Alcotest.failf "expected 1 sealed round, got %d" (List.length l)

let test_response_to_stale_challenge_ignored () =
  let s = make () in
  let _ = Session.attest_round s in
  (* re-deliver the prover's recorded response: its challenge is no
     longer pending, so no second verdict appears *)
  let response_frames =
    List.filter
      (fun sent -> sent.Channel.src = Channel.Prover_side)
      (Channel.transcript (Session.channel s))
  in
  (match response_frames with
  | frame :: _ ->
    Channel.deliver (Session.channel s) ~origin:Channel.Replayed ~dst:Channel.Verifier_side
      frame.Channel.payload
  | [] -> Alcotest.fail "no response recorded");
  Alcotest.(check int) "still one verdict" 1 (List.length (Session.verdicts s))

let test_advance_time_moves_both_clocks () =
  let s = Session.create ~ram_size:2048 () (* trustlite_base: 64-bit clock *) in
  Session.advance_time s ~seconds:12.5;
  Alcotest.(check (float 0.01)) "sim time" 12.5 (Ra_net.Simtime.now (Session.time s));
  (match Device.clock (Session.device s) with
  | Some clock ->
    Alcotest.(check (float 0.01)) "device clock" 12.5 (Ra_mcu.Clock.seconds clock)
  | None -> Alcotest.fail "expected clock")

let test_service_round_over_channel () =
  let s = make () in
  Alcotest.(check bool) "ping acknowledged" true (Session.service_round s Service.Ping);
  Alcotest.(check bool) "erase acknowledged" true
    (Session.service_round s Service.Secure_erase);
  (* the erase really happened: attested RAM is zero and the next
     attestation flags the changed state *)
  let device = Session.device s in
  Alcotest.(check string) "RAM wiped" (String.make 64 '\x00')
    (Ra_mcu.Memory.read_bytes (Device.memory device) (Device.attested_base device) 64);
  (match Session.attest_round s with
  | Some Verdict.Untrusted_state -> ()
  | Some v -> Alcotest.failf "expected untrusted after erase, got %a" Verdict.pp v
  | None -> Alcotest.fail "no response");
  (* replaying the recorded erase frame bounces off the service counter *)
  let erase_frames =
    List.filter
      (fun sent ->
        match Message.wire_of_bytes sent.Channel.payload with
        | Some (Message.Service_request { command_name = "secure-erase"; _ }) -> true
        | Some _ | None -> false)
      (Channel.transcript (Session.channel s))
  in
  (match erase_frames with
  | frame :: _ ->
    let not_fresh () =
      Service.rejected (Service.stats (Session.service s)) Verdict.Reason.Not_fresh
    in
    let before = not_fresh () in
    Session.deliver_frame_to_prover s ~origin:Channel.Replayed frame.Channel.payload;
    Alcotest.(check int) "service replay rejected" (before + 1) (not_fresh ())
  | [] -> Alcotest.fail "no erase frame recorded")

(* Every prover step advances Simtime by the cycles its handler burned,
   so the device CPU never leads the verifier's clock: not after an
   attestation, a 64 KiB erase or a clock sync. *)
let test_steps_keep_simtime_with_cpu () =
  let s = Session.create ~ram_size:65536 () in
  Session.advance_time s ~seconds:1.0;
  let gap () =
    Ra_mcu.Cpu.elapsed_seconds (Device.cpu (Session.device s))
    -. Ra_net.Simtime.now (Session.time s)
  in
  let start = gap () in
  let check label ok =
    Alcotest.(check bool) (label ^ " succeeds") true ok;
    Alcotest.(check (float 1e-9)) (label ^ ": CPU clock stays with Simtime") start (gap ())
  in
  check "attest" (Session.attest_round s <> None);
  check "secure erase" (Session.service_round s Service.Secure_erase);
  check "sync" (Session.sync_round s);
  check "ping" (Session.service_round s Service.Ping)

(* The verifier counts a service acknowledgement only when its HMAC
   answers the round's own request. A prover that faults on every request
   (a rule denies it the key) sends no ack, so a forged ack, or a genuine
   one recorded from an earlier round, must not complete a round. *)
let test_service_acks_checked () =
  let s = Session.create ~spec:Architecture.unprotected ~ram_size:1024 () in
  let channel = Session.channel s in
  let mark = Channel.transcript_length channel in
  Alcotest.(check bool) "genuine ping acknowledged" true (Session.service_round s Service.Ping);
  let recorded =
    List.filter_map
      (fun { Channel.src; payload; _ } ->
        match src with Channel.Prover_side -> Some payload | Channel.Verifier_side -> None)
      (Channel.transcript_from channel ~pos:mark)
  in
  Alcotest.(check int) "one ack on the wire" 1 (List.length recorded);
  let device = Session.device s in
  Ra_mcu.Ea_mpu.program (Device.mpu device)
    {
      Ra_mcu.Ea_mpu.rule_name = "deny_key";
      data_base = Device.key_addr device;
      data_size = Device.key_len device;
      read_by = Ra_mcu.Ea_mpu.Nobody;
      write_by = Ra_mcu.Ea_mpu.Nobody;
    };
  Alcotest.(check bool) "faulting prover: no ack" false
    (Session.service_round s Service.Ping);
  let queue frame = Channel.send channel ~src:Channel.Prover_side frame in
  queue
    (Message.wire_to_bytes
       (Message.Service_ack { acked_command = "ping"; ack_report = "forged" }));
  Alcotest.(check bool) "forged ack refused" false (Session.service_round s Service.Ping);
  List.iter queue recorded;
  Alcotest.(check bool) "recorded ack of an earlier round refused" false
    (Session.service_round s Service.Ping)

let test_custom_sym_key () =
  let s = Session.create ~spec:spec_counter ~sym_key:(String.make 20 'z') ~ram_size:2048 () in
  match Session.attest_round s with
  | Some Verdict.Trusted -> ()
  | Some v -> Alcotest.failf "custom key round: %a" Verdict.pp v
  | None -> Alcotest.fail "no response with custom key"

(* Host heap a long-lived session keeps per operation, as the growth of
   [Obj.reachable_words] over 500 ops after 10 warm-up ops. What a round
   keeps on purpose (its wire frames, its verdict) fits under the bound;
   a per-round text log or span list does not. Kept as records with
   boxed times, with verdicts in a list, a round kept 343 B and a
   streamed record 367 B. *)
let retained_bytes_per_op root op =
  for _ = 1 to 10 do
    op ()
  done;
  let bytes () = Obj.reachable_words (Obj.repr root) * (Sys.word_size / 8) in
  let before = bytes () in
  for _ = 1 to 500 do
    op ()
  done;
  (bytes () - before) / 500

let test_retained_heap_per_round () =
  let bound = 224 in
  let s = Session.create ~ram_size:1024 () in
  Session.advance_time s ~seconds:1.0;
  let round () =
    match (Session.attest_round_r s).Session.r_verdict with
    | Verdict.Trusted -> ()
    | v -> Alcotest.failf "attest round: %a" Verdict.pp v
  in
  let per_round = retained_bytes_per_op s round in
  if per_round > bound then
    Alcotest.failf "attest_round_r keeps %d B per round (bound %d B)" per_round bound;
  let s = Session.create ~ram_size:1024 () in
  Session.advance_time s ~seconds:1.0;
  let responder = Secure_session.listen s in
  let initiator = Secure_session.connect s in
  let pump () =
    while Session.deliver_next_to_prover s || Session.deliver_next_to_verifier s do
      ()
    done
  in
  Secure_session.handshake_send initiator;
  pump ();
  Alcotest.(check bool) "established" true (Secure_session.established initiator);
  let record () =
    let before = Secure_session.verdict_count initiator in
    Alcotest.(check bool) "record sent" true (Secure_session.request_round initiator);
    pump ();
    Alcotest.(check int) "one verdict" (before + 1) (Secure_session.verdict_count initiator)
  in
  let bound = 272 in
  let per_record = retained_bytes_per_op (s, responder, initiator) record in
  if per_record > bound then
    Alcotest.failf "a streamed record keeps %d B (bound %d B)" per_record bound

(* A retried round sends a fresh challenge per attempt, and a response
   that never arrives left its challenge in the session for good: on a
   20%-lossy wire a session kept 657 B per round. A round now retires
   its challenges when it finishes, and its frames cost their payloads
   and column slots (446 B a round as records with boxed times). *)
let test_retained_heap_per_round_lossy () =
  let bound = 320 in
  let s = Session.create ~ram_size:1024 () in
  let lossy = Ra_net.Impairment.lossy 0.2 in
  Session.set_impairment s
    (Some (Ra_net.Impairment.create ~to_prover:lossy ~to_verifier:lossy ~seed:2016L ()));
  Session.advance_time s ~seconds:1.0;
  let round () = ignore (Session.attest_round_r s) in
  let per_round = retained_bytes_per_op s round in
  if per_round > bound then
    Alcotest.failf "attest_round_r on a lossy wire keeps %d B per round (bound %d B)"
      per_round bound

(* The anchor reads a device's attested memory into one buffer per domain
   and MACs it in place, so after the first round a 64 KiB round puts no
   image on the major heap. Reading it into fresh strings cost two 64 KiB
   blocks per round, about 16.5k major words. *)
let test_round_allocates_no_image () =
  let bound = 1024 and rounds = 20 in
  let s = Session.create ~ram_size:65536 () in
  Session.advance_time s ~seconds:1.0;
  let round () =
    match (Session.attest_round_r s).Session.r_verdict with
    | Verdict.Trusted -> ()
    | v -> Alcotest.failf "attest round: %a" Verdict.pp v
  in
  for _ = 1 to 3 do
    round ()
  done;
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let before = major_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let per_round = (major_words () -. before) /. float_of_int rounds in
  if per_round >= float_of_int bound then
    Alcotest.failf "a 64 KiB round allocates %.0f major words (bound %d)" per_round bound

(* Minor words per pristine 1 KiB round, after warm-up. The anchor's
   spans mirror into the causal timeline only when a tracer is attached:
   formatting their cpu_ms labels for no tracer cost a round about 190
   words (2,123 in all). *)
let test_round_minor_words () =
  let bound = 2000. and rounds = 200 in
  let s = Session.create ~ram_size:1024 () in
  Session.advance_time s ~seconds:1.0;
  let round () =
    match (Session.attest_round_r s).Session.r_verdict with
    | Verdict.Trusted -> ()
    | v -> Alcotest.failf "attest round: %a" Verdict.pp v
  in
  for _ = 1 to 20 do
    round ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let per_round = (Gc.minor_words () -. before) /. float_of_int rounds in
  if per_round >= bound then
    Alcotest.failf "a 1 KiB round allocates %.0f minor words (bound %.0f)" per_round bound

let tests =
  [
    Alcotest.test_case "multiple outstanding requests" `Quick
      test_multiple_outstanding_requests;
    Alcotest.test_case "verdict timeline" `Quick test_verdict_timeline_monotone;
    Alcotest.test_case "trace records protocol events" `Quick
      test_trace_records_protocol_events;
    Alcotest.test_case "stale response ignored" `Quick
      test_response_to_stale_challenge_ignored;
    Alcotest.test_case "advance_time moves both clocks" `Quick
      test_advance_time_moves_both_clocks;
    Alcotest.test_case "service round over the channel" `Quick
      test_service_round_over_channel;
    Alcotest.test_case "custom symmetric key" `Quick test_custom_sym_key;
    Alcotest.test_case "retained heap per round" `Quick test_retained_heap_per_round;
    Alcotest.test_case "64 KiB round allocates no image" `Quick
      test_round_allocates_no_image;
    Alcotest.test_case "retained heap per round, lossy wire" `Quick
      test_retained_heap_per_round_lossy;
    Alcotest.test_case "1 KiB round allocates < 2,000 minor words" `Quick
      test_round_minor_words;
    Alcotest.test_case "prover steps keep Simtime with the CPU" `Quick
      test_steps_keep_simtime_with_cpu;
    Alcotest.test_case "service acks are checked" `Quick test_service_acks_checked;
  ]
