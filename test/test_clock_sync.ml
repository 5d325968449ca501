open Ra_core
module Device = Ra_mcu.Device
module Simtime = Ra_net.Simtime

let sym_key = String.make 20 's'
let blob = Auth.prover_key_blob ~sym_key ~public:None

let make () =
  let device =
    Device.create ~ram_size:1024
      ~clock_impl:(Device.Clock_hw { width = 64; divider_log2 = 0 })
      ~key:blob ()
  in
  let sync = Clock_sync.install device in
  let time = Simtime.create () in
  (device, sync, time)

let test_sync_corrects_offset () =
  let device, sync, time = make () in
  (* device booted late: verifier wall clock is 100 s ahead *)
  Simtime.advance_to time 100.0;
  Device.idle device ~seconds:2.0 (* prover clock: 2s *);
  Simtime.advance_to time 102.0;
  let req = Clock_sync.make_sync_request ~sym_key ~time ~counter:1L in
  (match Clock_sync.handle sync req with
  | Ok ack -> Alcotest.(check bool) "ack verifies" true
      (Clock_sync.check_sync_ack ~sym_key ~counter:1L ack)
  | Error e -> Alcotest.failf "sync failed: %a" Verdict.pp e);
  Alcotest.(check int64) "offset ≈ 100s" 100_000L (Clock_sync.offset_ms sync);
  Alcotest.(check bool) "now tracks verifier" true
    (Int64.abs (Int64.sub (Clock_sync.now_ms sync) 102_000L) < 100L)

let test_sync_replay_rejected () =
  let _, sync, time = make () in
  Simtime.advance_to time 50.0;
  let req = Clock_sync.make_sync_request ~sym_key ~time ~counter:1L in
  (match Clock_sync.handle sync req with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first sync failed: %a" Verdict.pp e);
  (* a recorded sync request replayed later must not drag the clock back *)
  (match Clock_sync.handle sync req with
  | Error (Verdict.Not_fresh (Verdict.Stale_counter { got = 1L; stored = 1L })) -> ()
  | Ok _ -> Alcotest.fail "replayed sync accepted"
  | Error e -> Alcotest.failf "wrong reject: %a" Verdict.pp e)

let test_sync_bad_tag_rejected () =
  let _, sync, time = make () in
  let req =
    match Clock_sync.make_sync_request ~sym_key:(String.make 20 'x') ~time ~counter:1L with
    | Message.Sync_request _ as r -> r
    | _ -> assert false
  in
  (match Clock_sync.handle sync req with
  | Error Verdict.Bad_auth -> ()
  | Ok _ -> Alcotest.fail "forged sync accepted"
  | Error e -> Alcotest.failf "wrong reject: %a" Verdict.pp e)

let test_sync_counter_must_increase () =
  let _, sync, time = make () in
  let ok c =
    match Clock_sync.handle sync (Clock_sync.make_sync_request ~sym_key ~time ~counter:c) with
    | Ok _ -> true
    | Error _ -> false
  in
  Alcotest.(check bool) "c=5" true (ok 5L);
  Alcotest.(check bool) "c=4 rejected" false (ok 4L);
  Alcotest.(check bool) "c=6" true (ok 6L)

let test_offset_protected_by_rule () =
  let device, sync, time = make () in
  Ra_mcu.Ea_mpu.program (Device.mpu device) (Clock_sync.rule_protect_sync_state device);
  Ra_mcu.Ea_mpu.lock (Device.mpu device);
  Simtime.advance_to time 30.0;
  (match Clock_sync.handle sync (Clock_sync.make_sync_request ~sym_key ~time ~counter:1L) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trusted path blocked: %a" Verdict.pp e);
  (* malware cannot overwrite the offset cell *)
  let offset_addr = Device.counter_addr device + Clock_sync.offset_offset in
  (try
     Ra_mcu.Cpu.store_u64 (Device.cpu device) offset_addr 0L;
     Alcotest.fail "offset write should fault"
   with Ra_mcu.Cpu.Protection_fault _ -> ())

let test_no_clock_rejected () =
  (* a clock-less device has nothing to synchronize: install refuses it,
     as Freshness.init refuses a timestamp policy *)
  let device = Device.create ~ram_size:1024 ~key:blob () in
  match Clock_sync.install device with
  | _ -> Alcotest.fail "clock sync installed on a clock-less device"
  | exception Invalid_argument _ -> ()

let tests =
  [
    Alcotest.test_case "sync corrects offset" `Quick test_sync_corrects_offset;
    Alcotest.test_case "sync replay rejected" `Quick test_sync_replay_rejected;
    Alcotest.test_case "bad tag rejected" `Quick test_sync_bad_tag_rejected;
    Alcotest.test_case "counter must increase" `Quick test_sync_counter_must_increase;
    Alcotest.test_case "offset protected by rule" `Quick test_offset_protected_by_rule;
    Alcotest.test_case "no clock" `Quick test_no_clock_rejected;
  ]
