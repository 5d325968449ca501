(* Power-cycle semantics: what survives a reboot decides which freshness
   mechanisms are deployable (§4.2's non-volatile-memory requirements and
   the clock-resynchronization problem of future-work item 2). *)
open Ra_core
module Device = Ra_mcu.Device
module Memory = Ra_mcu.Memory
module Cpu = Ra_mcu.Cpu
module Clock = Ra_mcu.Clock

let key = String.make 60 'k'

let test_nv_state_survives () =
  let d = Device.create ~ram_size:2048 ~key () in
  (* counter_R lives in NVM; application code in flash *)
  Memory.write_u64 (Device.memory d) (Device.counter_addr d) 41L;
  Memory.write_bytes (Device.memory d) 0x010000 "app-v1";
  let d' = Device.power_cycle d in
  Alcotest.(check int64) "counter survives" 41L
    (Memory.read_u64 (Device.memory d') (Device.counter_addr d'));
  Alcotest.(check string) "flash survives" "app-v1"
    (Memory.read_bytes (Device.memory d') 0x010000 6);
  Alcotest.(check string) "key survives (ROM)" key
    (Memory.read_bytes (Device.memory d') (Device.key_addr d') (Device.key_len d'))

let test_volatile_state_cleared () =
  let d = Device.create ~ram_size:2048 ~key () in
  Device.fill_ram_deterministic d ~seed:3L;
  Ra_mcu.Ea_mpu.program (Device.mpu d) (Device.rule_protect_key d);
  Ra_mcu.Ea_mpu.lock (Device.mpu d);
  let d' = Device.power_cycle d in
  Alcotest.(check string) "RAM zeroed" (String.make 2048 '\x00')
    (Memory.read_bytes (Device.memory d') (Device.attested_base d') 2048);
  Alcotest.(check int) "MPU rules gone" 0 (Ra_mcu.Ea_mpu.rule_count (Device.mpu d'));
  Alcotest.(check bool) "MPU unlocked (secure boot must rerun)" false
    (Ra_mcu.Ea_mpu.is_locked (Device.mpu d'));
  Alcotest.(check int64) "cycle counter reset" 0L (Cpu.cycles (Device.cpu d'))

let test_battery_charge_not_reset () =
  let d = Device.create ~ram_size:2048 ~key () in
  Cpu.consume_cycles (Device.cpu d) 1_000_000L;
  let used = Ra_mcu.Energy.consumed_joules (Device.energy d) in
  Alcotest.(check bool) "some energy used" true (used > 0.0);
  let d' = Device.power_cycle d in
  Alcotest.(check (float 1e-12)) "same battery" used
    (Ra_mcu.Energy.consumed_joules (Device.energy d'))

let test_clock_restarts_breaking_timestamps () =
  let d =
    Device.create ~ram_size:2048
      ~clock_impl:(Device.Clock_hw { width = 64; divider_log2 = 0 })
      ~key ()
  in
  Device.idle d ~seconds:100.0;
  (match Device.clock d with
  | Some c -> Alcotest.(check bool) "clock ran" true (Clock.seconds c > 99.0)
  | None -> Alcotest.fail "expected clock");
  let d' = Device.power_cycle d in
  (match Device.clock d' with
  | Some c -> Alcotest.(check (float 0.001)) "clock restarted at 0" 0.0 (Clock.seconds c)
  | None -> Alcotest.fail "expected clock");
  (* timestamp freshness now rejects anything the verifier sends: the
     prover's clock says ~0 while the verifier's says ~100 s *)
  let fresh = Freshness.init d' (Freshness.Timestamp { window_ms = 5000L }) in
  (match
     Cpu.with_context (Device.cpu d') Device.region_attest (fun () ->
         Freshness.check_and_update fresh (Message.F_timestamp 100_000L))
   with
  | Error (Freshness.Future_timestamp _) -> ()
  | Ok () -> Alcotest.fail "stale clock accepted a future timestamp"
  | Error e -> Alcotest.failf "unexpected reject: %a" Freshness.pp_reject e)

let test_clock_sync_restores_operation () =
  let sym_key = String.sub key 0 20 in
  let blob = Auth.prover_key_blob ~sym_key ~public:None in
  let d =
    Device.create ~ram_size:2048
      ~clock_impl:(Device.Clock_hw { width = 64; divider_log2 = 0 })
      ~key:blob ()
  in
  let time = Ra_net.Simtime.create () in
  (* pre-reboot: synchronized at t=50 with sync counter 1 *)
  Ra_net.Simtime.advance_to time 50.0;
  let sync = Clock_sync.install d in
  (match Clock_sync.handle sync (Clock_sync.make_sync_request ~sym_key ~time ~counter:1L) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pre-reboot sync failed: %a" Verdict.pp e);
  (* reboot at t=120; clock restarts, but the sync counter survived NVM *)
  Ra_net.Simtime.advance_to time 120.0;
  let d' = Device.power_cycle d in
  let sync' = Clock_sync.install d' in
  (* replaying the pre-reboot sync request cannot set the clock back *)
  (match
     Clock_sync.handle sync'
       (Message.Sync_request
          {
            verifier_time_ms = 50_000L;
            sync_counter = 1L;
            sync_tag =
              Ra_crypto.Hmac.mac Ra_crypto.Hmac.sha1 ~key:sym_key
                ("SYNC"
                ^ Message.freshness_bytes (Message.F_counter 50_000L)
                (* wrong body on purpose; a real replay uses the recorded
                   message — tested via counter below *));
          })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed sync accepted");
  (* fresh sync with counter 2 resynchronizes *)
  (match Clock_sync.handle sync' (Clock_sync.make_sync_request ~sym_key ~time ~counter:2L) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-reboot sync failed: %a" Verdict.pp e);
  Alcotest.(check bool) "prover wall time restored" true
    (Int64.abs (Int64.sub (Clock_sync.now_ms sync') 120_000L) < 200L);
  (* and the counter-1 replay (correctly formed) is still rejected *)
  Ra_net.Simtime.advance_to time 121.0;
  let old_style =
    Clock_sync.make_sync_request ~sym_key
      ~time:(Ra_net.Simtime.create ~start:50.0 ())
      ~counter:1L
  in
  (match Clock_sync.handle sync' old_style with
  | Error (Verdict.Not_fresh (Verdict.Stale_counter _)) -> ()
  | Ok _ -> Alcotest.fail "pre-reboot sync replay accepted after reboot"
  | Error e -> Alcotest.failf "unexpected reject: %a" Verdict.pp e)

let test_ram_nonce_history_is_lost_conceptually () =
  (* the nonce history lives in RAM-backed state: after a reboot it is
     empty and every pre-reboot nonce replays successfully — one more
     §4.2 argument for the counter-in-NVM design *)
  let d = Device.create ~ram_size:2048 ~key () in
  let st = Freshness.init d (Freshness.Nonce_history { max_entries = None }) in
  Alcotest.(check bool) "accepted" true
    (Freshness.check_and_update st (Message.F_nonce "n1") = Ok ());
  let d' = Device.power_cycle d in
  let st' = Freshness.init d' (Freshness.Nonce_history { max_entries = None }) in
  Alcotest.(check bool) "pre-reboot nonce replays" true
    (Freshness.check_and_update st' (Message.F_nonce "n1") = Ok ())

let tests =
  [
    Alcotest.test_case "non-volatile state survives" `Quick test_nv_state_survives;
    Alcotest.test_case "volatile state cleared" `Quick test_volatile_state_cleared;
    Alcotest.test_case "battery charge not reset" `Quick test_battery_charge_not_reset;
    Alcotest.test_case "clock restart breaks timestamps" `Quick
      test_clock_restarts_breaking_timestamps;
    Alcotest.test_case "clock sync restores operation" `Quick
      test_clock_sync_restores_operation;
    Alcotest.test_case "RAM nonce history lost" `Quick
      test_ram_nonce_history_is_lost_conceptually;
  ]
