open Ra_core
module Device = Ra_mcu.Device
module Memory = Ra_mcu.Memory
module Secure_boot = Ra_mcu.Secure_boot
module Ea_mpu = Ra_mcu.Ea_mpu

let key_blob = Auth.prover_key_blob ~sym_key:(String.make 20 'k') ~public:None

let test_all_specs_boot () =
  List.iter
    (fun spec ->
      let prover = Architecture.build ~ram_size:4096 ~key_blob spec in
      match prover.Architecture.boot_outcome with
      | Secure_boot.Booted -> ()
      | Secure_boot.Rejected_bad_image _ ->
        Alcotest.failf "%s failed to boot" spec.Architecture.spec_name)
    Architecture.all_specs

let test_spec_rule_counts () =
  let rules spec =
    let prover = Architecture.build ~ram_size:4096 ~key_blob spec in
    Ea_mpu.rule_count (Device.mpu prover.Architecture.device)
  in
  Alcotest.(check int) "unprotected: none" 0 (rules Architecture.unprotected);
  Alcotest.(check int) "smart-like: key only" 1 (rules Architecture.smart_like);
  Alcotest.(check int) "trustlite-base: key+counter" 2 (rules Architecture.trustlite_base);
  Alcotest.(check int) "sw-clock: +msb,idt,irq" 5 (rules Architecture.trustlite_sw_clock)

let test_lock_states () =
  let locked spec =
    let prover = Architecture.build ~ram_size:4096 ~key_blob spec in
    Ea_mpu.is_locked (Device.mpu prover.Architecture.device)
  in
  Alcotest.(check bool) "unprotected unlocked" false (locked Architecture.unprotected);
  Alcotest.(check bool) "trustlite locked" true (locked Architecture.trustlite_base)

let test_tampered_image_refused () =
  (* build a prover manually with a corrupted application image *)
  let spec = Architecture.trustlite_base in
  let device =
    Device.create ~ram_size:4096 ~clock_impl:spec.Architecture.clock_impl ~key:key_blob ()
  in
  Secure_boot.install_image (Device.memory device) ~region:Device.region_app
    Architecture.app_image;
  let region = Memory.region_named (Device.memory device) Device.region_app in
  Memory.write_byte (Device.memory device) region.Ra_mcu.Region.base
    (Memory.read_byte (Device.memory device) region.Ra_mcu.Region.base lxor 0xFF);
  let outcome =
    Secure_boot.boot (Device.cpu device) None
      {
        Secure_boot.reference_digest = Secure_boot.digest_image Architecture.app_image;
        protection_rules = [];
        lock_mpu = true;
        enable_interrupts = false;
      }
      ~region:Device.region_app
      ~image_len:(String.length Architecture.app_image.Secure_boot.code)
  in
  (match outcome with
  | Secure_boot.Rejected_bad_image _ -> ()
  | Secure_boot.Booted -> Alcotest.fail "tampered image booted")

let test_with_helpers () =
  let s = Architecture.with_name Architecture.smart_like "renamed" in
  Alcotest.(check string) "rename" "renamed" s.Architecture.spec_name;
  let s2 = Architecture.with_scheme s None in
  Alcotest.(check bool) "scheme cleared" true (s2.Architecture.scheme = None);
  let s3 = Architecture.with_policy s2 Freshness.No_freshness in
  Alcotest.(check bool) "policy cleared" true
    (s3.Architecture.policy = Freshness.No_freshness)

let test_reboot_preserves_security_state () =
  let spec =
    { (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
      Architecture.clock_impl = Ra_mcu.Device.Clock_none }
  in
  let prover = Architecture.build ~ram_size:4096 ~key_blob spec in
  (* process a request with counter 7 *)
  let tag body = Auth.tag_request Ra_mcu.Timing.Auth_hmac_sha1
      (Auth.Vs_symmetric (String.make 20 'k')) ~body
  in
  let req counter =
    let freshness = Message.F_counter counter in
    let body = Message.request_body ~challenge:"c" ~freshness in
    { Message.challenge = "c"; freshness; tag = tag body }
  in
  (match Code_attest.handle_request prover.Architecture.anchor (req 7L) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pre-reboot request failed: %a" Verdict.pp e);
  (* reboot: secure boot reruns, rules are re-locked *)
  let prover' = Architecture.reboot prover in
  (match prover'.Architecture.boot_outcome with
  | Secure_boot.Booted -> ()
  | Secure_boot.Rejected_bad_image _ -> Alcotest.fail "reboot refused");
  Alcotest.(check bool) "MPU re-locked" true
    (Ea_mpu.is_locked (Device.mpu prover'.Architecture.device));
  (* the reboot copies ROM and flash across, but their blank pages stay the
     shared zero page: no bigger than a fresh prover plus 4 KiB *)
  let words p = Obj.reachable_words (Obj.repr p) in
  let fresh = words (Architecture.build ~ram_size:4096 ~key_blob spec) in
  if words prover' > fresh + (4096 / (Sys.word_size / 8)) then
    Alcotest.failf "rebooted prover holds %d words, a fresh one %d" (words prover') fresh;
  (* the counter survived NVM: replaying the pre-reboot request fails *)
  (match Code_attest.handle_request prover'.Architecture.anchor (req 7L) with
  | Error (Verdict.Not_fresh (Verdict.Stale_counter { stored = 7L; _ })) -> ()
  | Ok _ -> Alcotest.fail "reboot rolled the counter back!"
  | Error e -> Alcotest.failf "unexpected reject: %a" Verdict.pp e);
  (* a genuinely fresh request still works *)
  (match Code_attest.handle_request prover'.Architecture.anchor (req 8L) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-reboot request failed: %a" Verdict.pp e)

let test_deterministic_reference_image () =
  (* two provers built with the same seed measure identically *)
  let p1 = Architecture.build ~ram_seed:5L ~ram_size:4096 ~key_blob Architecture.trustlite_base in
  let p2 = Architecture.build ~ram_seed:5L ~ram_size:4096 ~key_blob Architecture.trustlite_base in
  Alcotest.(check bool) "identical measurements" true
    (Code_attest.measure_memory p1.Architecture.device
    = Code_attest.measure_memory p2.Architecture.device);
  let p3 = Architecture.build ~ram_seed:6L ~ram_size:4096 ~key_blob Architecture.trustlite_base in
  Alcotest.(check bool) "different seed differs" true
    (Code_attest.measure_memory p1.Architecture.device
    <> Code_attest.measure_memory p3.Architecture.device)

let tests =
  [
    Alcotest.test_case "all specs boot" `Quick test_all_specs_boot;
    Alcotest.test_case "rule counts per spec" `Quick test_spec_rule_counts;
    Alcotest.test_case "lock states" `Quick test_lock_states;
    Alcotest.test_case "tampered image refused" `Quick test_tampered_image_refused;
    Alcotest.test_case "with_* helpers" `Quick test_with_helpers;
    Alcotest.test_case "reboot preserves security state" `Quick
      test_reboot_preserves_security_state;
    Alcotest.test_case "deterministic reference image" `Quick
      test_deterministic_reference_image;
  ]
