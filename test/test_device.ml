open Ra_mcu

let key = String.make 20 'K' ^ String.make 40 '\x00'

let test_construction () =
  let d = Device.create ~ram_size:8192 ~key () in
  Alcotest.(check int) "attested len" 8192 (Device.attested_len d);
  Alcotest.(check int) "key len" 60 (Device.key_len d);
  Alcotest.(check bool) "no clock by default" true (Device.clock d = None)

let test_key_provisioned_and_sealed () =
  let d = Device.create ~key () in
  Alcotest.(check string) "key readable raw" key
    (Memory.read_bytes (Device.memory d) (Device.key_addr d) (Device.key_len d));
  (* ROM sealed at manufacture: even raw writes fault *)
  (try
     Memory.write_byte (Device.memory d) (Device.key_addr d) 0;
     Alcotest.fail "ROM must be sealed"
   with Memory.Bus_fault _ -> ())

let test_key_in_flash_is_writable_without_rule () =
  let d = Device.create ~key_location:Device.Key_in_flash ~key () in
  (* flash is not inherently write-protected — without an EA-MPU rule the
     key can be overwritten (the §6.2 point) *)
  Cpu.store_byte (Device.cpu d) (Device.key_addr d) 0;
  Alcotest.(check int) "overwritten" 0
    (Memory.read_byte (Device.memory d) (Device.key_addr d))

let test_bad_key_rejected () =
  Alcotest.check_raises "empty key"
    (Invalid_argument "Device.create: key must be 1..64 bytes") (fun () ->
      ignore (Device.create ~key:"" ()))

let test_clock_variants () =
  let d64 = Device.create ~clock_impl:(Device.Clock_hw { width = 64; divider_log2 = 0 }) ~key () in
  (match Device.clock d64 with
  | Some c -> Alcotest.(check bool) "hw kind" true (Clock.kind c = Clock.Hw_counter)
  | None -> Alcotest.fail "expected clock");
  let dsw =
    Device.create ~clock_impl:(Device.Clock_sw { lsb_width = 24; divider_log2 = 0 }) ~key ()
  in
  (match Device.clock dsw with
  | Some c ->
    Alcotest.(check bool) "sw kind" true (Clock.kind c = Clock.Sw_clock);
    Alcotest.(check (option int)) "msb addr" (Some (Device.clock_msb_addr dsw))
      (Clock.msb_addr c)
  | None -> Alcotest.fail "expected clock")

let test_idle_advances_clock_and_sleep_energy () =
  let energy = Energy.create ~capacity_joules:10.0 ~active_nj_per_cycle:1000.0 ~sleep_microwatt:1.0 () in
  let d =
    Device.create ~clock_impl:(Device.Clock_hw { width = 64; divider_log2 = 0 }) ~energy ~key ()
  in
  Device.idle d ~seconds:10.0;
  (match Device.clock d with
  | Some c -> Alcotest.(check (float 0.01)) "clock advanced" 10.0 (Clock.seconds c)
  | None -> Alcotest.fail "expected clock");
  (* 10 s at 1 µW = 10 µJ, far below what 10s of *active* cycles would cost *)
  Alcotest.(check (float 1e-7)) "sleep energy only" 1e-5 (Energy.consumed_joules energy)

let test_deterministic_ram () =
  let d1 = Device.create ~ram_size:4096 ~key () in
  let d2 = Device.create ~ram_size:4096 ~key () in
  Device.fill_ram_deterministic d1 ~seed:7L;
  Device.fill_ram_deterministic d2 ~seed:7L;
  let img d = Memory.read_bytes (Device.memory d) (Device.attested_base d) 4096 in
  Alcotest.(check bool) "same seed, same image" true (img d1 = img d2);
  Device.fill_ram_deterministic d2 ~seed:8L;
  Alcotest.(check bool) "different seed differs" true (img d1 <> img d2)

let test_actuator_protection () =
  let d = Device.create ~key () in
  Ea_mpu.program (Device.mpu d) (Device.rule_protect_actuator d);
  Ea_mpu.lock (Device.mpu d);
  let cpu = Device.cpu d in
  (* the application region may drive the peripheral *)
  Cpu.with_context cpu Device.region_app (fun () ->
      Cpu.store_byte cpu (Device.actuator_addr d) 0xAA);
  Alcotest.(check int) "app actuated" 0xAA
    (Memory.read_byte (Device.memory d) (Device.actuator_addr d));
  (* compromised code elsewhere cannot *)
  (try
     Cpu.store_byte cpu (Device.actuator_addr d) 0x00;
     Alcotest.fail "malware actuation should fault"
   with Cpu.Protection_fault _ -> ());
  (* anyone may read back the peripheral state *)
  Alcotest.(check int) "readable" 0xAA (Cpu.load_byte cpu (Device.actuator_addr d))

let test_rom_image_provisioning () =
  let d = Device.create ~rom_images:[ (Device.region_attest, "TRUSTED-CODE") ] ~key () in
  let r = Memory.region_named (Device.memory d) Device.region_attest in
  Alcotest.(check string) "image present" "TRUSTED-CODE"
    (Memory.read_bytes (Device.memory d) r.Ra_mcu.Region.base 12);
  Alcotest.check_raises "oversized image"
    (Invalid_argument "Device.create: image for rom_clock exceeds region") (fun () ->
      ignore
        (Device.create ~rom_images:[ ("rom_clock", String.make 2048 'x') ] ~key ()))

let test_protection_rule_constructors () =
  let d = Device.create ~key () in
  let r = Device.rule_protect_key d in
  Alcotest.(check int) "key rule base" (Device.key_addr d) r.Ea_mpu.data_base;
  Alcotest.(check bool) "key readable only by attest" true
    (r.Ea_mpu.read_by = Ea_mpu.Code_in [ Device.region_attest ]);
  let c = Device.rule_protect_counter d in
  Alcotest.(check int) "counter rule base" (Device.counter_addr d) c.Ea_mpu.data_base;
  let i = Device.rule_protect_idt d in
  Alcotest.(check int) "idt rule size" (Device.idt_size d) i.Ea_mpu.data_size

(* Host heap, not simulated bytes: a device holds only the pages it wrote
   (the key's) plus the one shared zero page, not its ~80 KB memory map. *)
let test_host_footprint () =
  let words = Obj.reachable_words (Obj.repr (Device.create ~ram_size:1024 ~key ())) in
  if words > 2048 then Alcotest.failf "blank 1 KiB device holds %d words (> 2048)" words

let tests =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "key provisioning + ROM seal" `Quick test_key_provisioned_and_sealed;
    Alcotest.test_case "flash key writable without rule" `Quick
      test_key_in_flash_is_writable_without_rule;
    Alcotest.test_case "bad key rejected" `Quick test_bad_key_rejected;
    Alcotest.test_case "clock variants" `Quick test_clock_variants;
    Alcotest.test_case "idle: clock + sleep energy" `Quick
      test_idle_advances_clock_and_sleep_energy;
    Alcotest.test_case "deterministic RAM" `Quick test_deterministic_ram;
    Alcotest.test_case "actuator peripheral protection" `Quick test_actuator_protection;
    Alcotest.test_case "ROM image provisioning" `Quick test_rom_image_provisioning;
    Alcotest.test_case "protection rule constructors" `Quick
      test_protection_rule_constructors;
    Alcotest.test_case "host footprint" `Quick test_host_footprint;
  ]
