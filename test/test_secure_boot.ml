open Ra_mcu

let image = { Secure_boot.image_name = "app"; code = "trusted application code v1" }

let make () =
  let memory =
    Memory.create
      [ Region.make ~name:"flash" ~base:0x1000 ~size:4096 ~kind:Region.Flash ]
  in
  let mpu = Ea_mpu.create ~capacity:4 in
  let cpu = Cpu.create memory mpu ~clock_hz:24_000_000 in
  (memory, mpu, cpu)

let config ?(rules = []) ?(lock = true) () =
  {
    Secure_boot.reference_digest = Secure_boot.digest_image image;
    protection_rules = rules;
    lock_mpu = lock;
    enable_interrupts = false;
  }

let test_good_boot () =
  let memory, mpu, cpu = make () in
  Secure_boot.install_image memory ~region:"flash" image;
  let rule =
    {
      Ea_mpu.rule_name = "key";
      data_base = 0x1800;
      data_size = 16;
      read_by = Ea_mpu.Code_in [ "attest" ];
      write_by = Ea_mpu.Nobody;
    }
  in
  (match
     Secure_boot.boot cpu None (config ~rules:[ rule ] ()) ~region:"flash"
       ~image_len:(String.length image.Secure_boot.code)
   with
  | Secure_boot.Booted -> ()
  | Secure_boot.Rejected_bad_image _ -> Alcotest.fail "boot should succeed");
  Alcotest.(check int) "rule installed" 1 (Ea_mpu.rule_count mpu);
  Alcotest.(check bool) "mpu locked" true (Ea_mpu.is_locked mpu)

let test_tampered_image_rejected () =
  let memory, mpu, cpu = make () in
  Secure_boot.install_image memory ~region:"flash" image;
  (* flip one byte of the installed image *)
  Memory.write_byte memory 0x1000 (Memory.read_byte memory 0x1000 lxor 1);
  (match
     Secure_boot.boot cpu None (config ()) ~region:"flash"
       ~image_len:(String.length image.Secure_boot.code)
   with
  | Secure_boot.Booted -> Alcotest.fail "tampered image must not boot"
  | Secure_boot.Rejected_bad_image { expected; measured } ->
    Alcotest.(check bool) "digests differ" true (expected <> measured));
  Alcotest.(check int) "no rules installed" 0 (Ea_mpu.rule_count mpu);
  Alcotest.(check bool) "mpu not locked" false (Ea_mpu.is_locked mpu)

let test_unlocked_boot () =
  let memory, mpu, cpu = make () in
  Secure_boot.install_image memory ~region:"flash" image;
  (match
     Secure_boot.boot cpu None (config ~lock:false ()) ~region:"flash"
       ~image_len:(String.length image.Secure_boot.code)
   with
  | Secure_boot.Booted -> ()
  | Secure_boot.Rejected_bad_image _ -> Alcotest.fail "boot should succeed");
  Alcotest.(check bool) "left unlocked" false (Ea_mpu.is_locked mpu)

let test_image_too_large () =
  let memory, _, _ = make () in
  Alcotest.check_raises "oversized"
    (Invalid_argument "Secure_boot.install_image: image larger than region") (fun () ->
      Secure_boot.install_image memory ~region:"flash"
        { Secure_boot.image_name = "big"; code = String.make 8192 'x' })

let test_measure_matches_digest () =
  let memory, _, _ = make () in
  Secure_boot.install_image memory ~region:"flash" image;
  Alcotest.(check string) "measurement = digest"
    (Ra_crypto.Hexutil.to_hex (Secure_boot.digest_image image))
    (Ra_crypto.Hexutil.to_hex
       (Secure_boot.measure_region memory ~region:"flash"
          ~image_len:(String.length image.Secure_boot.code)))

(* Boot hashes through a per-domain memo keyed by the bytes measured.
   A benign boot makes the benign image resident in this domain's memo
   whatever ran before; a byte flipped after that must still be hashed. *)
let test_tampered_after_benign_boot () =
  let memory, _, cpu = make () in
  Secure_boot.install_image memory ~region:"flash" image;
  let image_len = String.length image.Secure_boot.code in
  let boot () = Secure_boot.boot cpu None (config ~lock:false ()) ~region:"flash" ~image_len in
  (match boot () with
  | Secure_boot.Booted -> ()
  | Secure_boot.Rejected_bad_image _ -> Alcotest.fail "benign image must boot");
  Memory.write_byte memory 0x1000 (Memory.read_byte memory 0x1000 lxor 1);
  let tampered = Memory.read_bytes memory 0x1000 image_len in
  match boot () with
  | Secure_boot.Booted -> Alcotest.fail "tampered image must not boot"
  | Secure_boot.Rejected_bad_image { measured; _ } ->
    Alcotest.(check string) "measured = SHA-256 of the tampered bytes"
      (Ra_crypto.Hexutil.to_hex (Ra_crypto.Sha256.digest tampered))
      (Ra_crypto.Hexutil.to_hex measured)

let tests =
  [
    Alcotest.test_case "good boot installs rules and locks" `Quick test_good_boot;
    Alcotest.test_case "tampered image rejected" `Quick test_tampered_image_rejected;
    Alcotest.test_case "boot without lockdown" `Quick test_unlocked_boot;
    Alcotest.test_case "image too large" `Quick test_image_too_large;
    Alcotest.test_case "measurement" `Quick test_measure_matches_digest;
    Alcotest.test_case "tampered after a benign boot is hashed" `Quick
      test_tampered_after_benign_boot;
  ]
