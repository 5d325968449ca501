(* SMART's actual shape, end to end: Code_attest is a ROM routine (SHA-1
   in the interpreted instruction set) that computes the attestation HMAC
   instruction by instruction, reading the key and every attested byte
   through the EA-MPU. The unmodified verifier accepts its reports.

   Run with: dune exec examples/interpreted_anchor.exe *)

open Ra_core
module Device = Ra_mcu.Device
module Memory = Ra_mcu.Memory
module Cpu = Ra_mcu.Cpu
module Ea_mpu = Ra_mcu.Ea_mpu
module Timing = Ra_mcu.Timing

let sym_key = "fleet-master-key-07!" (* 20 bytes *)

let () =
  let rom = Isa_anchor.rom_image () in
  Printf.printf "Code_attest ROM image: %d bytes of SHA-1 + copy routine\n"
    (String.length rom);

  let device =
    Device.create ~ram_size:(4 * 1024)
      ~rom_images:[ (Device.region_attest, rom) ]
      ~key:(Auth.prover_key_blob ~sym_key ~public:None)
      ()
  in
  Device.fill_ram_deterministic device ~seed:77L;
  (* secure-boot-style rule setup: key, counter and the anchor's scratch *)
  Ea_mpu.program (Device.mpu device) (Device.rule_protect_key device);
  Ea_mpu.program (Device.mpu device) (Device.rule_protect_counter device);
  Ea_mpu.program (Device.mpu device)
    {
      Ea_mpu.rule_name = "anchor_scratch";
      data_base = Device.anchor_scratch_addr device;
      data_size = Ra_isa.Sha1_asm.scratch_bytes;
      read_by = Ea_mpu.Code_in [ Device.region_attest ];
      write_by = Ea_mpu.Code_in [ Device.region_attest ];
    };
  Ea_mpu.lock (Device.mpu device);

  let anchor =
    Isa_anchor.install device ~scheme:(Some Timing.Auth_hmac_sha1)
      ~policy:Freshness.Counter
  in
  let verifier =
    match
      Verifier.of_config
        (Verifier.Config.v ~scheme:Timing.Auth_hmac_sha1
           ~freshness_kind:Verifier.Fk_counter ~sym_key
           ~time:(Ra_net.Simtime.create ())
           ~reference_image:(Code_attest.measure_memory device) ())
    with
    | Ok v -> v
    | Error msg -> failwith msg
  in

  Printf.printf "\n== round 1: benign ==\n";
  let req = Verifier.make_request verifier in
  (match Isa_anchor.handle_request anchor req with
  | Ok resp ->
    Format.printf "verdict: %a@." Verdict.pp
      (Verifier.check_response verifier ~request:req resp);
    Printf.printf "interpreted MAC: %Ld cycles (%.2f ms at 24 MHz) for %d bytes\n"
      (Isa_anchor.last_mac_cycles anchor)
      (Timing.ms_of_cycles (Isa_anchor.last_mac_cycles anchor))
      (Device.attested_total_len device)
  | Error e -> Format.printf "rejected: %a@." Verdict.pp e);

  Printf.printf "\n== round 2: resident malware in attested RAM ==\n";
  Cpu.store_bytes (Device.cpu device) (Device.attested_base device) "IMPLANT";
  let req2 = Verifier.make_request verifier in
  (match Isa_anchor.handle_request anchor req2 with
  | Ok resp ->
    Format.printf "verdict: %a@." Verdict.pp
      (Verifier.check_response verifier ~request:req2 resp)
  | Error e -> Format.printf "rejected: %a@." Verdict.pp e);

  Printf.printf "\n== malware probes the anchor's private state ==\n";
  (try
     ignore (Cpu.load_byte (Device.cpu device) (Device.key_addr device));
     Printf.printf "BUG: key readable\n"
   with Cpu.Protection_fault _ -> Printf.printf "K_attest read: denied by EA-MPU\n");
  (try
     ignore (Cpu.load_byte (Device.cpu device) (Device.anchor_scratch_addr device));
     Printf.printf "BUG: scratch readable\n"
   with Cpu.Protection_fault _ ->
     Printf.printf "anchor scratch read (intermediate hash state): denied by EA-MPU\n")
