(* The interpreted trust anchor: the attestation report is computed by
   in-ISA SHA-1, every attested byte crossing the EA-MPU with the PC in
   rom_attest — and the unmodified Verifier accepts it. *)
open Ra_core
module Device = Ra_mcu.Device
module Memory = Ra_mcu.Memory
module Cpu = Ra_mcu.Cpu
module Ea_mpu = Ra_mcu.Ea_mpu
module Timing = Ra_mcu.Timing
module Simtime = Ra_net.Simtime

let sym_key = "K_attest_0123456789." (* 20 bytes *)

(* [deny_attested] adds one rule before the lock that keeps rom_attest
   out of the first 64 B of attested RAM, as a trustlet whose private
   data lies there would, or a roaming adversary who programs the rule
   before the table is locked: the interpreted copy traps on the first
   attested byte, so no reference image can be measured either. *)
let make ?(protect = true) ?(deny_attested = false) () =
  let blob = Auth.prover_key_blob ~sym_key ~public:None in
  let device =
    Device.create ~ram_size:2048
      ~rom_images:[ (Device.region_attest, Isa_anchor.rom_image ()) ]
      ~key:blob ()
  in
  Device.fill_ram_deterministic device ~seed:11L;
  if protect then begin
    Ea_mpu.program (Device.mpu device) (Device.rule_protect_key device);
    Ea_mpu.program (Device.mpu device) (Device.rule_protect_counter device);
    (* the anchor's scratch is its private working memory *)
    Ea_mpu.program (Device.mpu device)
      {
        Ea_mpu.rule_name = "anchor_scratch";
        data_base = Device.anchor_scratch_addr device;
        data_size = Ra_isa.Sha1_asm.scratch_bytes;
        read_by = Ea_mpu.Code_in [ Device.region_attest ];
        write_by = Ea_mpu.Code_in [ Device.region_attest ];
      };
    if deny_attested then
      Ea_mpu.program (Device.mpu device)
        {
          Ea_mpu.rule_name = "app_private";
          data_base = Device.attested_base device;
          data_size = 64;
          read_by = Ea_mpu.Code_in [ Device.region_app ];
          write_by = Ea_mpu.Code_in [ Device.region_app ];
        };
    Ea_mpu.lock (Device.mpu device)
  end;
  let anchor =
    Isa_anchor.install device ~scheme:(Some Timing.Auth_hmac_sha1)
      ~policy:Freshness.Counter
  in
  let reference_image = if deny_attested then "" else Code_attest.measure_memory device in
  let verifier =
    match
      Verifier.of_config
        (Verifier.Config.v ~scheme:Timing.Auth_hmac_sha1
           ~freshness_kind:Verifier.Fk_counter ~sym_key ~time:(Simtime.create ())
           ~reference_image ())
    with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  (device, anchor, verifier)

let test_end_to_end_trusted () =
  let _, anchor, verifier = make () in
  let req = Verifier.make_request verifier in
  match Isa_anchor.handle_request anchor req with
  | Ok resp ->
    Alcotest.(check bool) "verifier accepts the interpreted MAC" true
      (Verifier.check_response verifier ~request:req resp = Verdict.Trusted)
  | Error e -> Alcotest.failf "rejected: %a" Verdict.pp e

let test_report_equals_host_crypto () =
  let device, anchor, verifier = make () in
  let req = Verifier.make_request verifier in
  match Isa_anchor.handle_request anchor req with
  | Ok resp ->
    let expected =
      Auth.response_report ~sym_key
        ~body:(Message.response_body resp)
        ~memory_image:(Code_attest.measure_memory device)
    in
    Alcotest.(check string) "bit-identical to Hmac.mac"
      (Ra_crypto.Hexutil.to_hex expected)
      (Ra_crypto.Hexutil.to_hex resp.Message.report)
  | Error e -> Alcotest.failf "rejected: %a" Verdict.pp e

let test_detects_infection () =
  let device, anchor, verifier = make () in
  Memory.write_bytes (Device.memory device) (Device.attested_base device) "IMPLANT";
  let req = Verifier.make_request verifier in
  match Isa_anchor.handle_request anchor req with
  | Ok resp ->
    Alcotest.(check bool) "untrusted" true
      (Verifier.check_response verifier ~request:req resp = Verdict.Untrusted_state)
  | Error e -> Alcotest.failf "rejected: %a" Verdict.pp e

let test_freshness_enforced () =
  let _, anchor, verifier = make () in
  let req = Verifier.make_request verifier in
  (match Isa_anchor.handle_request anchor req with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first rejected: %a" Verdict.pp e);
  match Isa_anchor.handle_request anchor req with
  | Error (Verdict.Not_fresh _) -> ()
  | Ok _ -> Alcotest.fail "replay attested"
  | Error e -> Alcotest.failf "wrong reject: %a" Verdict.pp e

let test_bad_auth_rejected () =
  let _, anchor, _ = make () in
  let req =
    { Message.challenge = "evil"; freshness = Message.F_counter 1L; tag = Message.Tag_none }
  in
  match Isa_anchor.handle_request anchor req with
  | Error Verdict.Bad_auth -> ()
  | Ok _ -> Alcotest.fail "unauthenticated request attested"
  | Error e -> Alcotest.failf "wrong reject: %a" Verdict.pp e

let test_interpreted_cost_visible () =
  let device, anchor, verifier = make () in
  let req = Verifier.make_request verifier in
  let before = Cpu.work_cycles (Device.cpu device) in
  (* PC-sample the round: attestation still succeeds under sampling *)
  let pc = Ra_obs.Profiler.Pc.create () in
  let sampler = Ra_isa.Sampler.create ~memory:(Device.memory device) pc in
  Ra_isa.Sha1_asm.set_sampler (Isa_anchor.sha anchor) (Some sampler);
  (match Isa_anchor.handle_request anchor req with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected: %a" Verdict.pp e);
  Ra_isa.Sampler.flush sampler;
  Alcotest.(check int64) "sampler attributes every mac cycle"
    (Isa_anchor.last_mac_cycles anchor) (Ra_obs.Profiler.Pc.cycles pc);
  let spent = Int64.sub (Cpu.work_cycles (Device.cpu device)) before in
  (* ~2 KB + body over interpreted SHA-1 at ~8.2k cycles/block: the
     measurement dominates and is 100% real executed work *)
  Alcotest.(check bool) "mac cycles recorded" true
    (Int64.compare (Isa_anchor.last_mac_cycles anchor) 200_000L > 0);
  Alcotest.(check bool) "work charged to the device" true
    (Int64.compare spent (Isa_anchor.last_mac_cycles anchor) >= 0)

let test_scratch_protected_from_malware () =
  let device, _, _ = make () in
  (try
     ignore (Cpu.load_byte (Device.cpu device) (Device.anchor_scratch_addr device));
     Alcotest.fail "scratch read by untrusted code should fault"
   with Cpu.Protection_fault _ -> ())

let test_install_requires_rom_image () =
  let blob = Auth.prover_key_blob ~sym_key ~public:None in
  let bare = Device.create ~ram_size:2048 ~key:blob () in
  Alcotest.check_raises "missing routine"
    (Invalid_argument
       "Isa_anchor.install: rom_attest does not hold the SHA-1 routine (pass rom_images \
        at Device.create)") (fun () ->
      ignore
        (Isa_anchor.install bare ~scheme:(Some Timing.Auth_hmac_sha1)
           ~policy:Freshness.Counter))

(* A trap mid-measurement is an anchor exit like any other: it must end
   in a verdict, never an exception. *)
let test_trap_fails_closed () =
  let device, anchor, verifier = make ~deny_attested:true () in
  match Isa_anchor.handle_request anchor (Verifier.make_request verifier) with
  | Error (Verdict.Fault { fault_addr; fault_code }) ->
    Alcotest.(check int) "at the denied address" (Device.attested_base device) fault_addr;
    Alcotest.(check string) "by the anchor's code" Device.region_attest fault_code
  | Ok _ -> Alcotest.fail "a trapped measurement produced a report"
  | Error e -> Alcotest.failf "wrong reject: %a" Verdict.pp e

(* The routine stages K xor ipad in its scratch before it copies the
   first attested byte. Whatever the trap's outcome, no 16-byte window
   of either pad may be left there for the next code to read. *)
let test_trap_leaves_no_pads () =
  let device, anchor, verifier = make ~deny_attested:true () in
  (try ignore (Isa_anchor.handle_request anchor (Verifier.make_request verifier))
   with Failure _ -> ());
  let scratch =
    Memory.read_bytes (Device.memory device) (Device.anchor_scratch_addr device)
      Ra_isa.Sha1_asm.scratch_bytes
  in
  let key = Auth.blob_sym_key (Auth.prover_key_blob ~sym_key ~public:None) in
  let key = key ^ String.make (64 - String.length key) '\x00' in
  let holds window =
    let n = String.length window in
    let rec at i = i + n <= String.length scratch && (String.sub scratch i n = window || at (i + 1)) in
    at 0
  in
  List.iter
    (fun (name, x) ->
      let pad = String.map (fun c -> Char.chr (Char.code c lxor x)) key in
      for i = 0 to 64 - 16 do
        if holds (String.sub pad i 16) then
          Alcotest.failf "the scratch holds bytes %d-%d of %s" i (i + 15) name
      done)
    [ ("K xor ipad", 0x36); ("K xor opad", 0x5c) ]

let tests =
  [
    Alcotest.test_case "end-to-end trusted" `Quick test_end_to_end_trusted;
    Alcotest.test_case "report = host crypto" `Quick test_report_equals_host_crypto;
    Alcotest.test_case "detects infection" `Quick test_detects_infection;
    Alcotest.test_case "freshness enforced" `Quick test_freshness_enforced;
    Alcotest.test_case "bad auth rejected" `Quick test_bad_auth_rejected;
    Alcotest.test_case "interpreted cost visible" `Quick test_interpreted_cost_visible;
    Alcotest.test_case "scratch protected" `Quick test_scratch_protected_from_malware;
    Alcotest.test_case "install requires ROM image" `Quick test_install_requires_rom_image;
    Alcotest.test_case "a trap mid-measurement is a Fault" `Quick test_trap_fails_closed;
    Alcotest.test_case "a trap leaves no HMAC pad in the scratch" `Quick
      test_trap_leaves_no_pads;
  ]
