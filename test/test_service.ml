open Ra_core
module Device = Ra_mcu.Device
module Memory = Ra_mcu.Memory
module Timing = Ra_mcu.Timing

let sym_key = String.make 20 's'
let blob = Auth.prover_key_blob ~sym_key ~public:None

let make ?(scheme = Some Timing.Auth_hmac_sha1) () =
  let device = Device.create ~ram_size:1024 ~key:blob () in
  let svc = Service.install device ~scheme ~policy:Freshness.Counter in
  (device, svc)

let req ?(key = sym_key) ~scheme ~counter command =
  Service.make_request ~sym_key:key ~scheme ~freshness:(Message.F_counter counter) command

let test_ping () =
  let _, svc = make () in
  (match Service.handle svc (req ~scheme:(Some Timing.Auth_hmac_sha1) ~counter:1L Service.Ping) with
  | Ok ack -> Alcotest.(check string) "echo" "ping" ack.Service.acked_command
  | Error e -> Alcotest.failf "ping rejected: %a" Verdict.pp e)

let test_secure_erase_wipes_ram () =
  let device, svc = make () in
  Device.fill_ram_deterministic device ~seed:1L;
  (match Service.handle svc (req ~scheme:(Some Timing.Auth_hmac_sha1) ~counter:1L Service.Secure_erase) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "erase rejected: %a" Verdict.pp e);
  let image = Memory.read_bytes (Device.memory device) (Device.attested_base device) 1024 in
  Alcotest.(check string) "zeroed" (String.make 1024 '\x00') image

let test_code_update_installs () =
  let device, svc = make () in
  let image = "new firmware v2" in
  (match
     Service.handle svc
       (req ~scheme:(Some Timing.Auth_hmac_sha1) ~counter:1L (Service.Code_update { image }))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update rejected: %a" Verdict.pp e);
  let region = Memory.region_named (Device.memory device) Device.region_app in
  Alcotest.(check string) "installed" image
    (Memory.read_bytes (Device.memory device) region.Ra_mcu.Region.base
       (String.length image))

let test_bad_auth_rejected () =
  let _, svc = make () in
  let forged = req ~key:(String.make 20 'x') ~scheme:(Some Timing.Auth_hmac_sha1) ~counter:1L Service.Secure_erase in
  (match Service.handle svc forged with
  | Error Verdict.Bad_auth -> ()
  | Ok _ -> Alcotest.fail "forged erase accepted!"
  | Error e -> Alcotest.failf "wrong reject: %a" Verdict.pp e);
  Alcotest.(check int) "counted" 1 (Service.rejected (Service.stats svc) Verdict.Reason.Bad_auth);
  Alcotest.(check int) "total" 1 (Service.rejections (Service.stats svc))

let test_replay_rejected () =
  let _, svc = make () in
  let r = req ~scheme:(Some Timing.Auth_hmac_sha1) ~counter:3L Service.Ping in
  (match Service.handle svc r with Ok _ -> () | Error _ -> Alcotest.fail "first");
  (match Service.handle svc r with
  | Error (Verdict.Not_fresh _) -> ()
  | Ok _ -> Alcotest.fail "replayed command accepted!"
  | Error e -> Alcotest.failf "wrong reject: %a" Verdict.pp e)

let test_tag_binds_command () =
  (* a tag minted for Ping must not authorize Secure_erase *)
  let _, svc = make () in
  let ping = req ~scheme:(Some Timing.Auth_hmac_sha1) ~counter:1L Service.Ping in
  let transplanted = { ping with Service.command = Service.Secure_erase } in
  (match Service.handle svc transplanted with
  | Error Verdict.Bad_auth -> ()
  | Ok _ -> Alcotest.fail "transplanted tag accepted!"
  | Error e -> Alcotest.failf "wrong reject: %a" Verdict.pp e)

let test_service_counter_independent_of_attestation () =
  let device, svc = make () in
  let anchor =
    Code_attest.install device ~scheme:(Some Timing.Auth_hmac_sha1)
      ~policy:Freshness.Counter ()
  in
  (* consume attestation counter 5 *)
  let body_freshness = Message.F_counter 5L in
  let challenge = "c" in
  let tag =
    Auth.tag_request Timing.Auth_hmac_sha1 (Auth.Vs_symmetric sym_key)
      ~body:(Message.request_body ~challenge ~freshness:body_freshness)
  in
  (match Code_attest.handle_request anchor { Message.challenge; freshness = body_freshness; tag } with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attestation failed: %a" Verdict.pp e);
  (* the service still accepts counter 1: separate cells *)
  (match Service.handle svc (req ~scheme:(Some Timing.Auth_hmac_sha1) ~counter:1L Service.Ping) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "service cell not isolated: %a" Verdict.pp e)

let test_unauthenticated_service_is_dosable () =
  let device, svc = make ~scheme:None () in
  let before = Ra_mcu.Cpu.work_cycles (Device.cpu device) in
  (match Service.handle svc { Service.command = Service.Secure_erase; freshness = Message.F_counter 1L; tag = Message.Tag_none } with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected reject: %a" Verdict.pp e);
  let spent = Int64.sub (Ra_mcu.Cpu.work_cycles (Device.cpu device)) before in
  (* the expensive body ran on a completely unauthenticated request *)
  Alcotest.(check bool) "erase cost incurred" true (Int64.compare spent 2000L > 0)

(* flash_app ends where the NVRAM freshness cells begin: an image one
   byte too long faults at the region's end before anything is written,
   the service's freshness cell included, and is neither acknowledged nor
   counted as an invocation. *)
let test_oversized_update_faults () =
  let s = Session.create ~ram_size:4096 () in
  let device = Session.device s in
  let region = Memory.region_named (Device.memory device) Device.region_app in
  let base = region.Ra_mcu.Region.base and size = region.Ra_mcu.Region.size in
  let app () = Memory.read_bytes (Device.memory device) base size in
  let before = app () in
  let image = String.make (size + 1) '\xaa' in
  Alcotest.(check bool) "not acknowledged" false
    (Session.service_round s (Service.Code_update { image }));
  let stats = Service.stats (Session.service s) in
  Alcotest.(check int) "not invoked" 0 stats.Service.invocations;
  Alcotest.(check int) "counted as a fault" 1 (Service.rejected stats Verdict.Reason.Fault);
  Alcotest.(check bool) "app code unchanged" true (String.equal before (app ()));
  let _, svc = make () in
  (match
     Service.handle svc
       (req ~scheme:(Some Timing.Auth_hmac_sha1) ~counter:1L
          (Service.Code_update { image }))
   with
  | Error (Verdict.Fault { fault_addr; fault_code }) ->
    Alcotest.(check int) "faults at the region's end" (base + size) fault_addr;
    Alcotest.(check string) "in the anchor's context" Device.region_attest fault_code
  | Error v -> Alcotest.failf "expected Fault, got %s" (Verdict.label v)
  | Ok _ -> Alcotest.fail "oversized image acknowledged");
  match Service.handle svc (req ~scheme:(Some Timing.Auth_hmac_sha1) ~counter:1L Service.Ping) with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "the fault advanced the freshness cell: %s" (Verdict.label v)

let tests =
  [
    Alcotest.test_case "ping" `Quick test_ping;
    Alcotest.test_case "secure erase" `Quick test_secure_erase_wipes_ram;
    Alcotest.test_case "code update" `Quick test_code_update_installs;
    Alcotest.test_case "oversized code update faults" `Quick test_oversized_update_faults;
    Alcotest.test_case "bad auth rejected" `Quick test_bad_auth_rejected;
    Alcotest.test_case "replay rejected" `Quick test_replay_rejected;
    Alcotest.test_case "tag binds command" `Quick test_tag_binds_command;
    Alcotest.test_case "counter cells isolated" `Quick
      test_service_counter_independent_of_attestation;
    Alcotest.test_case "unauthenticated service DoSable" `Quick
      test_unauthenticated_service_is_dosable;
  ]
