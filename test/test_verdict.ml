open Ra_core
module Json = Ra_obs.Json

(* ---- generators ------------------------------------------------------- *)

let gen_int64 = QCheck.Gen.(map Int64.of_int int)
let gen_pos_int64 = QCheck.Gen.(map (fun n -> Int64.of_int (abs n)) int)

let gen_freshness_reject =
  QCheck.Gen.(
    oneof
      [
        return Verdict.Missing_field;
        return Verdict.Wrong_field;
        return Verdict.Replayed_nonce;
        map2
          (fun got stored -> Verdict.Stale_counter { got; stored })
          gen_int64 gen_int64;
        map2
          (fun got last -> Verdict.Stale_or_reordered_timestamp { got; last })
          gen_int64 gen_int64;
        map3
          (fun got now window -> Verdict.Delayed_timestamp { got; now; window })
          gen_int64 gen_int64 gen_pos_int64;
        map3
          (fun got now window -> Verdict.Future_timestamp { got; now; window })
          gen_int64 gen_int64 gen_pos_int64;
      ])

let gen_verdict =
  QCheck.Gen.(
    oneof
      [
        return Verdict.Trusted;
        return Verdict.Untrusted_state;
        return Verdict.Invalid_response;
        return Verdict.Bad_auth;
        map (fun r -> Verdict.Not_fresh r) gen_freshness_reject;
        map2
          (fun fault_addr fault_code -> Verdict.Fault { fault_addr; fault_code })
          small_nat (string_size ~gen:printable (int_range 0 20));
        map2
          (fun attempts waited_s -> Verdict.Timed_out { attempts; waited_s })
          (int_range 1 64)
          (map (fun f -> Float.abs f) pfloat);
      ])

let arb_verdict =
  QCheck.make gen_verdict ~print:(Format.asprintf "%a" Verdict.pp)

(* ---- JSON round-trip -------------------------------------------------- *)

let prop_json_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"Verdict.of_json (to_json v) = Some v"
    arb_verdict
    (fun v -> Verdict.of_json (Verdict.to_json v) = Some v)

let prop_json_string_roundtrip =
  (* the full sink path: value -> Json -> string -> Json -> value, so the
     encoding survives the obs layer's actual serializer (int64s as
     decimal strings, floats at %.17g) *)
  QCheck.Test.make ~count:1000
    ~name:"Verdict survives Json.to_string/of_string" arb_verdict
    (fun v ->
      match Json.of_string (Json.to_string (Verdict.to_json v)) with
      | Ok j -> Verdict.of_json j = Some v
      | Error _ -> false)

let test_of_json_garbage () =
  let none j = Alcotest.(check bool) "rejected" true (Verdict.of_json j = None) in
  none Json.Null;
  none (Json.Str "trusted");
  none (Json.Obj [ ("verdict", Json.Str "no_such_verdict") ]);
  none (Json.Obj [ ("verdict", Json.Str "fault") ]);
  none
    (Json.Obj
       [
         ("verdict", Json.Str "not_fresh");
         ("reject", Json.Obj [ ("kind", Json.Str "stale_counter") ]);
       ]);
  none
    (Json.Obj
       [
         ("verdict", Json.Str "timed_out");
         ("attempts", Json.Str "three");
         ("waited_s", Json.Num 1.0);
       ])

(* ---- labels and acceptance ------------------------------------------- *)

let prop_accepted_iff_trusted =
  QCheck.Test.make ~count:500 ~name:"accepted <=> Trusted" arb_verdict
    (fun v -> Verdict.accepted v = (v = Verdict.Trusted))

let test_labels_stable () =
  let check v expect = Alcotest.(check string) expect expect (Verdict.label v) in
  check Verdict.Trusted "trusted";
  check Verdict.Untrusted_state "untrusted_state";
  check Verdict.Invalid_response "invalid_response";
  check Verdict.Bad_auth "bad_auth";
  check (Verdict.Not_fresh Verdict.Replayed_nonce) "not_fresh";
  check (Verdict.Fault { fault_addr = 0; fault_code = "x" }) "fault";
  check (Verdict.Timed_out { attempts = 1; waited_s = 0.5 }) "timed_out"

let test_freshness_alias () =
  (* Freshness.reject is an equation for Verdict.freshness_reject: the
     same value must flow through both modules' labels and printers *)
  let r = Freshness.Stale_counter { got = 3L; stored = 9L } in
  Alcotest.(check string) "label stable" "stale_counter"
    (Verdict.freshness_label r);
  Alcotest.(check string) "printers agree"
    (Format.asprintf "%a" Freshness.pp_reject r)
    (Format.asprintf "%a" Verdict.pp_freshness_reject r)

let counter ?(labels = []) name =
  Ra_obs.Registry.Counter.value (Ra_obs.Registry.Counter.get ~labels name)

let test_handler_conversions () =
  (* every handler builds its Verdict.t at the point of failure *)
  let session = Session.create ~ram_size:1024 () in
  Session.advance_time session ~seconds:1.0;
  let req = Session.send_request session in
  ignore (Session.deliver_next_to_prover session);
  ignore (Session.deliver_next_to_verifier session);
  (match Session.verdicts session with
  | (_, v) :: _ ->
    Alcotest.(check bool) "verifier conversion accepted" true (Verdict.accepted v)
  | [] -> Alcotest.fail "expected a verdict");
  (* replaying the same request must surface as Not_fresh *)
  (match Code_attest.handle_request (Session.anchor session) req with
  | Error (Verdict.Not_fresh _) -> ()
  | Error v -> Alcotest.failf "expected Not_fresh, got %s" (Verdict.label v)
  | Ok _ -> Alcotest.fail "replayed request accepted");
  (* a response whose echo does not match its request *)
  let invalid () =
    counter ~labels:[ ("verdict", "invalid_response") ] "ra_verifier_verdicts_total"
  in
  let before = invalid () in
  let mismatched =
    { Message.echo_challenge = "not the challenge"; echo_freshness = req.freshness;
      report = "" }
  in
  Alcotest.(check string) "echo mismatch" "invalid_response"
    (Verdict.label
       (Verifier.check_response (Session.verifier session) ~request:req mismatched));
  Alcotest.(check int) "invalid_response counted" 1 (invalid () - before);
  (* Fault: the unprotected spec never locks its EA-MPU, so a rule that
     lets only application code read K_attest can still be programmed —
     and the anchor's own key read then faults *)
  let s = Session.create ~spec:Architecture.unprotected ~ram_size:1024 () in
  let device = Session.device s in
  Ra_mcu.Ea_mpu.program (Ra_mcu.Device.mpu device)
    {
      Ra_mcu.Ea_mpu.rule_name = "key_app_only";
      data_base = Ra_mcu.Device.key_addr device;
      data_size = Ra_mcu.Device.key_len device;
      read_by = Ra_mcu.Ea_mpu.Code_in [ Ra_mcu.Device.region_app ];
      write_by = Ra_mcu.Ea_mpu.Nobody;
    };
  let attest_faults () =
    counter ~labels:[ ("result", "fault") ] "ra_attest_requests_total"
  in
  let service_faults () =
    counter ~labels:[ ("reason", "fault") ] "ra_service_rejections_total"
  in
  let attest_before = attest_faults () and service_before = service_faults () in
  let fault =
    let req = Verifier.make_request (Session.verifier s) in
    match Code_attest.handle_request (Session.anchor s) req with
    | Error (Verdict.Fault { fault_code; _ } as v) ->
      Alcotest.(check string) "anchor faults in its own context"
        Ra_mcu.Device.region_attest fault_code;
      v
    | Error v -> Alcotest.failf "expected Fault, got %s" (Verdict.label v)
    | Ok _ -> Alcotest.fail "anchor read a key only application code may read"
  in
  Alcotest.(check int) "anchor fault counted" 1 (attest_faults () - attest_before);
  let ping =
    Service.make_request ~sym_key:(Session.sym_key s) ~scheme:None
      ~freshness:(Message.F_counter 1L) Service.Ping
  in
  (match Service.handle (Session.service s) ping with
  | Error v ->
    Alcotest.(check bool) "service gives the same fault" true (v = fault)
  | Ok _ -> Alcotest.fail "service read a key only application code may read");
  Alcotest.(check int) "service fault counted" 1 (service_faults () - service_before);
  Alcotest.(check int) "service tally" 1
    (Service.rejected (Service.stats (Session.service s)) Verdict.Reason.Fault)

(* Every prover handler runs Code_attest's defence sequence, so a rule
   on an unlocked MPU that denies rom_attest a cell the handler needs --
   the K_attest read, or an NVRAM cell it writes on acceptance -- ends
   the request as [Fault] at that cell, never as an exception. *)
let test_denied_cell_is_fault () =
  let module Device = Ra_mcu.Device in
  let module Ea_mpu = Ra_mcu.Ea_mpu in
  let sym_key = "K_attest_0123456789." in
  let scheme = Some Ra_mcu.Timing.Auth_hmac_sha1 in
  let freshness = Message.F_counter 1L in
  let attreq =
    let challenge = String.make 16 'c' in
    {
      Message.challenge;
      freshness;
      tag =
        Auth.tag_request Ra_mcu.Timing.Auth_hmac_sha1 (Auth.Vs_symmetric sym_key)
          ~body:(Message.request_body ~challenge ~freshness);
    }
  in
  let ok_unit r = Result.map ignore r in
  let code_attest device =
    let a = Code_attest.install device ~scheme ~policy:Freshness.Counter () in
    ok_unit (Code_attest.handle_request a attreq)
  in
  let isa_anchor device =
    let a = Isa_anchor.install device ~scheme ~policy:Freshness.Counter in
    ok_unit (Isa_anchor.handle_request a attreq)
  in
  let service device =
    let svc = Service.install device ~scheme ~policy:Freshness.Counter in
    ok_unit
      (Service.handle svc (Service.make_request ~sym_key ~scheme ~freshness Service.Ping))
  in
  let clock_sync device =
    let sync = Clock_sync.install device in
    let time = Ra_net.Simtime.create ~start:10.0 () in
    ok_unit (Clock_sync.handle sync (Clock_sync.make_sync_request ~sym_key ~time ~counter:1L))
  in
  (* the key is denied to reads, an NVRAM cell (offset from counter_R)
     to writes *)
  let key = `Key and nvram off = `Nvram off in
  let table =
    [
      ("Code_attest", code_attest, [ key; nvram 0 ]);
      ("Isa_anchor", isa_anchor, [ key; nvram 0 ]);
      ("Service", service, [ key; nvram 24 ]);
      ("Clock_sync", clock_sync, [ key; nvram 8; nvram 16 ]);
    ]
  in
  List.iter
    (fun (name, handle, cells) ->
      List.iter
        (fun cell ->
          let device =
            Device.create ~ram_size:2048
              ~clock_impl:(Device.Clock_hw { width = 64; divider_log2 = 0 })
              ~rom_images:[ (Device.region_attest, Isa_anchor.rom_image ()) ]
              ~key:(Auth.prover_key_blob ~sym_key ~public:None)
              ()
          in
          let addr, rule =
            match cell with
            | `Key ->
              ( Device.key_addr device,
                {
                  Ea_mpu.rule_name = "deny_key";
                  data_base = Device.key_addr device;
                  data_size = Device.key_len device;
                  read_by = Ea_mpu.Nobody;
                  write_by = Ea_mpu.Nobody;
                } )
            | `Nvram off ->
              let addr = Device.counter_addr device + off in
              ( addr,
                {
                  Ea_mpu.rule_name = "deny_cell";
                  data_base = addr;
                  data_size = 8;
                  read_by = Ea_mpu.Anyone;
                  write_by = Ea_mpu.Nobody;
                } )
          in
          Ea_mpu.program (Device.mpu device) rule;
          let what = Printf.sprintf "%s, %s denied" name rule.Ea_mpu.rule_name in
          let cpu = Device.cpu device in
          let context = Ra_mcu.Cpu.context cpu in
          (match handle device with
          | Error (Verdict.Fault { fault_addr; fault_code }) ->
            Alcotest.(check int) (what ^ ": at the cell") addr fault_addr;
            Alcotest.(check string) (what ^ ": in the anchor") Device.region_attest
              fault_code
          | Error v -> Alcotest.failf "%s: expected Fault, got %a" what Verdict.pp v
          | Ok () -> Alcotest.failf "%s: accepted" what
          | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
          Alcotest.(check string) (what ^ ": context restored") context
            (Ra_mcu.Cpu.context cpu))
        cells)
    table

let tests =
  [
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
    Alcotest.test_case "of_json rejects garbage" `Quick test_of_json_garbage;
    QCheck_alcotest.to_alcotest prop_accepted_iff_trusted;
    Alcotest.test_case "labels stable" `Quick test_labels_stable;
    Alcotest.test_case "freshness alias" `Quick test_freshness_alias;
    Alcotest.test_case "handler conversions" `Quick test_handler_conversions;
    Alcotest.test_case "every handler faults on a denied cell" `Quick
      test_denied_cell_is_fault;
  ]
