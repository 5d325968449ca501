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

let tests =
  [
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
    Alcotest.test_case "of_json rejects garbage" `Quick test_of_json_garbage;
    QCheck_alcotest.to_alcotest prop_accepted_iff_trusted;
    Alcotest.test_case "labels stable" `Quick test_labels_stable;
    Alcotest.test_case "freshness alias" `Quick test_freshness_alias;
    Alcotest.test_case "handler conversions" `Quick test_handler_conversions;
  ]
