module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Clock = Ra_mcu.Clock
module Timing = Ra_mcu.Timing

type feature = F_nonces | F_counter | F_timestamps
type attack = A_replay | A_reorder | A_delay

let attack_name = function
  | A_replay -> "replay"
  | A_reorder -> "reorder"
  | A_delay -> "delay"

let window_ms = Architecture.default_window_ms
let window_s = Int64.to_float window_ms /. 1000.0

let policy_of_feature = function
  | F_nonces -> Freshness.Nonce_history { max_entries = None }
  | F_counter -> Freshness.Counter
  | F_timestamps -> Freshness.Timestamp { window_ms }

let session_for feature =
  let spec =
    Architecture.with_policy Architecture.trustlite_base (policy_of_feature feature)
  in
  (* a modest RAM keeps the experiments quick; the security outcome does
     not depend on the attested size *)
  Session.create ~spec ~ram_size:4096 ()

let attestations session =
  (Code_attest.stats (Session.anchor session)).Code_attest.attestations_performed

(* Run one attack scenario; [true] = the malicious delivery did NOT
   trigger an attestation (feature mitigated the attack). *)
let table2_cell feature attack =
  let session = session_for feature in
  match attack with
  | A_replay ->
    (* benign round, then replay the recorded genuine request *)
    Session.advance_time session ~seconds:1.0;
    let _ = Session.attest_round session in
    let baseline = attestations session in
    (match Adversary.recorded_requests session with
    | [ req ] ->
      Session.advance_time session ~seconds:1.0;
      Adversary.replay session req;
      attestations session = baseline
    | requests ->
      invalid_arg
        (Printf.sprintf "table2_cell: expected one recorded request, got %d"
           (List.length requests)))
  | A_reorder ->
    (* two genuine requests delivered in swapped order; mitigated iff the
       older one is rejected after the newer one was processed *)
    Session.advance_time session ~seconds:1.0;
    let req1 = Session.send_request session in
    Session.advance_time session ~seconds:1.0;
    let req2 = Session.send_request session in
    Session.deliver_to_prover session ~origin:Ra_net.Channel.Replayed req2;
    let after_first = attestations session in
    Session.deliver_to_prover session ~origin:Ra_net.Channel.Replayed req1;
    after_first = 1 && attestations session = after_first
  | A_delay ->
    (* a genuine request held back well beyond the freshness window *)
    Session.advance_time session ~seconds:1.0;
    let req = Session.send_request session in
    Session.advance_time session ~seconds:(6.0 *. window_s);
    Session.deliver_to_prover session ~origin:Ra_net.Channel.Replayed req;
    attestations session = 0

let features = [ F_nonces; F_counter; F_timestamps ]
let attacks = [ A_replay; A_reorder; A_delay ]

let table2 () =
  List.map
    (fun attack ->
      (attack, List.map (fun feature -> (feature, table2_cell feature attack)) features))
    attacks

let expected_table2 =
  [
    (A_replay, [ (F_nonces, true); (F_counter, true); (F_timestamps, true) ]);
    (A_reorder, [ (F_nonces, false); (F_counter, true); (F_timestamps, true) ]);
    (A_delay, [ (F_nonces, false); (F_counter, false); (F_timestamps, true) ]);
  ]

(* ---- roaming adversary ---- *)

type roam_outcome = {
  scenario : string;
  defended : bool;
  dos_blocked : bool;
  evidence_left : bool;
  details : string;
}

let prover_clock_seconds session =
  match Device.clock (Session.device session) with
  | None -> 0.0
  | Some clock ->
    Cpu.with_context
      (Device.cpu (Session.device session))
      Device.region_attest
      (fun () -> Clock.seconds clock)

let clock_behind session =
  match Device.clock (Session.device session) with
  | None -> false
  | Some _ ->
    let real = Ra_net.Simtime.now (Session.time session) in
    (* more than two seconds of skew counts as forensic evidence *)
    real -. prover_clock_seconds session > 2.0

let mpu_faults session = List.length (Cpu.faults (Device.cpu (Session.device session)))

let counter_spec ~defended =
  {
    (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
    Architecture.spec_name =
      (if defended then "counter/protected" else "counter/unprotected");
    clock_impl = Device.Clock_none;
    protect_counter = defended;
  }

let roam_counter_rollback ~defended =
  let session = Session.create ~spec:(counter_spec ~defended) ~ram_size:4096 () in
  Session.advance_time session ~seconds:1.0;
  let _ = Session.attest_round session in
  let baseline = attestations session in
  let report =
    Adversary.compromise session
      ~tampers:[ Adversary.Try_counter_write 0L ]
  in
  Session.advance_time session ~seconds:3600.0 (* wait arbitrarily long *);
  (match Adversary.recorded_requests session with
  | req :: _ -> Adversary.replay session req
  | [] -> invalid_arg "roam_counter_rollback: no recorded request");
  let dos_blocked = attestations session = baseline in
  let stored =
    Cpu.with_context
      (Device.cpu (Session.device session))
      Device.region_attest
      (fun () ->
        Cpu.load_u64 (Device.cpu (Session.device session))
          (Device.counter_addr (Session.device session)))
  in
  (* after a successful attack the counter is back at the expected value:
     nothing to see; a blocked attack leaves MPU faults in the log *)
  let evidence_left = mpu_faults session > 0 in
  {
    scenario = "counter rollback + replay (§5)";
    defended;
    dos_blocked;
    evidence_left;
    details =
      Printf.sprintf "counter_R=%Ld after phase III; tamper %s" stored
        (if Adversary.tamper_result_ok (snd (List.nth report.Adversary.attempts 0))
         then "succeeded"
         else "blocked");
  }

let sw_clock_spec ~protect_clock ~protect_idt ~name =
  {
    Architecture.trustlite_sw_clock with
    Architecture.spec_name = name;
    protect_clock_msb = protect_clock;
    protect_idt;
    protect_irq_ctrl = protect_idt;
  }

(* Shared shape of the two delay-style roaming attacks: a genuine request
   is withheld in Phase I, the prover's notion of time is sabotaged in
   Phase II, and the stale request is delivered after δ in Phase III. *)
let roam_delayed_delivery ~scenario ~spec ~tampers ~delta_s =
  let session = Session.create ~spec ~ram_size:4096 () in
  (* establish last-accepted-timestamp state with a benign round *)
  Session.advance_time session ~seconds:5.0;
  let _ = Session.attest_round session in
  let baseline = attestations session in
  (* phase I: eavesdrop and withhold a genuine request *)
  Session.advance_time session ~seconds:delta_s;
  let _ = Session.send_request session in
  let withheld =
    match Adversary.intercept_next_request session with
    | Some req -> req
    | None -> invalid_arg "roam_delayed_delivery: nothing to intercept"
  in
  (* phase II *)
  let _report = Adversary.compromise session ~tampers in
  (* phase III: wait δ, then deliver the stale request *)
  Session.advance_time session ~seconds:delta_s;
  Adversary.replay session withheld;
  let dos_blocked = attestations session = baseline in
  let behind = clock_behind session in
  {
    scenario;
    defended = spec.Architecture.protect_clock_msb && spec.Architecture.protect_idt;
    dos_blocked;
    evidence_left = behind || mpu_faults session > 0;
    details =
      Printf.sprintf "prover clock %.1fs vs real %.1fs" (prover_clock_seconds session)
        (Ra_net.Simtime.now (Session.time session));
  }

let delta_s = 30.0

let roam_clock_rollback ~defended =
  roam_delayed_delivery ~scenario:"clock rollback + delayed delivery (§5)"
    ~spec:
      (sw_clock_spec ~protect_clock:defended ~protect_idt:defended
         ~name:(if defended then "sw-clock/protected" else "sw-clock/unprotected"))
    ~tampers:[ Adversary.Try_clock_set_back_ms (Int64.of_float (delta_s *. 1000.0)) ]
    ~delta_s

let roam_idt_freeze ~defended =
  roam_delayed_delivery ~scenario:"IDT tamper freezes SW-clock (§6.2)"
    ~spec:
      (sw_clock_spec ~protect_clock:true ~protect_idt:defended
         ~name:(if defended then "idt/protected" else "idt/unprotected"))
    ~tampers:[ Adversary.Try_idt_tamper ]
    ~delta_s

let roam_clock_rollback_hw () =
  let spec =
    {
      (Architecture.with_name Architecture.trustlite_base "hw-clock-64bit") with
      Architecture.protect_counter = true;
    }
  in
  let outcome =
    roam_delayed_delivery ~scenario:"clock rollback vs 64-bit counter register (§6.3)"
      ~spec
      ~tampers:[ Adversary.Try_clock_set_back_ms (Int64.of_float (delta_s *. 1000.0)) ]
      ~delta_s
  in
  { outcome with defended = true }

let roam_key_extraction ~defended =
  let spec =
    {
      (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
      Architecture.spec_name =
        (if defended then "key/protected" else "key/unprotected");
      clock_impl = Device.Clock_none;
      protect_key = defended;
      protect_counter = true;
    }
  in
  let session = Session.create ~spec ~ram_size:4096 () in
  Session.advance_time session ~seconds:1.0;
  let _ = Session.attest_round session in
  let baseline = attestations session in
  let report = Adversary.compromise session ~tampers:[ Adversary.Try_key_read ] in
  Session.advance_time session ~seconds:1.0;
  (* with the stolen blob, forge a perfectly fresh, authenticated request *)
  let next = Verifier.next_counter_value (Session.verifier session) in
  let forged =
    Adversary.forge_request session
      ?key_blob:(Adversary.stolen_key_blob report)
      ~freshness:(Message.F_counter next) ()
  in
  Adversary.inject session forged;
  let dos_blocked = attestations session = baseline in
  {
    scenario = "K_attest extraction + forged requests (§5)";
    defended;
    dos_blocked;
    evidence_left = mpu_faults session > 0;
    details =
      (match Adversary.stolen_key_blob report with
      | Some _ -> "key material exfiltrated"
      | None -> "key read blocked by EA-MPU");
  }

let roam_mpu_lockdown ~defended =
  let spec =
    {
      (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
      Architecture.spec_name =
        (if defended then "lockdown/enabled" else "lockdown/missing");
      clock_impl = Device.Clock_none;
      protect_counter = true;
      lock_mpu = defended;
    }
  in
  let session = Session.create ~spec ~ram_size:4096 () in
  Session.advance_time session ~seconds:1.0;
  let _ = Session.attest_round session in
  let report =
    Adversary.compromise session
      ~tampers:[ Adversary.Try_mpu_reconfig; Adversary.Try_key_read ]
  in
  let key_stolen = Option.is_some (Adversary.stolen_key_blob report) in
  {
    scenario = "EA-MPU lockdown by secure boot (§6.2)";
    defended;
    dos_blocked = not key_stolen;
    evidence_left = mpu_faults session > 0;
    details =
      (if key_stolen then "rules cleared, key exfiltrated"
       else "reconfiguration rejected: table locked");
  }

let roaming_matrix () =
  [
    roam_counter_rollback ~defended:false;
    roam_counter_rollback ~defended:true;
    roam_clock_rollback ~defended:false;
    roam_clock_rollback ~defended:true;
    roam_clock_rollback_hw ();
    roam_idt_freeze ~defended:false;
    roam_idt_freeze ~defended:true;
    roam_key_extraction ~defended:false;
    roam_key_extraction ~defended:true;
    roam_mpu_lockdown ~defended:false;
    roam_mpu_lockdown ~defended:true;
  ]

let pp_roam_outcome fmt o =
  Format.fprintf fmt "%-45s %-11s dos=%-7s evidence=%-5b %s" o.scenario
    (if o.defended then "[defended]" else "[exposed]")
    (if o.dos_blocked then "blocked" else "SUCCESS")
    o.evidence_left o.details
