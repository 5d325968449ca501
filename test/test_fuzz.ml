(* Protocol fuzzing: random Dolev-Yao adversary behaviours against a
   protected prover, with the paper's security goals as invariants.

   Invariants checked after arbitrary interleavings of sends, deliveries,
   replays, forgeries, interceptions and time jumps:

   I1  the prover never attests more often than the verifier asked
       (no amplification: replay/forge never buys the adversary work);
   I2  forged (unauthenticated or wrong-key) requests are never attested;
   I3  the freshness cell (counter / last timestamp) never decreases;
   I4  the trust anchor never crashes — every request terminates in an
       accept or a classified reject. *)

open Ra_core
module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu

type action =
  | Send_genuine
  | Deliver_oldest
  | Replay_recorded of int (* index into the transcript *)
  | Forge_and_inject
  | Intercept
  | Advance of int (* seconds, 1..60 *)
  | Garbage_frame of string (* raw bytes straight into the radio *)

let action_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Send_genuine);
        (3, return Deliver_oldest);
        (2, map (fun i -> Replay_recorded i) (int_range 0 20));
        (2, return Forge_and_inject);
        (1, return Intercept);
        (2, map (fun s -> Advance s) (int_range 1 60));
        (2, map (fun s -> Garbage_frame s) (string_size (int_range 0 80)));
      ])

let show_action = function
  | Send_genuine -> "send"
  | Deliver_oldest -> "deliver"
  | Replay_recorded i -> Printf.sprintf "replay[%d]" i
  | Forge_and_inject -> "forge"
  | Intercept -> "intercept"
  | Advance s -> Printf.sprintf "advance(%ds)" s
  | Garbage_frame s -> Printf.sprintf "garbage(%d bytes)" (String.length s)

let actions_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show_action l))
    QCheck.Gen.(list_size (int_range 1 40) action_gen)

let counter_spec =
  {
    (Architecture.with_policy Architecture.trustlite_base Freshness.Counter) with
    Architecture.spec_name = "fuzz-counter";
    clock_impl = Device.Clock_none;
  }

let timestamp_spec = Architecture.trustlite_base

let freshness_cell session =
  Cpu.with_context
    (Device.cpu (Session.device session))
    Device.region_attest
    (fun () ->
      Cpu.load_u64 (Device.cpu (Session.device session))
        (Device.counter_addr (Session.device session)))

let run_actions spec actions =
  let session = Session.create ~spec ~ram_size:2048 () in
  let sent = ref 0 in
  let ok = ref true in
  let note = ref "" in
  let fail msg = ok := false; note := msg in
  let apply action =
    let cell_before = freshness_cell session in
    let attested_before =
      (Code_attest.stats (Session.anchor session)).Code_attest.attestations_performed
    in
    (match action with
    | Send_genuine ->
      ignore (Session.send_request session);
      incr sent
    | Deliver_oldest -> ignore (Session.deliver_next_to_prover session)
    | Replay_recorded i ->
      (match Adversary.recorded_requests session with
      | [] -> ()
      | recorded -> Adversary.replay session (List.nth recorded (i mod List.length recorded)))
    | Forge_and_inject ->
      let forged =
        Adversary.forge_request session
          ~freshness:(Message.F_counter (Int64.add (freshness_cell session) 1L))
          ()
      in
      Adversary.inject session forged;
      (* I2: a forgery must never be attested *)
      let now =
        (Code_attest.stats (Session.anchor session)).Code_attest.attestations_performed
      in
      if now <> attested_before then fail "forged request was attested"
    | Intercept -> ignore (Adversary.intercept_next_request session)
    | Advance s -> Session.advance_time session ~seconds:(float_of_int s)
    | Garbage_frame frame ->
      Session.deliver_frame_to_prover session ~origin:Ra_net.Channel.Injected frame;
      (* I2 covers garbage too: raw bytes must never produce attestation *)
      let now =
        (Code_attest.stats (Session.anchor session)).Code_attest.attestations_performed
      in
      if now <> attested_before then fail "garbage frame was attested");
    (* I3: the freshness cell never decreases *)
    if Int64.unsigned_compare (freshness_cell session) cell_before < 0 then
      fail "freshness cell decreased"
  in
  (try List.iter apply actions
   with exn -> fail (Printf.sprintf "anchor crashed: %s" (Printexc.to_string exn)));
  (* I1: no amplification *)
  let attested =
    (Code_attest.stats (Session.anchor session)).Code_attest.attestations_performed
  in
  if attested > !sent then fail (Printf.sprintf "amplification: %d attested > %d sent" attested !sent);
  if not !ok then QCheck.Test.fail_report !note;
  true

let fuzz_counter =
  QCheck.Test.make ~name:"fuzz: invariants under random Adv_ext (counter policy)"
    ~count:120 actions_arb (run_actions counter_spec)

let fuzz_timestamp =
  QCheck.Test.make ~name:"fuzz: invariants under random Adv_ext (timestamp policy)"
    ~count:120 actions_arb (run_actions timestamp_spec)

(* the same fuzz against the unprotected prover must find amplification:
   this guards against the invariant checker being vacuous *)
let test_unprotected_is_amplifiable () =
  let session = Session.create ~spec:Architecture.unprotected ~ram_size:2048 () in
  let bogus = Adversary.forge_request session ~freshness:Message.F_none () in
  Adversary.flood session ~count:5 bogus;
  let attested =
    (Code_attest.stats (Session.anchor session)).Code_attest.attestations_performed
  in
  Alcotest.(check int) "unprotected prover amplifies" 5 attested

let tests =
  [
    QCheck_alcotest.to_alcotest fuzz_counter;
    QCheck_alcotest.to_alcotest fuzz_timestamp;
    Alcotest.test_case "checker is not vacuous" `Quick test_unprotected_is_amplifiable;
  ]
