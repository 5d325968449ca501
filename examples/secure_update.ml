(* Future-work items 2 and 3: clock resynchronization and generalizing
   the anti-DoS envelope to other services (secure code update and
   secure memory erasure — the services the paper's introduction names
   as built on attestation).

   Run with: dune exec examples/secure_update.exe *)

open Ra_core
module Device = Ra_mcu.Device
module Timing = Ra_mcu.Timing
module Simtime = Ra_net.Simtime

let sym_key = "fleet-master-key-01!" (* 20 bytes *)

let () =
  let blob = Auth.prover_key_blob ~sym_key ~public:None in
  let device =
    Device.create ~ram_size:8192
      ~clock_impl:(Device.Clock_hw { width = 64; divider_log2 = 0 })
      ~key:blob ()
  in
  let time = Simtime.create () in

  (* --- clock synchronization (future work 2) --- *)
  Printf.printf "== authenticated clock synchronization ==\n";
  let sync = Clock_sync.install device in
  Simtime.advance_to time 120.0 (* the device booted 2 minutes late *);
  Printf.printf "before sync: prover wall-time %Ld ms, verifier %.0f ms\n"
    (Clock_sync.now_ms sync)
    (Simtime.now time *. 1000.0);
  let sync_req = Clock_sync.make_sync_request ~sym_key ~time ~counter:1L in
  (match Clock_sync.handle sync sync_req with
  | Ok ack ->
    Printf.printf "sync accepted, ack valid: %b\n"
      (Clock_sync.check_sync_ack ~sym_key ~counter:1L ack)
  | Error e -> Format.printf "sync rejected: %a@." Verdict.pp e);
  Printf.printf "after sync:  prover wall-time %Ld ms (offset %Ld ms)\n"
    (Clock_sync.now_ms sync) (Clock_sync.offset_ms sync);
  (* replaying the recorded sync later must fail *)
  Simtime.advance_by time 60.0;
  (match Clock_sync.handle sync sync_req with
  | Error (Verdict.Not_fresh (Verdict.Stale_counter _)) ->
    Printf.printf "replayed sync request: rejected (stale counter) -- no rollback vector\n"
  | Ok _ -> Printf.printf "BUG: replayed sync accepted\n"
  | Error e -> Format.printf "replayed sync rejected: %a@." Verdict.pp e);

  (* --- generalized services (future work 3) --- *)
  Printf.printf "\n== authenticated secure services ==\n";
  let svc =
    Service.install device ~scheme:(Some Timing.Auth_hmac_sha1) ~policy:Freshness.Counter
  in
  let send counter command =
    let req =
      Service.make_request ~sym_key ~scheme:(Some Timing.Auth_hmac_sha1)
        ~freshness:(Message.F_counter counter) command
    in
    match Service.handle svc req with
    | Ok (Message.Service_ack { acked_command; _ }) ->
      Printf.printf "%-14s -> ok\n" acked_command
    | Ok wire -> Format.printf "BUG: %s answered with %a@." (Service.command_name command)
                   Message.pp_wire wire
    | Error e -> Format.printf "%-14s -> rejected: %a@." (Service.command_name command)
                   Verdict.pp e
  in
  send 1L Service.Ping;
  send 2L (Service.Code_update { image = "firmware v2: safer valve control loop" });
  send 3L Service.Secure_erase;

  (* a forged erase (wrong key) and a replayed update must both bounce *)
  Printf.printf "\n== attacks on the service layer ==\n";
  let forged =
    Service.make_request ~sym_key:(String.make 20 'x')
      ~scheme:(Some Timing.Auth_hmac_sha1) ~freshness:(Message.F_counter 4L)
      Service.Secure_erase
  in
  (match Service.handle svc forged with
  | Error Verdict.Bad_auth -> Printf.printf "forged erase    -> rejected (bad MAC)\n"
  | Ok _ -> Printf.printf "BUG: forged erase accepted\n"
  | Error e -> Format.printf "forged erase    -> %a@." Verdict.pp e);
  let replayed =
    Service.make_request ~sym_key ~scheme:(Some Timing.Auth_hmac_sha1)
      ~freshness:(Message.F_counter 2L)
      (Service.Code_update { image = "firmware v2: safer valve control loop" })
  in
  (match Service.handle svc replayed with
  | Error (Verdict.Not_fresh _) ->
    Printf.printf "replayed update -> rejected (stale counter)\n"
  | Ok _ -> Printf.printf "BUG: replayed update accepted\n"
  | Error e -> Format.printf "replayed update -> %a@." Verdict.pp e);

  let stats = Service.stats svc in
  Printf.printf
    "\nservice stats: %d executed, %d rejected (%d bad auth, %d not fresh, %d fault)\n"
    stats.Service.invocations (Service.rejections stats)
    (Service.rejected stats Verdict.Reason.Bad_auth)
    (Service.rejected stats Verdict.Reason.Not_fresh)
    (Service.rejected stats Verdict.Reason.Fault);

  (* --- the same services, over the full protocol channel --- *)
  Printf.printf "\n== services over the Dolev-Yao channel (Session integration) ==\n";
  let session = Session.create ~ram_size:4096 () in
  Printf.printf "ping over the wire: acknowledged = %b\n"
    (Session.service_round session Service.Ping);
  Printf.printf "code update over the wire: acknowledged = %b\n"
    (Session.service_round session
       (Service.Code_update { image = "firmware v3 via radio" }));
  (* and clock sync over the same wire (future work 2) *)
  Session.advance_time session ~seconds:45.0;
  Printf.printf "clock sync over the wire: acknowledged = %b (prover wall %Ld ms)\n"
    (Session.sync_round session)
    (Session.prover_wall_ms session)
