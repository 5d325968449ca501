module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Timing = Ra_mcu.Timing
module Ea_mpu = Ra_mcu.Ea_mpu
module C = Ra_crypto

type command =
  | Secure_erase
  | Code_update of { image : string }
  | Ping

type request = {
  command : command;
  freshness : Message.freshness_field;
  tag : Message.auth_tag;
}

type stats = { invocations : int; breakdown : (Verdict.reason * int) list }

let rejections s = List.fold_left (fun acc (_, n) -> acc + n) 0 s.breakdown

let rejected s reason =
  match List.assoc_opt reason s.breakdown with Some n -> n | None -> 0

type t = {
  device : Device.t;
  scheme : Timing.auth_scheme option;
  freshness : Freshness.state;
  spans : Ra_obs.Span.t;
  mutable invocations : int;
  tally : Verdict.Tally.t; (* rejection counts, shared reason vocabulary *)
}

(* one atomic add per outcome; handles created at module init *)
module M = struct
  let invocations = Ra_obs.Registry.Counter.get "ra_service_invocations_total"

  let rejections reason =
    Ra_obs.Registry.Counter.get
      ~labels:[ ("reason", Verdict.Reason.label reason) ]
      "ra_service_rejections_total"

  let bad_auth = rejections Verdict.Reason.Bad_auth
  let not_fresh = rejections Verdict.Reason.Not_fresh
  let fault = rejections Verdict.Reason.Fault

  (* the service rejects with Bad_auth, Not_fresh or Fault only *)
  let rejected = function
    | Verdict.Bad_auth -> bad_auth
    | Verdict.Not_fresh _ -> not_fresh
    | _ -> fault
end

(* the service's own freshness cell in NVRAM, disjoint from attestation's
   counter (+0) and clock-sync's cells (+8, +16) *)
let service_cell_offset = 24

let rule_protect_service_state device =
  {
    Ea_mpu.rule_name = "service_state";
    data_base = Device.counter_addr device + service_cell_offset;
    data_size = 8;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Code_in [ Device.region_attest ];
  }

let install device ~scheme ~policy =
  let cpu = Device.cpu device in
  {
    device;
    scheme;
    freshness =
      Freshness.init ~cell_addr:(Device.counter_addr device + service_cell_offset)
        device policy;
    spans = Ra_obs.Span.create ~clock:(fun () -> Cpu.elapsed_seconds cpu) ();
    invocations = 0;
    tally = Verdict.Tally.create ();
  }

let stats t =
  { invocations = t.invocations; breakdown = Verdict.Tally.to_list t.tally }
let spans t = t.spans

let command_name = function
  | Secure_erase -> "secure-erase"
  | Code_update _ -> "code-update"
  | Ping -> "ping"

let request_body command freshness =
  let payload =
    match command with
    | Secure_erase -> "ERASE"
    | Code_update { image } -> "UPDATE" ^ image
    | Ping -> "PING"
  in
  "SVC" ^ command_name command ^ "|" ^ payload ^ Message.freshness_bytes freshness

let make_request ~sym_key ~scheme ~freshness command =
  let tag =
    match scheme with
    | None -> Message.Tag_none
    | Some scheme ->
      Auth.tag_request scheme (Auth.Vs_symmetric sym_key)
        ~body:(request_body command freshness)
  in
  { command; freshness; tag }

(* What a command's acknowledgement reports once its body has run; the
   verifier expects exactly this for the command it sent. *)
let result_of = function
  | Ping -> "pong"
  | Secure_erase -> "erased"
  | Code_update { image } -> "updated to " ^ C.Hexutil.to_hex (C.Sha256.digest image)

(* What the acknowledgement's HMAC covers: the command, the request's
   freshness field and the result, so an ack answers one request only *)
let ack_parts command freshness =
  [
    "ACK";
    command_name command;
    "|";
    Message.freshness_bytes freshness;
    result_of command;
  ]

let check_ack ~sym_key req wire =
  match wire with
  | Message.Service_ack { acked_command; ack_report } ->
    String.equal acked_command (command_name req.command)
    && C.Hmac.verify_with (Auth.keyed sym_key)
         ~msg:(String.concat "" (ack_parts req.command req.freshness))
         ~tag:ack_report
  | Message.Request _ | Message.Response _ | Message.Sync_request _
  | Message.Sync_response _ | Message.Service_request _ | Message.Hs_init _
  | Message.Hs_resp _ | Message.Hs_fin _ | Message.Record _ ->
    false

let cpu t = Device.cpu t.device
let app_region t = Ra_mcu.Memory.region_named (Device.memory t.device) Device.region_app

(* Modeled costs of the service bodies: a RAM write per erased byte and a
   flash word program (slow: 20 cycles/word here) per 4 image bytes. *)
let erase_cycles len = Int64.of_int (2 * len)
let update_cycles len = Int64.of_int (20 * ((len + 3) / 4))

(* An image longer than the app region would run into the NVRAM cells
   behind it: the request faults at the region's end before any write,
   its freshness cell included. *)
let fits t = function
  | Code_update { image } ->
    let region = app_region t in
    if String.length image <= region.Ra_mcu.Region.size then Ok ()
    else
      Error
        (Verdict.Fault
           {
             fault_addr = region.Ra_mcu.Region.base + region.Ra_mcu.Region.size;
             fault_code = Device.region_attest;
           })
  | Secure_erase | Ping -> Ok ()

let execute t command =
  match command with
  | Ping -> ()
  | Secure_erase ->
    let base = Device.attested_base t.device in
    let len = Device.attested_len t.device in
    Cpu.consume_cycles (cpu t) (erase_cycles len);
    let chunk = 4096 in
    let zeros = String.make chunk '\x00' in
    let rec wipe off =
      if off < len then begin
        let n = min chunk (len - off) in
        Cpu.store_bytes (cpu t) (base + off) (String.sub zeros 0 n);
        wipe (off + n)
      end
    in
    wipe 0
  | Code_update { image } ->
    Cpu.consume_cycles (cpu t) (update_cycles (String.length image));
    Cpu.store_bytes (cpu t) (app_region t).Ra_mcu.Region.base image

let handle t req =
  let ( let* ) = Result.bind in
  let run () =
    Cpu.consume_cycles (cpu t) 200L;
    let* () =
      match t.scheme with
      | None -> Ok ()
      | Some _ ->
        Ra_obs.Span.with_span t.spans "service.auth" (fun () ->
            Code_attest.authenticate t.device ~precomputed_key_schedule:false t.scheme
              ~body:(request_body req.command req.freshness)
              req.tag)
    in
    let* () = fits t req.command in
    let* () =
      Ra_obs.Span.with_span t.spans "service.freshness" (fun () ->
          Freshness.check_and_update t.freshness req.freshness)
      |> Result.map_error (fun e -> Verdict.Not_fresh e)
    in
    Ra_obs.Span.with_span t.spans
      ~labels:[ ("command", command_name req.command) ]
      "service.execute"
      (fun () -> execute t req.command);
    let key = Auth.blob_sym_key (Code_attest.key_blob t.device) in
    Ok
      (Message.Service_ack
         {
           acked_command = command_name req.command;
           ack_report =
             C.Hmac.mac_parts (Auth.keyed key) (ack_parts req.command req.freshness);
         })
  in
  let result = Code_attest.protected t.device run in
  (match result with
  | Ok _ ->
    Ra_obs.Registry.Counter.inc M.invocations;
    t.invocations <- t.invocations + 1
  | Error v ->
    Ra_obs.Registry.Counter.inc (M.rejected v);
    Option.iter (Verdict.Tally.add t.tally) (Verdict.reason_of v));
  result

let command_payload = function
  | Secure_erase -> ""
  | Code_update { image } -> image
  | Ping -> ""

let request_to_wire req =
  Message.Service_request
    {
      command_name = command_name req.command;
      payload = command_payload req.command;
      service_freshness = req.freshness;
      service_tag = req.tag;
    }

let request_of_wire = function
  | Message.Service_request { command_name; payload; service_freshness; service_tag }
    ->
    let command =
      match command_name with
      | "secure-erase" -> Some Secure_erase
      | "code-update" -> Some (Code_update { image = payload })
      | "ping" -> Some Ping
      | _ -> None
    in
    Option.map
      (fun command -> { command; freshness = service_freshness; tag = service_tag })
      command
  | Message.Request _ | Message.Response _ | Message.Sync_request _
  | Message.Sync_response _ | Message.Service_ack _ | Message.Hs_init _
  | Message.Hs_resp _ | Message.Hs_fin _ | Message.Record _ ->
    None
