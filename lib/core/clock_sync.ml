module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Clock = Ra_mcu.Clock
module Ea_mpu = Ra_mcu.Ea_mpu
module C = Ra_crypto

type reject =
  | Sync_bad_auth
  | Sync_stale_counter of { got : int64; stored : int64 }
  | Sync_no_clock

type t = { device : Device.t }

(* NVRAM byte offsets of the sync counter and clock-offset cells *)
let sync_counter_offset = 8
let offset_offset = 16

let u64_be v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (7 - i))) 0xFFL)))

let sync_body ~verifier_time_ms ~sync_counter =
  "SYNC" ^ u64_be verifier_time_ms ^ u64_be sync_counter

let ack_body ~acked_counter = "SYNCACK" ^ u64_be acked_counter

let rule_protect_sync_state device =
  {
    Ea_mpu.rule_name = "sync_state";
    data_base = Device.counter_addr device + sync_counter_offset;
    data_size = 16;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Code_in [ Device.region_attest ];
  }

module M = struct
  let result r =
    Ra_obs.Registry.Counter.get ~labels:[ ("result", r) ] "ra_clock_sync_requests_total"

  let ok = result "ok"
  let bad_auth = result "bad_auth"
  let stale_counter = result "stale_counter"
  let no_clock = result "no_clock"
end

let install device = { device }

let cpu t = Device.cpu t.device
let sync_counter_addr t = Device.counter_addr t.device + sync_counter_offset
let offset_addr t = Device.counter_addr t.device + offset_offset

let raw_clock_ms t =
  match Device.clock t.device with
  | None -> None
  | Some clock -> Some (Int64.of_float (Clock.seconds clock *. 1000.0))

(* The offset is stored as a biased unsigned value so the cell is a plain
   u64: stored = offset + 2^62. *)
let bias = Int64.shift_left 1L 62

let load_offset t =
  Cpu.with_context (cpu t) Device.region_attest (fun () ->
      let raw = Cpu.load_u64 (cpu t) (offset_addr t) in
      if Int64.equal raw 0L then 0L (* never synchronized *)
      else Int64.sub raw bias)

let offset_ms = load_offset

let now_ms t =
  match raw_clock_ms t with
  | None -> 0L
  | Some clock_ms -> Int64.add clock_ms (load_offset t)

let key t =
  Auth.blob_sym_key
    (Cpu.load_bytes (cpu t) (Device.key_addr t.device) (Device.key_len t.device))

let handle_raw t wire =
  match wire with
  | Message.Sync_request { verifier_time_ms; sync_counter; sync_tag } ->
    Cpu.with_context (cpu t) Device.region_attest (fun () ->
        match raw_clock_ms t with
        | None -> Error Sync_no_clock
        | Some clock_ms ->
          Cpu.consume_cycles (cpu t)
            (Ra_mcu.Timing.request_auth_cycles Ra_mcu.Timing.Auth_hmac_sha1);
          let body = sync_body ~verifier_time_ms ~sync_counter in
          let kc = Auth.keyed (key t) in
          if not (C.Hmac.verify_with kc ~msg:body ~tag:sync_tag) then
            Error Sync_bad_auth
          else begin
            let stored = Cpu.load_u64 (cpu t) (sync_counter_addr t) in
            if Int64.unsigned_compare sync_counter stored <= 0 then
              Error (Sync_stale_counter { got = sync_counter; stored })
            else begin
              Cpu.store_u64 (cpu t) (sync_counter_addr t) sync_counter;
              let offset = Int64.sub verifier_time_ms clock_ms in
              Cpu.store_u64 (cpu t) (offset_addr t) (Int64.add offset bias);
              let ack_tag =
                C.Hmac.mac_with kc (ack_body ~acked_counter:sync_counter)
              in
              Ok (Message.Sync_response { acked_counter = sync_counter; ack_tag })
            end
          end)
  | Message.Request _ | Message.Response _ | Message.Sync_response _
  | Message.Service_request _ | Message.Service_ack _ | Message.Hs_init _
  | Message.Hs_resp _ | Message.Hs_fin _ | Message.Record _ ->
    Error Sync_bad_auth

let handle t wire =
  let result = handle_raw t wire in
  Ra_obs.Registry.Counter.inc
    (match result with
    | Ok _ -> M.ok
    | Error Sync_bad_auth -> M.bad_auth
    | Error (Sync_stale_counter _) -> M.stale_counter
    | Error Sync_no_clock -> M.no_clock);
  result

let make_sync_request ~sym_key ~time ~counter =
  let verifier_time_ms = Int64.of_float (Ra_net.Simtime.now time *. 1000.0) in
  let sync_tag =
    C.Hmac.mac C.Hmac.sha1 ~key:sym_key
      (sync_body ~verifier_time_ms ~sync_counter:counter)
  in
  Message.Sync_request { verifier_time_ms; sync_counter = counter; sync_tag }

let check_sync_ack ~sym_key ~counter wire =
  match wire with
  | Message.Sync_response { acked_counter; ack_tag } ->
    Int64.equal acked_counter counter
    && C.Hmac.verify C.Hmac.sha1 ~key:sym_key
         ~msg:(ack_body ~acked_counter:counter)
         ~tag:ack_tag
  | Message.Request _ | Message.Response _ | Message.Sync_request _
  | Message.Service_request _ | Message.Service_ack _ | Message.Hs_init _
  | Message.Hs_resp _ | Message.Hs_fin _ | Message.Record _ ->
    false

let pp_reject fmt = function
  | Sync_bad_auth -> Format.pp_print_string fmt "sync authentication failed"
  | Sync_stale_counter { got; stored } ->
    Format.fprintf fmt "stale sync counter (got %Ld, stored %Ld)" got stored
  | Sync_no_clock -> Format.pp_print_string fmt "prover has no clock"
