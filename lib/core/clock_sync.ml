module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Clock = Ra_mcu.Clock
module Ea_mpu = Ra_mcu.Ea_mpu
module C = Ra_crypto

type t = {
  device : Device.t;
  clock : Clock.t;
  counter : Freshness.state; (* Counter policy on the sync-counter cell *)
}

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

  (* a fault is a broken configuration: its series appears only once one
     happens *)
  let of_result = function
    | Ok _ -> ok
    | Error Verdict.Bad_auth -> bad_auth
    | Error (Verdict.Not_fresh _) -> stale_counter
    | Error _ -> result "fault"
end

let install device =
  match Device.clock device with
  | None -> invalid_arg "Clock_sync.install: the device has no clock"
  | Some clock ->
    {
      device;
      clock;
      counter =
        Freshness.init ~cell_addr:(Device.counter_addr device + sync_counter_offset)
          device Freshness.Counter;
    }

let cpu t = Device.cpu t.device
let offset_addr t = Device.counter_addr t.device + offset_offset
let clock_ms t = Int64.of_float (Clock.seconds t.clock *. 1000.0)

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
  let clock_ms = clock_ms t in
  Int64.add clock_ms (load_offset t)

let handle_sync t ~verifier_time_ms ~sync_counter ~sync_tag =
  Code_attest.protected t.device (fun () ->
      let clock_ms = clock_ms t in
      match
        Code_attest.authenticate t.device ~precomputed_key_schedule:false
          (Some Ra_mcu.Timing.Auth_hmac_sha1)
          ~body:(sync_body ~verifier_time_ms ~sync_counter)
          (Message.Tag_hmac_sha1 sync_tag)
      with
      | Error e -> Error e
      | Ok () ->
        (match Freshness.check_and_update t.counter (Message.F_counter sync_counter) with
        | Error e -> Error (Verdict.Not_fresh e)
        | Ok () ->
          let offset = Int64.sub verifier_time_ms clock_ms in
          Cpu.store_u64 (cpu t) (offset_addr t) (Int64.add offset bias);
          let kc = Auth.keyed (Auth.blob_sym_key (Code_attest.key_blob t.device)) in
          let ack_tag = C.Hmac.mac_with kc (ack_body ~acked_counter:sync_counter) in
          Ok (Message.Sync_response { acked_counter = sync_counter; ack_tag })))

let handle t wire =
  let result =
    match wire with
    | Message.Sync_request { verifier_time_ms; sync_counter; sync_tag } ->
      handle_sync t ~verifier_time_ms ~sync_counter ~sync_tag
    | Message.Request _ | Message.Response _ | Message.Sync_response _
    | Message.Service_request _ | Message.Service_ack _ | Message.Hs_init _
    | Message.Hs_resp _ | Message.Hs_fin _ | Message.Record _ ->
      Error Verdict.Bad_auth
  in
  Ra_obs.Registry.Counter.inc (M.of_result result);
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
