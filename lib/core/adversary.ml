module Channel = Ra_net.Channel
module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Memory = Ra_mcu.Memory
module Clock = Ra_mcu.Clock
module Ea_mpu = Ra_mcu.Ea_mpu
module Interrupt = Ra_mcu.Interrupt

(* ---- Adv_ext ---- *)

let recorded_requests session =
  List.filter_map
    (fun sent ->
      match Message.wire_of_bytes sent.Channel.payload with
      | Some (Message.Request req) -> Some req
      | Some (Message.Response _ | Message.Sync_request _ | Message.Sync_response _
             | Message.Service_request _ | Message.Service_ack _
             | Message.Hs_init _ | Message.Hs_resp _ | Message.Hs_fin _
             | Message.Record _)
      | None ->
        None)
    (Channel.transcript (Session.channel session))

let forge_request session ?key_blob ~freshness () =
  let challenge = "bogus-challenge-" ^ String.make 4 '!' in
  let tag =
    match (key_blob, Verifier.scheme (Session.verifier session)) with
    | Some blob, Some scheme ->
      (* with stolen key material the adversary signs like a verifier *)
      let body = Message.request_body ~challenge ~freshness in
      Auth.tag_request scheme (Auth.Vs_symmetric (Auth.blob_sym_key blob)) ~body
    | Some _, None | None, (Some _ | None) -> Message.Tag_none
  in
  { Message.challenge; freshness; tag }

(* A request the adversary finds in its notebook is a replay, whoever
   built it; anything else is its own injection. *)
let inject session req =
  let origin =
    if List.mem req (recorded_requests session) then Channel.Replayed else Channel.Injected
  in
  Session.deliver_to_prover session ~origin req

let replay session req =
  (* verbatim bit-for-bit replay of the recorded frame *)
  Session.deliver_to_prover session ~origin:Channel.Replayed req

let intercept_next_request session =
  let channel = Session.channel session in
  let rec grab () =
    match
      List.find_opt
        (fun s -> s.Channel.src = Channel.Verifier_side)
        (Channel.undelivered channel)
    with
    | None -> None
    | Some sent ->
      if Channel.drop_next channel ~src:Channel.Verifier_side then
        match Message.wire_of_bytes sent.Channel.payload with
        | Some (Message.Request req) -> Some req
        | Some (Message.Response _ | Message.Sync_request _ | Message.Sync_response _
               | Message.Service_request _ | Message.Service_ack _
               | Message.Hs_init _ | Message.Hs_resp _ | Message.Hs_fin _
               | Message.Record _)
        | None ->
          grab ()
      else None
  in
  grab ()

let flood session ~count req =
  for _ = 1 to count do
    Session.deliver_to_prover session ~origin:Channel.Injected req
  done

(* ---- Adv_roam ---- *)

type tamper =
  | Try_key_read
  | Try_key_write of string
  | Try_counter_write of int64
  | Try_clock_set_back_ms of int64
  | Try_idt_tamper
  | Try_irq_disable
  | Try_mpu_reconfig

type tamper_result =
  | Tamper_succeeded of string
  | Blocked_by_mpu
  | Blocked_rom_immutable
  | Blocked_mpu_locked
  | Not_applicable of string

type compromise_report = {
  attempts : (tamper * tamper_result) list;
  malware_was_resident : bool;
  traces_erased : bool;
}

let tamper_result_ok = function
  | Tamper_succeeded _ -> true
  | Blocked_by_mpu | Blocked_rom_immutable | Blocked_mpu_locked | Not_applicable _ ->
    false

let as_untrusted device f =
  Cpu.with_context (Device.cpu device) Device.region_untrusted f

let catching f =
  try f () with
  | Cpu.Protection_fault _ -> Blocked_by_mpu
  | Memory.Bus_fault _ -> Blocked_rom_immutable
  | Ea_mpu.Locked -> Blocked_mpu_locked

let attempt device tamper =
  let cpu = Device.cpu device in
  match tamper with
  | Try_key_read ->
    catching (fun () ->
        let blob = Cpu.load_bytes cpu (Device.key_addr device) (Device.key_len device) in
        Tamper_succeeded (Ra_crypto.Hexutil.to_hex blob))
  | Try_key_write junk ->
    catching (fun () ->
        Cpu.store_bytes cpu (Device.key_addr device) junk;
        Tamper_succeeded "key overwritten")
  | Try_counter_write v ->
    catching (fun () ->
        Cpu.store_u64 cpu (Device.counter_addr device) v;
        Tamper_succeeded (Printf.sprintf "counter_R := %Ld" v))
  | Try_clock_set_back_ms delta_ms ->
    (match Device.clock device with
    | None -> Not_applicable "device has no clock"
    | Some clock ->
      (match Clock.msb_addr clock with
      | None -> Not_applicable "hardware counter register: no software write path"
      | Some msb_addr ->
        catching (fun () ->
            (* convert δ to Clock_MSB increments; the MSB granularity
               (one LSB wrap-around period) bounds the precision *)
            let lsb_bits = Option.value ~default:24 (Clock.lsb_width clock) in
            let per_msb_seconds =
              Clock.resolution_seconds clock *. (2.0 ** float_of_int lsb_bits)
            in
            let delta_msb =
              Int64.of_float
                (Float.max 1.0
                   (Int64.to_float delta_ms /. 1000.0 /. per_msb_seconds))
            in
            let msb = Cpu.load_u64 cpu msb_addr in
            let target =
              if Int64.compare msb delta_msb >= 0 then Int64.sub msb delta_msb else 0L
            in
            Cpu.store_u64 cpu msb_addr target;
            Tamper_succeeded (Printf.sprintf "Clock_MSB %Ld -> %Ld" msb target))))
  | Try_idt_tamper ->
    catching (fun () ->
        let interrupt = Device.interrupt device in
        Interrupt.set_vector interrupt ~vector:Device.timer_vector ~entry_addr:0xDEAD;
        Tamper_succeeded "timer vector redirected")
  | Try_irq_disable ->
    catching (fun () ->
        Interrupt.set_enabled (Device.interrupt device) false;
        Tamper_succeeded "interrupts disabled")
  | Try_mpu_reconfig ->
    catching (fun () ->
        Ea_mpu.clear (Device.mpu device);
        Tamper_succeeded "all EA-MPU rules cleared")

let malware_marker = "MALWARE-IMPLANT-v1"

let compromise session ~tampers =
  let device = Session.device session in
  let cpu = Device.cpu device in
  let base = Device.attested_base device in
  as_untrusted device (fun () ->
      (* infect: malware becomes resident in attested RAM *)
      let original = Cpu.load_bytes cpu base (String.length malware_marker) in
      Cpu.store_bytes cpu base malware_marker;
      let attempts = List.map (fun tamper -> (tamper, attempt device tamper)) tampers in
      (* cover tracks: restore the attested image bit-exact and leave *)
      Cpu.store_bytes cpu base original;
      let erased =
        Cpu.load_bytes cpu base (String.length malware_marker) = original
      in
      { attempts; malware_was_resident = true; traces_erased = erased })

let stolen_key_blob report =
  List.find_map
    (fun (tamper, result) ->
      match (tamper, result) with
      | Try_key_read, Tamper_succeeded hex -> Some (Ra_crypto.Hexutil.of_hex hex)
      | _, (Tamper_succeeded _ | Blocked_by_mpu | Blocked_rom_immutable
           | Blocked_mpu_locked | Not_applicable _) ->
        None)
    report.attempts

let pp_tamper fmt = function
  | Try_key_read -> Format.pp_print_string fmt "read K_attest"
  | Try_key_write _ -> Format.pp_print_string fmt "overwrite K_attest"
  | Try_counter_write v -> Format.fprintf fmt "set counter_R to %Ld" v
  | Try_clock_set_back_ms d -> Format.fprintf fmt "set clock back %Ld ms" d
  | Try_idt_tamper -> Format.pp_print_string fmt "redirect timer IDT entry"
  | Try_irq_disable -> Format.pp_print_string fmt "disable interrupts"
  | Try_mpu_reconfig -> Format.pp_print_string fmt "clear EA-MPU rules"

let pp_tamper_result fmt = function
  | Tamper_succeeded d -> Format.fprintf fmt "succeeded (%s)" d
  | Blocked_by_mpu -> Format.pp_print_string fmt "blocked by EA-MPU"
  | Blocked_rom_immutable -> Format.pp_print_string fmt "blocked (ROM immutable)"
  | Blocked_mpu_locked -> Format.pp_print_string fmt "blocked (EA-MPU locked)"
  | Not_applicable why -> Format.fprintf fmt "not applicable (%s)" why
