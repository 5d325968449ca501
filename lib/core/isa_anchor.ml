module Device = Ra_mcu.Device
module Cpu = Ra_mcu.Cpu
module Memory = Ra_mcu.Memory
module Timing = Ra_mcu.Timing
module Sha1_asm = Ra_isa.Sha1_asm

(* the routine is position-assembled for the canonical device map *)
let rom_origin = 0x001000

let scratch_addr device = Device.anchor_scratch_addr device

let rom_image () = Sha1_asm.code_bytes ~origin:rom_origin ~scratch_addr:0x800400

type t = {
  device : Device.t;
  sha : Sha1_asm.t;
  scheme : Timing.auth_scheme option;
  freshness : Freshness.state;
  mutable mac_cycles : int64;
}

let install device ~scheme ~policy =
  if scratch_addr device <> 0x800400 then
    invalid_arg "Isa_anchor.install: unexpected anchor-scratch location";
  let image = rom_image () in
  let present =
    Memory.read_bytes (Device.memory device) rom_origin (String.length image)
  in
  if not (String.equal image present) then
    invalid_arg
      "Isa_anchor.install: rom_attest does not hold the SHA-1 routine (pass \
       rom_images at Device.create)";
  let sha = Sha1_asm.attach ~origin:rom_origin ~scratch_addr:(scratch_addr device) in
  { device; sha; scheme; freshness = Freshness.init device policy; mac_cycles = 0L }

let cpu t = Device.cpu t.device

let last_mac_cycles t = t.mac_cycles
let sha t = t.sha

(* An EA-MPU denial names its address and executing region; any other
   trap is charged to the routine itself. *)
let fault_of_trap = function
  | Ra_isa.Core.Trap_protection { Cpu.fault_addr; fault_code; _ } ->
    Verdict.Fault { fault_addr; fault_code }
  | Ra_isa.Core.Trap_entry { target; region; _ } ->
    Verdict.Fault { fault_addr = target; fault_code = region }
  | Ra_isa.Core.Trap_bus _ | Ra_isa.Core.Trap_illegal _ ->
    Verdict.Fault { fault_addr = rom_origin; fault_code = Device.region_attest }

let attest t (req : Message.attreq) =
  let resp =
    { Message.echo_challenge = req.challenge; echo_freshness = req.freshness; report = "" }
  in
  let body = Message.response_body resp in
  let key = Auth.blob_sym_key (Code_attest.key_blob t.device) in
  let segments =
    Sha1_asm.Bytes body
    :: List.map (fun (base, len) -> Sha1_asm.Range (base, len)) (Device.attested_ranges t.device)
  in
  let before = Cpu.cycles (cpu t) in
  match Sha1_asm.hmac_segments t.sha (cpu t) ~key segments with
  | Ok report ->
    t.mac_cycles <- Int64.sub (Cpu.cycles (cpu t)) before;
    Ok { resp with Message.report }
  | Error trap ->
    (* the routine stopped mid-measurement with the key's pads staged in
       its scratch: clear it before untrusted code runs again *)
    Memory.write_bytes (Device.memory t.device) (scratch_addr t.device)
      (String.make Sha1_asm.scratch_bytes '\x00');
    Error (fault_of_trap trap)

let handle_request t (req : Message.attreq) =
  Code_attest.protected t.device (fun () ->
      match
        Code_attest.authenticate t.device ~precomputed_key_schedule:false t.scheme
          ~body:(Message.request_body ~challenge:req.challenge ~freshness:req.freshness)
          req.tag
      with
      | Error e -> Error e
      | Ok () ->
        (match Freshness.check_and_update t.freshness req.freshness with
        | Error e -> Error (Verdict.Not_fresh e)
        | Ok () -> attest t req))
