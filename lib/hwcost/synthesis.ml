type totals = { rule_slots : int; registers : int; luts : int }

let synthesize components =
  let rules =
    List.fold_left (fun acc c -> acc + c.Component.mpu_rules) 0 components
  in
  let direct_reg =
    List.fold_left (fun acc c -> acc + c.Component.direct_registers) 0 components
  in
  let direct_lut =
    List.fold_left (fun acc c -> acc + c.Component.direct_luts) 0 components
  in
  {
    rule_slots = rules;
    registers =
      Component.siskiyou_peak.Component.direct_registers
      + Component.ea_mpu_registers ~rules + direct_reg;
    luts =
      Component.siskiyou_peak.Component.direct_luts
      + Component.ea_mpu_luts ~rules + direct_lut;
  }

(* the attestation-capable system with no prover-side DoS protection (§6.3) *)
let baseline_components = [ Component.mpu_lockdown; Component.attest_key ]
let baseline = synthesize baseline_components

type overhead = {
  upgrade_name : string;
  added_rules : int;
  added_registers : int;
  added_luts : int;
  register_pct : float;
  lut_pct : float;
}

let overhead ~name components =
  let upgraded = synthesize (baseline_components @ components) in
  let added_registers = upgraded.registers - baseline.registers in
  let added_luts = upgraded.luts - baseline.luts in
  {
    upgrade_name = name;
    added_rules = upgraded.rule_slots - baseline.rule_slots;
    added_registers;
    added_luts;
    register_pct = 100.0 *. float_of_int added_registers /. float_of_int baseline.registers;
    lut_pct = 100.0 *. float_of_int added_luts /. float_of_int baseline.luts;
  }

let upgrade_64bit_clock =
  overhead ~name:"counter + 64 bit clock"
    [ Component.request_counter; Component.clock_64bit ]

let upgrade_32bit_clock =
  overhead ~name:"counter + 32 bit clock (divided)"
    [ Component.request_counter; Component.clock_32bit ]

let upgrade_sw_clock =
  overhead ~name:"counter + SW-clock" [ Component.request_counter; Component.sw_clock ]

let pp_totals fmt t =
  Format.fprintf fmt "%d rules, %d registers, %d LUTs" t.rule_slots t.registers t.luts

let pp_overhead fmt o =
  Format.fprintf fmt "%s: +%d rules, +%d reg (%.2f%%), +%d LUT (%.2f%%)" o.upgrade_name
    o.added_rules o.added_registers o.register_pct o.added_luts o.lut_pct
