type t = {
  component_name : string;
  mpu_rules : int;
  direct_registers : int;
  direct_luts : int;
}

let make component_name mpu_rules direct_registers direct_luts =
  { component_name; mpu_rules; direct_registers; direct_luts }

let siskiyou_peak = make "Siskiyou Peak" 0 5528 14361

let ea_mpu_base_registers = 278
let ea_mpu_base_luts = 417
let ea_mpu_registers_per_rule = 116
let ea_mpu_luts_per_rule = 182

let ea_mpu_registers ~rules = ea_mpu_base_registers + (ea_mpu_registers_per_rule * rules)
let ea_mpu_luts ~rules = ea_mpu_base_luts + (ea_mpu_luts_per_rule * rules)

let mpu_lockdown = make "EA-MPU lockdown" 1 0 0
let attest_key = make "Attest-Key" 1 0 0
let request_counter = make "Counter" 1 0 0
let clock_64bit = make "64 bit clock" 0 64 64
let clock_32bit = make "32 bit clock" 0 32 32
let sw_clock = make "SW-clock" 2 0 0

let clock_nbit ~width =
  if width <= 0 then invalid_arg "Component.clock_nbit: width must be positive";
  make (Printf.sprintf "%d bit clock" width) 0 width width
