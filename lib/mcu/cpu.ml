type fault = {
  fault_code : string;
  fault_addr : int;
  fault_mode : Ea_mpu.mode;
}

exception Protection_fault of fault

type advance = Work | Idle

type t = {
  memory : Memory.t;
  mpu : Ea_mpu.t;
  clock_hz : int;
  mutable cycles : int64;
  mutable work_cycles : int64;
  mutable context : string;
  mutable faults : fault list;
  mutable listeners : (t -> int64 -> advance -> unit) list;
}

let create memory mpu ~clock_hz =
  if clock_hz <= 0 then invalid_arg "Cpu.create: clock_hz must be positive";
  {
    memory;
    mpu;
    clock_hz;
    cycles = 0L;
    work_cycles = 0L;
    context = "untrusted";
    faults = [];
    listeners = [];
  }

let memory t = t.memory
let mpu t = t.mpu
let clock_hz t = t.clock_hz
let cycles t = t.cycles
let work_cycles t = t.work_cycles

let on_advance t f = t.listeners <- f :: t.listeners

let advance t n kind =
  if Int64.compare n 0L < 0 then invalid_arg "Cpu: negative cycle advance";
  t.cycles <- Int64.add t.cycles n;
  (match kind with Work -> t.work_cycles <- Int64.add t.work_cycles n | Idle -> ());
  List.iter (fun f -> f t n kind) t.listeners

let consume_cycles t n = advance t n Work
let idle_cycles t n = advance t n Idle

let idle_seconds t s =
  if s < 0.0 then invalid_arg "Cpu.idle_seconds: negative";
  idle_cycles t (Int64.of_float (s *. float_of_int t.clock_hz))

let elapsed_seconds t = Int64.to_float t.cycles /. float_of_int t.clock_hz

let context t = t.context

let with_context t ctx f =
  let prev = t.context in
  t.context <- ctx;
  Fun.protect ~finally:(fun () -> t.context <- prev) f

let faults t = t.faults

let deny t addr mode =
  let fault = { fault_code = t.context; fault_addr = addr; fault_mode = mode } in
  t.faults <- fault :: t.faults;
  Ra_obs.Registry.Counter.inc
    (Ra_obs.Registry.Counter.get
       ~labels:[ ("context", t.context) ]
       "ra_mpu_violations_total");
  raise (Protection_fault fault)

let guard t addr len mode =
  if not (Ea_mpu.check_range t.mpu ~code:t.context ~addr ~len mode) then deny t addr mode

let load_byte t addr =
  guard t addr 1 Ea_mpu.Read;
  Memory.read_byte t.memory addr

let store_byte t addr v =
  guard t addr 1 Ea_mpu.Write;
  Memory.write_byte t.memory addr v

let load_bytes t addr len =
  if len = 0 then ""
  else begin
    guard t addr len Ea_mpu.Read;
    Memory.read_bytes t.memory addr len
  end

let load_into t addr buf ~pos ~len =
  if len <> 0 then begin
    guard t addr len Ea_mpu.Read;
    Memory.read_into t.memory addr buf ~pos ~len
  end

let store_bytes t addr s =
  if String.length s > 0 then begin
    guard t addr (String.length s) Ea_mpu.Write;
    Memory.write_bytes t.memory addr s
  end

let load_u32 t addr =
  guard t addr 4 Ea_mpu.Read;
  Memory.read_u32 t.memory addr

let store_u32 t addr v =
  guard t addr 4 Ea_mpu.Write;
  Memory.write_u32 t.memory addr v

let load_u64 t addr =
  guard t addr 8 Ea_mpu.Read;
  Memory.read_u64 t.memory addr

let store_u64 t addr v =
  guard t addr 8 Ea_mpu.Write;
  Memory.write_u64 t.memory addr v
