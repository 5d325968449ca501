type stats = {
  delivered : int;
  lost_no_handler : int;
  suppressed_disabled : int;
}

type registered = { code_region : string; handler : unit -> unit }

(* One atomic add per IRQ; handles created at module init. *)
module M = struct
  let outcome o = Ra_obs.Registry.Counter.get ~labels:[ ("outcome", o) ] "ra_interrupts_total"
  let delivered = outcome "delivered"
  let lost_no_handler = outcome "lost_no_handler"
  let suppressed_disabled = outcome "suppressed_disabled"
end

type t = {
  cpu : Cpu.t;
  idt_base : int;
  vectors : int;
  ctrl_addr : int;
  registry : (int, registered) Hashtbl.t;
  mutable stats : stats;
}

let create cpu ~idt_base ~vectors ~ctrl_addr =
  if vectors <= 0 then invalid_arg "Interrupt.create: vectors must be positive";
  {
    cpu;
    idt_base;
    vectors;
    ctrl_addr;
    registry = Hashtbl.create 8;
    stats = { delivered = 0; lost_no_handler = 0; suppressed_disabled = 0 };
  }

let idt_size t = 4 * t.vectors

let register_handler t ~entry_addr ~code_region ~handler =
  Hashtbl.replace t.registry entry_addr { code_region; handler }

let check_vector t vector =
  if vector < 0 || vector >= t.vectors then invalid_arg "Interrupt: bad vector"

let set_vector_raw t ~vector ~entry_addr =
  check_vector t vector;
  Memory.write_u32 (Cpu.memory t.cpu) (t.idt_base + (4 * vector)) entry_addr

let set_vector t ~vector ~entry_addr =
  check_vector t vector;
  Cpu.store_u32 t.cpu (t.idt_base + (4 * vector)) entry_addr

let vector_entry t ~vector =
  check_vector t vector;
  Memory.read_u32 (Cpu.memory t.cpu) (t.idt_base + (4 * vector))

let enable_all_raw t = Memory.write_byte (Cpu.memory t.cpu) t.ctrl_addr 1
let set_enabled t on = Cpu.store_byte t.cpu t.ctrl_addr (if on then 1 else 0)
let enabled t = Memory.read_byte (Cpu.memory t.cpu) t.ctrl_addr land 1 = 1

let raise_irq t ~vector =
  check_vector t vector;
  if not (enabled t) then begin
    t.stats <- { t.stats with suppressed_disabled = t.stats.suppressed_disabled + 1 };
    Ra_obs.Registry.Counter.inc M.suppressed_disabled
  end
  else begin
    let entry = vector_entry t ~vector in
    match Hashtbl.find_opt t.registry entry with
    | None ->
      t.stats <- { t.stats with lost_no_handler = t.stats.lost_no_handler + 1 };
      Ra_obs.Registry.Counter.inc M.lost_no_handler
    | Some { code_region; handler } ->
      t.stats <- { t.stats with delivered = t.stats.delivered + 1 };
      Ra_obs.Registry.Counter.inc M.delivered;
      Cpu.with_context t.cpu code_region handler
  end

let stats t = t.stats
