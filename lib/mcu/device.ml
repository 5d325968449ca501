type clock_impl =
  | Clock_none
  | Clock_hw of { width : int; divider_log2 : int }
  | Clock_sw of { lsb_width : int; divider_log2 : int }

type key_location = Key_in_rom | Key_in_flash

let region_boot = "rom_boot"
let region_attest = "rom_attest"
let region_clock = "rom_clock"
let region_app = "flash_app"
let region_untrusted = "untrusted"

let timer_vector = 1
let code_clock_entry = 0x003000

(* Fixed memory map; sizes chosen so the attested RAM matches the paper's
   512 KB Siskiyou Peak figure by default. *)
let base_rom_boot = 0x000000
let base_rom_attest = 0x001000
let base_rom_clock = 0x003000
let base_rom_key = 0x004000
let base_flash_app = 0x010000
let base_nvram = 0x020000
let base_ram = 0x100000
let base_idt = 0x800000
let base_irq_ctrl = 0x800100
let base_clock_msb = 0x800200
let base_actuator = 0x800300
let base_anchor_scratch = 0x800400

type genesis = {
  g_ram_size : int;
  g_clock_impl : clock_impl;
  g_key_location : key_location;
  g_key : string;
  g_attest_app_flash : bool;
}

type t = {
  memory : Memory.t;
  cpu : Cpu.t;
  mpu : Ea_mpu.t;
  interrupt : Interrupt.t;
  energy : Energy.t;
  clock : Clock.t option;
  clock_impl : clock_impl;
  key_addr : int;
  key_len : int;
  ram_size : int;
  attest_app_flash : bool;
  genesis : genesis;
}

(* The memory map by RAM size, one per domain: region records are
   immutable, so the devices of a fleet share one list of them. *)
let memory_map =
  Ra_crypto.Memo.per_domain ~capacity:1 ~equal:Int.equal (fun ram_size ->
      let open Region in
      [
        make ~name:region_boot ~base:base_rom_boot ~size:4096 ~kind:Rom;
        make ~name:region_attest ~base:base_rom_attest ~size:8192 ~kind:Rom;
        make ~name:region_clock ~base:base_rom_clock ~size:1024 ~kind:Rom;
        make ~name:"rom_key" ~base:base_rom_key ~size:64 ~kind:Rom;
        make ~name:region_app ~base:base_flash_app ~size:65536 ~kind:Flash;
        make ~name:"nvram" ~base:base_nvram ~size:256 ~kind:Flash;
        make ~name:"ram" ~base:base_ram ~size:ram_size ~kind:Ram;
        make ~name:"idt" ~base:base_idt ~size:256 ~kind:Ram;
        make ~name:"irq_ctrl" ~base:base_irq_ctrl ~size:16 ~kind:Mmio;
        make ~name:"clock_msb" ~base:base_clock_msb ~size:8 ~kind:Ram;
        make ~name:"actuator" ~base:base_actuator ~size:16 ~kind:Mmio;
        make ~name:"anchor_scratch" ~base:base_anchor_scratch ~size:512 ~kind:Ram;
      ])

let rec create ?(ram_size = 512 * 1024) ?(clock_impl = Clock_none)
    ?(key_location = Key_in_rom) ?energy ?(rom_images = []) ?(attest_app_flash = false)
    ~key () =
  if String.length key = 0 || String.length key > 64 then
    invalid_arg "Device.create: key must be 1..64 bytes";
  let memory = Memory.create (memory_map ram_size) in
  let mpu = Ea_mpu.create ~capacity:8 in
  let cpu = Cpu.create memory mpu ~clock_hz:Timing.siskiyou_hz in
  let interrupt =
    Interrupt.create cpu ~idt_base:base_idt ~vectors:64 ~ctrl_addr:base_irq_ctrl
  in
  let energy =
    match energy with Some e -> e | None -> Energy.create ()
  in
  Cpu.on_advance cpu (fun _ n kind ->
      match kind with
      | Cpu.Work -> Energy.consume_cycles energy n
      | Cpu.Idle ->
        Energy.consume_sleep energy
          ~seconds:(Int64.to_float n /. float_of_int Timing.siskiyou_hz));
  (* provision the key, then seal ROM *)
  let key_addr, key_len =
    match key_location with
    | Key_in_rom -> (base_rom_key, String.length key)
    | Key_in_flash -> (base_nvram + 0x80, String.length key)
  in
  Memory.write_bytes memory key_addr key;
  List.iter
    (fun (region_name, code) ->
      let r = Memory.region_named memory region_name in
      if String.length code > r.Region.size then
        invalid_arg
          (Printf.sprintf "Device.create: image for %s exceeds region" region_name);
      Memory.write_bytes memory r.Region.base code)
    rom_images;
  Memory.seal_rom memory;
  let clock =
    match clock_impl with
    | Clock_none -> None
    | Clock_hw { width; divider_log2 } ->
      Some (Clock.create_hw_counter cpu ~width ~divider_log2)
    | Clock_sw { lsb_width; divider_log2 } ->
      Some
        (Clock.create_sw_clock cpu interrupt ~lsb_width ~divider_log2
           ~msb_addr:base_clock_msb ~timer_vector ~handler_entry:code_clock_entry
           ~handler_region:region_clock)
  in
  {
    memory;
    cpu;
    mpu;
    interrupt;
    energy;
    clock;
    clock_impl;
    key_addr;
    key_len;
    ram_size;
    attest_app_flash;
    genesis =
      {
        g_ram_size = ram_size;
        g_clock_impl = clock_impl;
        g_key_location = key_location;
        g_key = key;
        g_attest_app_flash = attest_app_flash;
      };
  }

(* Reboot: non-volatile regions (ROM + flash) carry over byte-exact; the
   battery object is shared (charge does not reset); everything else is
   rebuilt from the genesis configuration. *)
and power_cycle t =
  let g = t.genesis in
  let fresh =
    create ~ram_size:g.g_ram_size ~clock_impl:g.g_clock_impl
      ~key_location:g.g_key_location ~energy:t.energy
      ~attest_app_flash:g.g_attest_app_flash ~key:g.g_key ()
  in
  (* the fresh ROM is sealed, so copy non-volatile contents via a
     transiently unsealed memory image: rebuild region by region *)
  List.iter
    (fun r ->
      match r.Region.kind with
      | Region.Rom | Region.Flash ->
        let contents = Memory.read_bytes t.memory r.Region.base r.Region.size in
        Memory.copy_raw (memory_of fresh) ~base:r.Region.base contents
      | Region.Ram | Region.Mmio -> ())
    (Memory.regions t.memory);
  fresh

and memory_of t = t.memory

let memory t = t.memory
let cpu t = t.cpu
let mpu t = t.mpu
let interrupt t = t.interrupt
let energy t = t.energy
let clock t = t.clock
let clock_impl t = t.clock_impl
let key_addr t = t.key_addr
let key_len t = t.key_len
let counter_addr _ = base_nvram
let clock_msb_addr _ = base_clock_msb
let idt_size t = Interrupt.idt_size t.interrupt
let attested_base _ = base_ram
let attested_len t = t.ram_size

let attested_ranges t =
  (base_ram, t.ram_size)
  :: (if t.attest_app_flash then [ (base_flash_app, 65536) ] else [])

let attested_total_len t =
  List.fold_left (fun acc (_, len) -> acc + len) 0 (attested_ranges t)

let rule_protect_key t =
  {
    Ea_mpu.rule_name = "K_attest";
    data_base = t.key_addr;
    data_size = t.key_len;
    read_by = Ea_mpu.Code_in [ region_attest ];
    write_by = Ea_mpu.Nobody;
  }

let rule_protect_counter _ =
  {
    Ea_mpu.rule_name = "counter_R";
    data_base = base_nvram;
    data_size = 8;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Code_in [ region_attest ];
  }

let rule_protect_clock_msb _ =
  {
    Ea_mpu.rule_name = "Clock_MSB";
    data_base = base_clock_msb;
    data_size = 8;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Code_in [ region_clock ];
  }

let rule_protect_idt t =
  {
    Ea_mpu.rule_name = "IDT";
    data_base = base_idt;
    data_size = idt_size t;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Nobody;
  }

let actuator_addr _ = base_actuator
let anchor_scratch_addr _ = base_anchor_scratch

let rule_protect_actuator _ =
  {
    Ea_mpu.rule_name = "actuator";
    data_base = base_actuator;
    data_size = 16;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Code_in [ region_app ];
  }

let rule_protect_irq_ctrl _ =
  {
    Ea_mpu.rule_name = "IRQ_ctrl";
    data_base = base_irq_ctrl;
    data_size = 16;
    read_by = Ea_mpu.Anyone;
    write_by = Ea_mpu.Nobody;
  }

(* RAM images by (seed, size), one per domain: the members of a fleet
   fill their RAM from the same seed, and [Memory.share] then swaps the
   pool's pages in for the ones this write gives each member. *)
let ram_image =
  Ra_crypto.Memo.per_domain ~capacity:1 ~equal:( = ) (fun (seed, size) ->
      Ra_crypto.Prng.bytes (Ra_crypto.Prng.create seed) size)

let pristine_ram t ~seed = ram_image (seed, t.ram_size)
let fill_ram_deterministic t ~seed = Memory.write_bytes t.memory base_ram (pristine_ram t ~seed)

let idle t ~seconds = Cpu.idle_seconds t.cpu seconds

let observe_gauges ?registry ?(labels = []) t =
  let set name v =
    Ra_obs.Registry.Gauge.set (Ra_obs.Registry.Gauge.get ?registry ~labels name) v
  in
  set "ra_device_cycles" (Int64.to_float (Cpu.cycles t.cpu));
  set "ra_device_work_cycles" (Int64.to_float (Cpu.work_cycles t.cpu));
  set "ra_device_energy_consumed_joules" (Energy.consumed_joules t.energy);
  set "ra_device_energy_remaining_joules" (Energy.remaining_joules t.energy);
  set "ra_device_faults" (float_of_int (List.length (Cpu.faults t.cpu)))
