module Cpu = Ra_mcu.Cpu
module Memory = Ra_mcu.Memory
module Region = Ra_mcu.Region

type trap =
  | Trap_protection of Cpu.fault
  | Trap_bus of string
  | Trap_illegal of string
  | Trap_entry of { source : int; target : int; region : string }

type state = Running | Halted | Trapped of trap

let mask32 = 0xFFFFFFFF

type hook = {
  h_period : int;
  h_sample : pc:int -> cycles:int -> unit;
  h_call : target:int -> unit;
  h_ret : unit -> unit;
  h_irq_enter : entry:int -> unit;
  h_irq_exit : unit -> unit;
}

type t = {
  cpu : Cpu.t;
  regs : int array;
  mutable pc : int;
  mutable sp : int;
  mutable z : bool;
  mutable c : bool;
  mutable n : bool;
  entries : (string, int list) Hashtbl.t;
  mutable hook : hook option;
  mutable scredit : int; (* cycles accumulated toward the next sample *)
}

let create cpu ~pc ~sp =
  { cpu; regs = Array.make 16 0; pc; sp; z = false; c = false; n = false;
    entries = Hashtbl.create 4; hook = None; scredit = 0 }

let set_hook t hook = t.hook <- hook
let hook t = t.hook
let sample_credit t = t.scredit
let set_sample_credit t credit = t.scredit <- credit

let pc t = t.pc
let sp t = t.sp

let reg t i =
  if i < 0 || i > 15 then invalid_arg "Core.reg";
  t.regs.(i)

let set_reg t i v =
  if i < 0 || i > 15 then invalid_arg "Core.set_reg";
  t.regs.(i) <- v land mask32

let zero_flag t = t.z
let carry_flag t = t.c
let negative_flag t = t.n

let force_pc t pc = t.pc <- pc
let force_sp t sp = t.sp <- sp

let allow_entries t ~region addrs = Hashtbl.replace t.entries region addrs

let region_of t addr = Memory.region_of_addr (Cpu.memory t.cpu) addr

(* instruction fetch is a hardware bus read, not an MPU-mediated data
   access; word index i addresses bytes 2i, 2i+1 *)
let fetch_word t i =
  let m = Cpu.memory t.cpu in
  Memory.read_byte m (2 * i) lor (Memory.read_byte m ((2 * i) + 1) lsl 8)

let set_flags_logical t result =
  t.z <- result land mask32 = 0;
  t.n <- result land 0x80000000 <> 0

(* Control transfer with §6.2 entry-point enforcement: entering a
   registered region from outside it must hit a declared entry point. *)
let transfer t ~target =
  match region_of t target with
  | None -> Trapped (Trap_bus (Printf.sprintf "jump to unmapped 0x%06x" target))
  | Some dest ->
    let crossing =
      match region_of t t.pc with
      | Some src -> src.Region.name <> dest.Region.name
      | None -> true
    in
    (match Hashtbl.find_opt t.entries dest.Region.name with
    | Some allowed when crossing && not (List.mem target allowed) ->
      Trapped (Trap_entry { source = t.pc; target; region = dest.Region.name })
    | Some _ | None ->
      t.pc <- target;
      Running)

let operand_value t = function
  | Insn.Reg r -> t.regs.(r)
  | Insn.Imm v -> v land mask32

let condition_met t = function
  | Insn.Always -> true
  | Insn.If_zero -> t.z
  | Insn.If_not_zero -> not t.z
  | Insn.If_carry -> t.c
  | Insn.If_not_carry -> not t.c
  | Insn.If_negative -> t.n

let cycles_of insn =
  let base = Insn.size_words insn in
  match insn with
  | Insn.Load _ | Insn.Store _ | Insn.Loadb _ | Insn.Storeb _ -> base + 2
  | Insn.Push _ | Insn.Pop _ -> base + 2
  | Insn.Call _ | Insn.Ret -> base + 2
  | Insn.Nop | Insn.Halt | Insn.Mov _ | Insn.Add _ | Insn.Sub _ | Insn.Cmp _
  | Insn.And _ | Insn.Or _ | Insn.Xor _ | Insn.Shl _ | Insn.Shr _ | Insn.Rol _
  | Insn.Jump _ ->
    base

let step t =
  if t.pc land 1 <> 0 then
    Trapped (Trap_illegal (Printf.sprintf "misaligned PC 0x%06x" t.pc))
  else
    match region_of t t.pc with
    | None -> Trapped (Trap_bus (Printf.sprintf "execute from unmapped 0x%06x" t.pc))
    | Some region ->
      (* all effects of this instruction are attributed to the region the
         PC is in — this is the execution-aware part of EA-MAC *)
      Cpu.with_context t.cpu region.Region.name (fun () ->
          match
            let insn, words = Insn.decode ~fetch:(fetch_word t) ~at:(t.pc / 2) in
            let cyc = cycles_of insn in
            Cpu.consume_cycles t.cpu (Int64.of_int cyc);
            (* out-of-band observation: one option match when off; when on,
               the core counts cycle credit itself so the sampler closure
               only fires once per crossed period, not per instruction *)
            (match t.hook with
            | None -> ()
            | Some h ->
              let credit = t.scredit + cyc in
              if credit >= h.h_period then begin
                t.scredit <- 0;
                h.h_sample ~pc:t.pc ~cycles:credit
              end
              else t.scredit <- credit);
            let next = t.pc + (2 * words) in
            (match insn with
            | Insn.Nop ->
              t.pc <- next;
              Running
            | Insn.Halt -> Halted
            | Insn.Mov (d, s) ->
              t.regs.(d) <- operand_value t s;
              t.pc <- next;
              Running
            | Insn.Add (d, s) ->
              let sum = t.regs.(d) + operand_value t s in
              t.c <- sum > mask32;
              t.regs.(d) <- sum land mask32;
              set_flags_logical t t.regs.(d);
              t.pc <- next;
              Running
            | Insn.Sub (d, s) ->
              let a = t.regs.(d) and b = operand_value t s in
              t.c <- a >= b (* MSP430-style: carry = no borrow *);
              t.regs.(d) <- (a - b) land mask32;
              set_flags_logical t t.regs.(d);
              t.pc <- next;
              Running
            | Insn.Cmp (d, s) ->
              let a = t.regs.(d) and b = operand_value t s in
              t.c <- a >= b;
              set_flags_logical t ((a - b) land mask32);
              t.pc <- next;
              Running
            | Insn.And (d, s) ->
              t.regs.(d) <- t.regs.(d) land operand_value t s;
              set_flags_logical t t.regs.(d);
              t.pc <- next;
              Running
            | Insn.Or (d, s) ->
              t.regs.(d) <- t.regs.(d) lor operand_value t s;
              set_flags_logical t t.regs.(d);
              t.pc <- next;
              Running
            | Insn.Xor (d, s) ->
              t.regs.(d) <- t.regs.(d) lxor operand_value t s;
              set_flags_logical t t.regs.(d);
              t.pc <- next;
              Running
            | Insn.Shl (d, s) ->
              let n = operand_value t s land 31 in
              t.regs.(d) <- (t.regs.(d) lsl n) land mask32;
              set_flags_logical t t.regs.(d);
              t.pc <- next;
              Running
            | Insn.Shr (d, s) ->
              let n = operand_value t s land 31 in
              t.regs.(d) <- t.regs.(d) lsr n;
              set_flags_logical t t.regs.(d);
              t.pc <- next;
              Running
            | Insn.Rol (d, s) ->
              let n = operand_value t s land 31 in
              let v = t.regs.(d) in
              t.regs.(d) <- ((v lsl n) lor (v lsr (32 - n))) land mask32;
              set_flags_logical t t.regs.(d);
              t.pc <- next;
              Running
            | Insn.Load (d, base, off) ->
              t.regs.(d) <- Cpu.load_u32 t.cpu (t.regs.(base) + off);
              t.pc <- next;
              Running
            | Insn.Store (base, s, off) ->
              Cpu.store_u32 t.cpu (t.regs.(base) + off) t.regs.(s);
              t.pc <- next;
              Running
            | Insn.Loadb (d, base, off) ->
              t.regs.(d) <- Cpu.load_byte t.cpu (t.regs.(base) + off);
              t.pc <- next;
              Running
            | Insn.Storeb (base, s, off) ->
              Cpu.store_byte t.cpu (t.regs.(base) + off) (t.regs.(s) land 0xff);
              t.pc <- next;
              Running
            | Insn.Jump (cond, target) ->
              if condition_met t cond then transfer t ~target
              else begin
                t.pc <- next;
                Running
              end
            | Insn.Call target ->
              t.sp <- t.sp - 4;
              Cpu.store_u32 t.cpu t.sp next;
              (match t.hook with None -> () | Some h -> h.h_call ~target);
              transfer t ~target
            | Insn.Ret ->
              let target = Cpu.load_u32 t.cpu t.sp in
              t.sp <- t.sp + 4;
              (match t.hook with None -> () | Some h -> h.h_ret ());
              transfer t ~target
            | Insn.Push r ->
              t.sp <- t.sp - 4;
              Cpu.store_u32 t.cpu t.sp t.regs.(r);
              t.pc <- next;
              Running
            | Insn.Pop r ->
              t.regs.(r) <- Cpu.load_u32 t.cpu t.sp;
              t.sp <- t.sp + 4;
              t.pc <- next;
              Running)
          with
          | state -> state
          | exception Cpu.Protection_fault fault -> Trapped (Trap_protection fault)
          | exception Memory.Bus_fault msg -> Trapped (Trap_bus msg)
          | exception Invalid_argument msg -> Trapped (Trap_illegal msg))

let run ?(max_steps = 1_000_000) t =
  let rec loop steps =
    if steps >= max_steps then (Running, steps)
    else
      match step t with
      | Running -> loop (steps + 1)
      | (Halted | Trapped _) as final -> (final, steps + 1)
  in
  loop 0

let pp_trap fmt = function
  | Trap_protection f ->
    Format.fprintf fmt "protection fault: %s touched 0x%06x" f.Cpu.fault_code
      f.Cpu.fault_addr
  | Trap_bus msg -> Format.fprintf fmt "bus fault: %s" msg
  | Trap_illegal msg -> Format.fprintf fmt "illegal instruction: %s" msg
  | Trap_entry { source; target; region } ->
    Format.fprintf fmt "entry violation: 0x%06x -> 0x%06x (%s)" source target region

let pp_state fmt = function
  | Running -> Format.pp_print_string fmt "running"
  | Halted -> Format.pp_print_string fmt "halted"
  | Trapped trap -> Format.fprintf fmt "trapped (%a)" pp_trap trap
