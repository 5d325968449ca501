module Memory = Ra_mcu.Memory
module Cpu = Ra_mcu.Cpu

(* Scratch layout at [scratch_addr]:
     +0    .. +63   message block (big-endian bytes, as SHA-1 reads them)
     +64   .. +83   state h0..h4 (little-endian u32 cells)
     +96   .. +415  W[0..79] schedule *)
let block_off = 0
let state_off = 64
let w_off = 96
let stage_off = 416
let scratch_bytes = 480

type t = {
  origin : int;
  scratch_addr : int;
  code_size : int;
  copy_entry : int;
  program : Asm.program;
  mutable last_cycles : int64;
  mutable sampler : Sampler.t option;
}

(* Registers: r1 block addr, r2 state addr, r9 W base; r3..r7 = a..e;
   r10 = t; r11..r13 scratch; r14 = f; r15 = k. *)
let source ~block ~state ~w =
  Printf.sprintf
    {|
    compress:
      mov r1, #%d          ; block
      mov r2, #%d          ; state
      mov r9, #%d          ; W
      ; ---- W[0..15] <- big-endian words of the block ----
      mov r10, #0
    w_init:
      mov r11, r10
      shl r11, #2
      add r11, r1
      loadb r12, [r11]
      shl r12, #8
      loadb r13, [r11+1]
      or  r12, r13
      shl r12, #8
      loadb r13, [r11+2]
      or  r12, r13
      shl r12, #8
      loadb r13, [r11+3]
      or  r12, r13
      mov r11, r10
      shl r11, #2
      add r11, r9
      store [r11], r12
      add r10, #1
      cmp r10, #16
      jnz w_init
      ; ---- W[16..79] <- rol1(W[t-3]^W[t-8]^W[t-14]^W[t-16]) ----
    w_expand:
      mov r11, r10
      shl r11, #2
      add r11, r9          ; &W[t]
      load r12, [r11-12]   ; W[t-3]
      load r13, [r11-32]   ; W[t-8]
      xor r12, r13
      load r13, [r11-56]   ; W[t-14]
      xor r12, r13
      load r13, [r11-64]   ; W[t-16]
      xor r12, r13
      rol r12, #1
      store [r11], r12
      add r10, #1
      cmp r10, #80
      jnz w_expand
      ; ---- load working variables ----
      load r3, [r2]        ; a
      load r4, [r2+4]      ; b
      load r5, [r2+8]      ; c
      load r6, [r2+12]     ; d
      load r7, [r2+16]     ; e
      mov r10, #0
    rounds:
      cmp r10, #20
      jnc phase1
      cmp r10, #40
      jnc phase2
      cmp r10, #60
      jnc phase3
      ; ---- t in 60..79: f = b^c^d ----
      mov r14, r4
      xor r14, r5
      xor r14, r6
      mov r15, #0xCA62C1D6
      jmp do_round
    phase1:
      ; f = (b & c) | (~b & d)
      mov r14, r4
      and r14, r5
      mov r12, r4
      xor r12, #0xFFFFFFFF
      and r12, r6
      or  r14, r12
      mov r15, #0x5A827999
      jmp do_round
    phase2:
      mov r14, r4
      xor r14, r5
      xor r14, r6
      mov r15, #0x6ED9EBA1
      jmp do_round
    phase3:
      ; f = (b & c) | (b & d) | (c & d)
      mov r14, r4
      and r14, r5
      mov r12, r4
      and r12, r6
      or  r14, r12
      mov r12, r5
      and r12, r6
      or  r14, r12
      mov r15, #0x8F1BBCDC
      jmp do_round
    do_round:
      ; temp = rol5(a) + f + e + k + W[t]
      mov r11, r3
      rol r11, #5
      add r11, r14
      add r11, r7
      add r11, r15
      mov r12, r10
      shl r12, #2
      add r12, r9
      load r12, [r12]
      add r11, r12
      ; shift the pipeline
      mov r7, r6
      mov r6, r5
      mov r5, r4
      rol r5, #30
      mov r4, r3
      mov r3, r11
      add r10, #1
      cmp r10, #80
      jnz rounds
      ; ---- state += working variables ----
      load r11, [r2]
      add r11, r3
      store [r2], r11
      load r11, [r2+4]
      add r11, r4
      store [r2+4], r11
      load r11, [r2+8]
      add r11, r5
      store [r2+8], r11
      load r11, [r2+12]
      add r11, r6
      store [r2+12], r11
      load r11, [r2+16]
      add r11, r7
      store [r2+16], r11
      halt
      ; ---- copy: r1 = src, r2 = dst, r8 = byte count ----
    copy:
      cmp r8, #0
      jz copy_done
    copy_loop:
      loadb r11, [r1]
      storeb [r2], r11
      add r1, #1
      add r2, #1
      sub r8, #1
      jnz copy_loop
    copy_done:
      halt
    |}
    block state w

let assemble_program ~origin ~scratch_addr =
  let block = scratch_addr + block_off in
  let state = scratch_addr + state_off in
  let w = scratch_addr + w_off in
  match Asm.assemble ~origin (source ~block ~state ~w) with
  | Error e ->
    invalid_arg (Format.asprintf "Sha1_asm.install: assembly failed: %a" Asm.pp_error e)
  | Ok program -> program

let attach ~origin ~scratch_addr =
  let program = assemble_program ~origin ~scratch_addr in
  {
    origin;
    scratch_addr;
    code_size = Asm.size_bytes program;
    copy_entry = Asm.label program "copy";
    program;
    last_cycles = 0L;
    sampler = None;
  }

let code_bytes ~origin ~scratch_addr =
  Asm.to_bytes (assemble_program ~origin ~scratch_addr)

let install memory ~origin ~scratch_addr =
  let t = attach ~origin ~scratch_addr in
  Memory.write_bytes memory origin (code_bytes ~origin ~scratch_addr);
  t

let code_size_bytes t = t.code_size
let last_run_cycles t = t.last_cycles

let set_sampler t sampler =
  (match sampler with
  | None -> ()
  | Some s -> Sampler.add_program s t.program);
  t.sampler <- sampler

let initial_state = [ 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 ]

let pad message =
  (* standard SHA-1 padding: 0x80, zeros, 64-bit big-endian bit length *)
  let len = String.length message in
  let bits = Int64.of_int (8 * len) in
  let zero_pad = (119 - (len mod 64)) mod 64 in
  let length_bytes =
    String.init 8 (fun i ->
        Char.chr
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical bits (8 * (7 - i))) 0xFFL)))
  in
  message ^ "\x80" ^ String.make zero_pad '\x00' ^ length_bytes

exception Trapped of Core.trap

(* A routine that does not halt within its step budget is a bug in it. *)
let run t core what =
  (match t.sampler with None -> () | Some s -> Sampler.attach s core);
  match Core.run ~max_steps:100_000 core with
  | Core.Halted, _ -> ()
  | Core.Trapped trap, _ -> raise (Trapped trap)
  | (Core.Running as state), _ ->
    failwith (Format.asprintf "Sha1_asm: %s %a" what Core.pp_state state)

let run_compress t cpu =
  let core = Core.create cpu ~pc:t.origin ~sp:(t.scratch_addr + scratch_bytes) in
  let before = Cpu.cycles cpu in
  run t core "compression";
  t.last_cycles <- Int64.sub (Cpu.cycles cpu) before

let digest t cpu message =
  let memory = Cpu.memory cpu in
  let state_addr = t.scratch_addr + state_off in
  List.iteri
    (fun i h -> Memory.write_u32 memory (state_addr + (4 * i)) h)
    initial_state;
  let padded = pad message in
  let blocks = String.length padded / 64 in
  for b = 0 to blocks - 1 do
    Memory.write_bytes memory (t.scratch_addr + block_off) (String.sub padded (b * 64) 64);
    run_compress t cpu
  done;
  String.init 20 (fun i ->
      let word = Memory.read_u32 memory (state_addr + (4 * (i / 4))) in
      Char.chr ((word lsr (8 * (3 - (i mod 4)))) land 0xff))

type segment = Bytes of string | Range of int * int

(* run the interpreted copy routine: stage [len] bytes from device
   memory into the scratch staging area, reading through the MPU *)
let run_copy t cpu ~src ~len =
  let core = Core.create cpu ~pc:t.copy_entry ~sp:(t.scratch_addr + scratch_bytes) in
  Core.set_reg core 1 src;
  Core.set_reg core 2 (t.scratch_addr + stage_off);
  Core.set_reg core 8 len;
  run t core "copy"

let digest_segments t cpu segments =
  let memory = Cpu.memory cpu in
  let state_addr = t.scratch_addr + state_off in
  List.iteri
    (fun i h -> Memory.write_u32 memory (state_addr + (4 * i)) h)
    initial_state;
  let pending = Buffer.create 128 in
  let total = ref 0 in
  let flush_blocks () =
    while Buffer.length pending >= 64 do
      let block = Buffer.sub pending 0 64 in
      let rest = Buffer.sub pending 64 (Buffer.length pending - 64) in
      Buffer.clear pending;
      Buffer.add_string pending rest;
      Memory.write_bytes memory (t.scratch_addr + block_off) block;
      run_compress t cpu
    done
  in
  let feed_bytes s =
    total := !total + String.length s;
    Buffer.add_string pending s;
    flush_blocks ()
  in
  List.iter
    (fun segment ->
      match segment with
      | Bytes s -> feed_bytes s
      | Range (base, len) ->
        let stage = t.scratch_addr + stage_off in
        let rec chunks off =
          if off < len then begin
            let n = min 64 (len - off) in
            run_copy t cpu ~src:(base + off) ~len:n;
            feed_bytes (Memory.read_bytes memory stage n);
            chunks (off + n)
          end
        in
        chunks 0)
    segments;
  (* padding for the streamed length *)
  let len = !total in
  let bits = Int64.of_int (8 * len) in
  let zero_pad = (119 - (len mod 64)) mod 64 in
  let length_bytes =
    String.init 8 (fun i ->
        Char.chr
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical bits (8 * (7 - i))) 0xFFL)))
  in
  feed_bytes ("\x80" ^ String.make zero_pad '\x00' ^ length_bytes);
  assert (Buffer.length pending = 0);
  String.init 20 (fun i ->
      let word = Memory.read_u32 memory (state_addr + (4 * (i / 4))) in
      Char.chr ((word lsr (8 * (3 - (i mod 4)))) land 0xff))

let hmac_key_pads key =
  let block_size = 64 in
  let key = key ^ String.make (block_size - String.length key) '\x00' in
  let xor_with pad_byte =
    String.map (fun c -> Char.chr (Char.code c lxor pad_byte)) key
  in
  (xor_with 0x36, xor_with 0x5c)

let hmac_segments t cpu ~key segments =
  match
    let key = if String.length key > 64 then digest t cpu key else key in
    let ipad, opad = hmac_key_pads key in
    let inner = digest_segments t cpu (Bytes ipad :: segments) in
    digest_segments t cpu [ Bytes opad; Bytes inner ]
  with
  | report -> Ok report
  | exception Trapped trap -> Error trap

let hmac t cpu ~key message =
  let block_size = 64 in
  let key = if String.length key > block_size then digest t cpu key else key in
  let key = key ^ String.make (block_size - String.length key) '\x00' in
  let xor_with pad_byte =
    String.map (fun c -> Char.chr (Char.code c lxor pad_byte)) key
  in
  let ipad = xor_with 0x36 in
  let opad = xor_with 0x5c in
  digest t cpu (opad ^ digest t cpu (ipad ^ message))
