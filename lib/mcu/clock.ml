type kind = Hw_counter | Sw_clock

type sw = {
  lsb_width : int;
  msb_addr : int;
  timer_vector : int;
  handler_entry : int;
}

type t = {
  cpu : Cpu.t;
  divider_log2 : int;
  kind : kind;
  width : int; (* hw register width, or lsb width *)
  sw : sw option;
}

let mask_to width v =
  if width >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let raw_ticks cpu divider_log2 =
  Int64.shift_right_logical (Cpu.cycles cpu) divider_log2

let create_hw_counter cpu ~width ~divider_log2 =
  if width < 1 || width > 64 then invalid_arg "Clock.create_hw_counter: width";
  if divider_log2 < 0 then invalid_arg "Clock.create_hw_counter: divider";
  { cpu; divider_log2; kind = Hw_counter; width; sw = None }

let create_sw_clock cpu interrupt ~lsb_width ~divider_log2 ~msb_addr ~timer_vector
    ~handler_entry ~handler_region =
  if lsb_width < 1 || lsb_width > 62 then invalid_arg "Clock.create_sw_clock: lsb_width";
  if divider_log2 < 0 then invalid_arg "Clock.create_sw_clock: divider";
  let t =
    {
      cpu;
      divider_log2;
      kind = Sw_clock;
      width = lsb_width;
      sw = Some { lsb_width; msb_addr; timer_vector; handler_entry };
    }
  in
  (* Code_clock: increment Clock_MSB; a protection fault silently stops
     the clock rather than crashing dispatch. *)
  let handler () =
    try
      let msb = Cpu.load_u64 cpu msb_addr in
      Cpu.store_u64 cpu msb_addr (Int64.add msb 1L)
    with Cpu.Protection_fault _ -> ()
  in
  Interrupt.register_handler interrupt ~entry_addr:handler_entry
    ~code_region:handler_region ~handler;
  Interrupt.set_vector_raw interrupt ~vector:timer_vector ~entry_addr:handler_entry;
  (* wrap-around detector on the hardware LSB counter *)
  let last = ref (raw_ticks cpu divider_log2) in
  Cpu.on_advance cpu (fun _ _ _ ->
      let now = raw_ticks cpu divider_log2 in
      let wraps =
        Int64.sub
          (Int64.shift_right_logical now lsb_width)
          (Int64.shift_right_logical !last lsb_width)
      in
      last := now;
      let rec fire n =
        if Int64.compare n 0L > 0 then begin
          Interrupt.raise_irq interrupt ~vector:timer_vector;
          fire (Int64.sub n 1L)
        end
      in
      fire wraps);
  t

let kind t = t.kind

let ticks t =
  match t.sw with
  | None -> mask_to t.width (raw_ticks t.cpu t.divider_log2)
  | Some sw ->
    let lsb = mask_to sw.lsb_width (raw_ticks t.cpu t.divider_log2) in
    let msb = Cpu.load_u64 t.cpu sw.msb_addr in
    Int64.logor (Int64.shift_left msb sw.lsb_width) lsb

let resolution_seconds t =
  Int64.to_float (Int64.shift_left 1L t.divider_log2) /. float_of_int (Cpu.clock_hz t.cpu)

let seconds t = Int64.to_float (ticks t) *. resolution_seconds t

let msb_addr t = Option.map (fun sw -> sw.msb_addr) t.sw
let lsb_width t = Option.map (fun sw -> sw.lsb_width) t.sw

let wraparound_seconds ~hz ~width ~divider_log2 =
  2.0 ** float_of_int (width + divider_log2) /. float_of_int hz

(* 365-day years: reproduces the paper's "24,372.6 years" for a 64-bit
   counter at 24 MHz (we get 24,373.0; the paper rounded differently). *)
let seconds_per_year = 365.0 *. 24.0 *. 3600.0

let wraparound_years ~hz ~width ~divider_log2 =
  wraparound_seconds ~hz ~width ~divider_log2 /. seconds_per_year
