module Memory = Ra_mcu.Memory
module Region = Ra_mcu.Region
module Profiler = Ra_obs.Profiler

let default_period = 64

(* One registered program: its extent and its labels sorted by address,
   for nearest-preceding-label symbolization. *)
type symrange = { sr_lo : int; sr_hi : int; sr_syms : (int * string) array }

type t = {
  s_period : int;
  memory : Memory.t;
  profile : Profiler.Pc.t;
  mutable ranges : symrange list; (* most recently added first *)
  mutable credit : int;
  mutable stack : string list; (* call frames, innermost first *)
  mutable last_pc : int; (* -1 before the first instruction *)
  (* sample-path memo: the accumulator cell for the current
     (region, stack, leaf symbol), valid while the sampled pc stays in
     [cur_lo, cur_hi) — the address range over which region, leaf and
     stack are all constant. Invalidated on any stack change, so the
     steady-state sample is a range check and two field writes. *)
  mutable cur_lo : int;
  mutable cur_hi : int;
  mutable cur_handle : Profiler.Pc.handle option;
  (* the core currently counting cycle credit on our behalf; a partial
     period left inside it is pulled back on re-attach and flush so
     attribution stays exact across short-lived cores *)
  mutable cur_core : Core.t option;
}

let create ?(period = default_period) ~memory profile =
  if period < 1 then invalid_arg "Sampler.create: period must be >= 1";
  {
    s_period = period;
    memory;
    profile;
    ranges = [];
    credit = 0;
    stack = [];
    last_pc = -1;
    cur_lo = 0;
    cur_hi = 0;
    cur_handle = None;
    cur_core = None;
  }

let add_program t (program : Asm.program) =
  let syms =
    List.sort (fun (_, a) (_, b) -> compare a b) program.Asm.labels
    |> List.map (fun (name, addr) -> (addr, name))
    |> Array.of_list
  in
  let lo = program.Asm.origin in
  let hi = lo + Asm.size_bytes program in
  t.ranges <- { sr_lo = lo; sr_hi = hi; sr_syms = syms } :: t.ranges;
  (* symbolization just changed; drop any memoized resolution *)
  t.cur_handle <- None

(* Index of the greatest label address <= pc, by binary search. *)
let nearest_label_idx syms pc =
  let n = Array.length syms in
  if n = 0 || fst syms.(0) > pc then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst syms.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let nearest_label syms pc =
  match nearest_label_idx syms pc with
  | Some i -> Some (snd syms.(i))
  | None -> None

let symbolize t pc =
  let rec in_ranges = function
    | [] -> None
    | r :: rest ->
      if pc >= r.sr_lo && pc < r.sr_hi then
        match nearest_label r.sr_syms pc with
        | Some _ as s -> s
        | None -> in_ranges rest
      else in_ranges rest
  in
  match in_ranges t.ranges with
  | Some name -> name
  | None -> Printf.sprintf "0x%06x" pc

(* Resolve pc to (leaf, lo, hi): the symbol name plus the address range
   [lo, hi) over which that leaf (and the enclosing region) is constant,
   clipped to the region extent. An unsymbolized or unmapped pc gets the
   degenerate range [pc, pc+1) — its hex leaf is per-address anyway. *)
let resolve_range t pc =
  let leaf_range =
    let rec in_ranges = function
      | [] -> None
      | r :: rest -> (
        if pc >= r.sr_lo && pc < r.sr_hi then
          match nearest_label_idx r.sr_syms pc with
          | Some i ->
            let lo = fst r.sr_syms.(i) in
            let hi =
              if i + 1 < Array.length r.sr_syms then fst r.sr_syms.(i + 1)
              else r.sr_hi
            in
            Some (r, snd r.sr_syms.(i), lo, hi)
          | None -> in_ranges rest
        else in_ranges rest)
    in
    in_ranges t.ranges
  in
  match (leaf_range, Memory.region_of_addr t.memory pc) with
  | Some (matched, leaf, lo, hi), Some r ->
    (* if another registered program overlaps the candidate range, clip
       it so the memo never spans an address where that program would
       shadow (or fall through to) a different symbol *)
    let lo, hi =
      List.fold_left
        (fun (lo, hi) r' ->
          if r' == matched || r'.sr_hi <= lo || r'.sr_lo >= hi then (lo, hi)
          else if pc < r'.sr_lo then (lo, min hi r'.sr_lo)
          else if pc >= r'.sr_hi then (max lo r'.sr_hi, hi)
          else (pc, pc + 1))
        (lo, hi) t.ranges
    in
    (leaf, r.Region.name, max lo r.Region.base, min hi (Region.limit r))
  | Some (_, leaf, _, _), None -> (leaf, "unmapped", pc, pc + 1)
  | None, region ->
    let name = match region with Some r -> r.Region.name | None -> "unmapped" in
    (Printf.sprintf "0x%06x" pc, name, pc, pc + 1)

let take_sample t =
  (* the memo only invalidates at call/ret/irq or when the pc leaves the
     current symbol's address range, so the steady-state sample is one
     range check and two field writes *)
  (match t.cur_handle with
  | Some h when t.last_pc >= t.cur_lo && t.last_pc < t.cur_hi ->
    Profiler.Pc.bump h ~cycles:t.credit
  | _ ->
    let leaf, region, lo, hi = resolve_range t t.last_pc in
    let frames = region :: List.rev_append t.stack [ leaf ] in
    let h = Profiler.Pc.handle t.profile ~frames in
    t.cur_lo <- lo;
    t.cur_hi <- hi;
    t.cur_handle <- Some h;
    Profiler.Pc.bump h ~cycles:t.credit);
  t.credit <- 0

(* The core fires this once per crossed period with the whole credit. *)
let on_sample t ~pc ~cycles =
  t.last_pc <- pc;
  t.credit <- cycles;
  take_sample t

(* Pull back the partial period still counting inside the attached core. *)
let drain t =
  match t.cur_core with
  | None -> ()
  | Some core ->
    t.credit <- t.credit + Core.sample_credit core;
    Core.set_sample_credit core 0;
    t.last_pc <- Core.pc core

let flush t =
  drain t;
  if t.credit > 0 && t.last_pc >= 0 then take_sample t

let invalidate t = t.cur_handle <- None

let attach t core =
  (match t.cur_core with
  | Some old when old == core -> () (* already counting on this core *)
  | prev ->
    (match prev with Some _ -> drain t | None -> ());
    (* any carried residue seeds the new core's credit, so whatever the
       period, flushed attribution equals executed cycles exactly *)
    Core.set_sample_credit core t.credit;
    t.credit <- 0;
    t.cur_core <- Some core);
  Core.set_hook core
    (Some
       {
         Core.h_period = t.s_period;
         h_sample = (fun ~pc ~cycles -> on_sample t ~pc ~cycles);
         h_call =
           (fun ~target ->
             t.stack <- symbolize t target :: t.stack;
             invalidate t);
         h_ret =
           (fun () ->
             (match t.stack with [] -> () | _ :: rest -> t.stack <- rest);
             invalidate t);
         h_irq_enter =
           (fun ~entry ->
             t.stack <- ("irq:" ^ symbolize t entry) :: t.stack;
             invalidate t);
         h_irq_exit =
           (fun () ->
             (match t.stack with [] -> () | _ :: rest -> t.stack <- rest);
             invalidate t);
       })
