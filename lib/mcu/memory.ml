exception Bus_fault of string

(* Every region is backed by fixed-size pages, numbered from the region's
   base; a region's last page is cut to the bytes it covers. A page is
   either owned by its memory, which writes it in place, or shared, and
   then immutable: [zero_page], which every blank page of every memory
   starts as, or a page sealed by [share] and handed round through its
   domain's pool. The first write that changes a shared page's bytes
   swaps in a private copy; a write that leaves them as they are keeps
   the page shared. No page buffer ever leaves this module and nothing
   writes a shared page, so any domain may read one concurrently. A
   region's record (its page table and ownership bits) is shared the
   same way: a shared record has [unowned] for bits and is never
   mutated, and the first write that must own a page puts a private copy
   of the record into its memory's slot first. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\x00'
let unowned = Bytes.create 0

type mapped = {
  region : Region.t;
  pages : Bytes.t array;
  mutable owned : Bytes.t; (* bit [i] set: page [i] is this memory's own *)
}

type t = {
  mapped : mapped array; (* one slot per region, in map order *)
  mutable rom_sealed : bool;
}

let bits_for pages = Bytes.make ((Array.length pages + 7) lsr 3) '\x00'

let create regions =
  let rec check = function
    | [] -> ()
    | r :: rest ->
      List.iter
        (fun r' ->
          if Region.overlaps r r' then
            invalid_arg
              (Format.asprintf "Memory.create: %a overlaps %a" Region.pp r Region.pp r'))
        rest;
      check rest
  in
  check regions;
  let map r =
    let pages = Array.make ((r.Region.size + page_mask) lsr page_bits) zero_page in
    { region = r; pages; owned = bits_for pages }
  in
  { mapped = Array.of_list (List.map map regions); rom_sealed = false }

let regions t = Array.fold_right (fun m acc -> m.region :: acc) t.mapped []

(* The slot of the region holding [addr], searched from slot [k] on, or
   -1. A top-level loop, so a lookup allocates nothing. *)
let rec find_slot mapped addr k =
  if k = Array.length mapped then -1
  else if Region.contains (Array.unsafe_get mapped k).region addr then k
  else find_slot mapped addr (k + 1)

let slot mapped addr =
  let k = find_slot mapped addr 0 in
  if k < 0 then raise (Bus_fault (Printf.sprintf "no region at address 0x%06x" addr));
  k

let region_named t name =
  match Array.find_opt (fun m -> m.region.Region.name = name) t.mapped with
  | Some m -> m.region
  | None -> raise Not_found

let region_of_addr t addr =
  let k = find_slot t.mapped addr 0 in
  if k < 0 then None else Some t.mapped.(k).region

let seal_rom t = t.rom_sealed <- true

let slot_writable t addr =
  let k = slot t.mapped addr in
  let r = t.mapped.(k).region in
  if t.rom_sealed && r.Region.kind = Region.Rom then
    raise (Bus_fault (Printf.sprintf "ROM write at 0x%06x (%s)" addr r.Region.name));
  k

let owns m i =
  m.owned != unowned
  && Char.code (Bytes.unsafe_get m.owned (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Page [i] of slot [k] as this memory's own, copied from the shared page
   on first use, after a shared record has been copied into the slot. *)
let own_page t k i =
  let m = t.mapped.(k) in
  if owns m i then m.pages.(i)
  else begin
    let m =
      if m.owned != unowned then m
      else begin
        let copy = { region = m.region; pages = Array.copy m.pages; owned = bits_for m.pages } in
        t.mapped.(k) <- copy;
        copy
      end
    in
    let p = Bytes.sub m.pages.(i) 0 (min page_size (m.region.Region.size - (i lsl page_bits))) in
    m.pages.(i) <- p;
    Bytes.set m.owned (i lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.get m.owned (i lsr 3)) lor (1 lsl (i land 7))));
    p
  end

let read_byte t addr =
  let m = t.mapped.(slot t.mapped addr) in
  let off = addr - m.region.Region.base in
  Char.code (Bytes.get m.pages.(off lsr page_bits) (off land page_mask))

let write_byte t addr v =
  let k = slot_writable t addr in
  let m = t.mapped.(k) in
  let off = addr - m.region.Region.base in
  let i = off lsr page_bits and j = off land page_mask and c = Char.chr (v land 0xff) in
  if Bytes.get m.pages.(i) j <> c then Bytes.set (own_page t k i) j c

let rec same p poff s off n =
  n = 0
  || Bytes.unsafe_get p poff = String.unsafe_get s off && same p (poff + 1) s (off + 1) (n - 1)

(* [n] bytes at offset [roff] of region [m], one page run at a time. *)
let rec blit_out m roff buf off n =
  if n > 0 then begin
    let poff = roff land page_mask in
    let k = min n (page_size - poff) in
    Bytes.blit m.pages.(roff lsr page_bits) poff buf off k;
    blit_out m (roff + k) buf (off + k) (n - k)
  end

(* [n] bytes of [s] from [off] into slot [k]'s region at offset [roff].
   A run a shared page already holds leaves it shared, so copying a
   mostly blank image (a reboot's flash and ROM) materialises only the
   pages that hold data. *)
let rec blit_in t k s off roff n =
  if n > 0 then begin
    let m = t.mapped.(k) in
    let i = roff lsr page_bits and poff = roff land page_mask in
    let run = min n (page_size - poff) in
    if owns m i || not (same m.pages.(i) poff s off run) then
      Bytes.blit_string s off (own_page t k i) poff run;
    blit_in t k s (off + run) (roff + run) (n - run)
  end

(* Bulk accessors locate each region once and blit whole page runs instead
   of paying a region lookup per byte — attestation reads the prover's
   entire writable memory through here, which made this the simulator's
   real (wall-clock) bottleneck. Faults surface exactly as in the
   byte-wise versions: at the first unmapped/ROM byte, with prior runs
   applied. *)
let rec read_runs mapped addr buf pos len =
  if len > 0 then begin
    let m = mapped.(slot mapped addr) in
    let roff = addr - m.region.Region.base in
    let n = min len (m.region.Region.size - roff) in
    blit_out m roff buf pos n;
    read_runs mapped (addr + n) buf (pos + n) (len - n)
  end

let read_into t addr buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Memory.read_into";
  read_runs t.mapped addr buf pos len

let read_bytes t addr len =
  if len = 0 then ""
  else begin
    let buf = Bytes.create len in
    read_runs t.mapped addr buf 0 len;
    Bytes.unsafe_to_string buf
  end

let write_bytes t addr s =
  let len = String.length s in
  let rec store off =
    if off < len then begin
      let k = slot_writable t (addr + off) in
      let r = t.mapped.(k).region in
      let roff = addr + off - r.Region.base in
      let n = min (len - off) (r.Region.size - roff) in
      blit_in t k s off roff n;
      store (off + n)
    end
  in
  store 0

let read_u32 t addr =
  read_byte t addr
  lor (read_byte t (addr + 1) lsl 8)
  lor (read_byte t (addr + 2) lsl 16)
  lor (read_byte t (addr + 3) lsl 24)

let write_u32 t addr v =
  for i = 0 to 3 do
    write_byte t (addr + i) ((v lsr (8 * i)) land 0xff)
  done

let copy_raw t ~base s =
  let sealed = t.rom_sealed in
  t.rom_sealed <- false;
  Fun.protect
    ~finally:(fun () -> t.rom_sealed <- sealed)
    (fun () -> write_bytes t base s)

let read_u64 t addr =
  let lo = Int64.of_int (read_u32 t addr) in
  let hi = Int64.of_int (read_u32 t (addr + 4)) in
  Int64.logor (Int64.logand lo 0xFFFFFFFFL) (Int64.shift_left hi 32)

let write_u64 t addr v =
  write_u32 t addr (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
  write_u32 t (addr + 4) (Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xFFFFFFFFL))

(* The pages and region records [share] sealed on this domain, by
   address, at most one of each per address: a sealed page or record
   equal to the one held here is swapped for it, and any other takes its
   place. *)
let pool : ((int, Bytes.t) Hashtbl.t * (int, mapped) Hashtbl.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (Hashtbl.create 64, Hashtbl.create 16))

let same_pages a b = Array.length a = Array.length b && Array.for_all2 ( == ) a b

let share t =
  let pages, records = Domain.DLS.get pool in
  Array.iteri
    (fun k m ->
      if m.owned != unowned then begin
        Array.iteri
          (fun i p ->
            if owns m i then begin
              let addr = m.region.Region.base + (i lsl page_bits) in
              match Hashtbl.find_opt pages addr with
              | Some q when Bytes.equal p q -> m.pages.(i) <- q
              | Some _ | None -> Hashtbl.replace pages addr p
            end)
          m.pages;
        match Hashtbl.find_opt records m.region.Region.base with
        | Some q when q.region == m.region && same_pages m.pages q.pages -> t.mapped.(k) <- q
        | Some _ | None ->
          m.owned <- unowned;
          Hashtbl.replace records m.region.Region.base m
      end)
    t.mapped
