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
   region's page table (page array and ownership bits) is shared the
   same way: a shared table has [unowned] for bits, and the first write
   that must own a page copies the table first. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\x00'
let unowned = Bytes.create 0

type mapped = {
  region : Region.t;
  mutable pages : Bytes.t array;
  mutable owned : Bytes.t; (* bit [i] set: page [i] is this memory's own *)
}

type t = {
  mapped : mapped list; (* in map order, each region next to its pages *)
  mutable rom_sealed : bool;
}

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
    let n = (r.Region.size + page_mask) lsr page_bits in
    { region = r; pages = Array.make n zero_page; owned = Bytes.make ((n + 7) lsr 3) '\x00' }
  in
  { mapped = List.map map regions; rom_sealed = false }

let regions t = List.map (fun m -> m.region) t.mapped

let region_named t name =
  match List.find_opt (fun m -> m.region.Region.name = name) t.mapped with
  | Some m -> m.region
  | None -> raise Not_found

let region_of_addr t addr =
  List.find_map (fun m -> if Region.contains m.region addr then Some m.region else None) t.mapped

let seal_rom t = t.rom_sealed <- true

let rec locate addr = function
  | [] -> raise (Bus_fault (Printf.sprintf "no region at address 0x%06x" addr))
  | m :: rest -> if Region.contains m.region addr then m else locate addr rest

let locate_writable t addr =
  let m = locate addr t.mapped in
  if t.rom_sealed && m.region.Region.kind = Region.Rom then
    raise (Bus_fault (Printf.sprintf "ROM write at 0x%06x (%s)" addr m.region.Region.name));
  m

let owns m i =
  m.owned != unowned
  && Char.code (Bytes.unsafe_get m.owned (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Page [i] of [m] as its own, copied from the shared page on first use,
   after the table itself if that is shared. *)
let own_page m i =
  if owns m i then m.pages.(i)
  else begin
    if m.owned == unowned then begin
      m.pages <- Array.copy m.pages;
      m.owned <- Bytes.make ((Array.length m.pages + 7) lsr 3) '\x00'
    end;
    let p = Bytes.sub m.pages.(i) 0 (min page_size (m.region.Region.size - (i lsl page_bits))) in
    m.pages.(i) <- p;
    Bytes.set m.owned (i lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.get m.owned (i lsr 3)) lor (1 lsl (i land 7))));
    p
  end

let read_byte t addr =
  let m = locate addr t.mapped in
  let off = addr - m.region.Region.base in
  Char.code (Bytes.get m.pages.(off lsr page_bits) (off land page_mask))

let write_byte t addr v =
  let m = locate_writable t addr in
  let off = addr - m.region.Region.base in
  let i = off lsr page_bits and j = off land page_mask and c = Char.chr (v land 0xff) in
  if Bytes.get m.pages.(i) j <> c then Bytes.set (own_page m i) j c

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

(* A run a shared page already holds leaves it shared, so copying a
   mostly blank image (a reboot's flash and ROM) materialises only the
   pages that hold data. *)
let rec blit_in m s off roff n =
  if n > 0 then begin
    let i = roff lsr page_bits and poff = roff land page_mask in
    let k = min n (page_size - poff) in
    if owns m i || not (same m.pages.(i) poff s off k) then
      Bytes.blit_string s off (own_page m i) poff k;
    blit_in m s (off + k) (roff + k) (n - k)
  end

(* Bulk accessors locate each region once and blit whole page runs instead
   of paying a region lookup per byte — attestation reads the prover's
   entire writable memory through here, which made this the simulator's
   real (wall-clock) bottleneck. Faults surface exactly as in the
   byte-wise versions: at the first unmapped/ROM byte, with prior runs
   applied. *)
let rec read_runs mapped addr buf pos len =
  if len > 0 then begin
    let m = locate addr mapped in
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
      let m = locate_writable t (addr + off) in
      let roff = addr + off - m.region.Region.base in
      let n = min (len - off) (m.region.Region.size - roff) in
      blit_in m s off roff n;
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

(* The pages and page tables [share] sealed on this domain, by address,
   at most one of each per address: a sealed page or table equal to the
   one held here is swapped for it, and any other takes its place. *)
let pool : ((int, Bytes.t) Hashtbl.t * (int, Bytes.t array) Hashtbl.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (Hashtbl.create 64, Hashtbl.create 16))

let same_pages a b = Array.length a = Array.length b && Array.for_all2 ( == ) a b

let share t =
  let pages, tables = Domain.DLS.get pool in
  List.iter
    (fun m ->
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
        (match Hashtbl.find_opt tables m.region.Region.base with
        | Some q when same_pages m.pages q -> m.pages <- q
        | Some _ | None -> Hashtbl.replace tables m.region.Region.base m.pages);
        m.owned <- unowned
      end)
    t.mapped
