(* Region and Memory: mapping, bus faults, ROM sealing, word accessors. *)
open Ra_mcu

let make_mem () =
  Memory.create
    [
      Region.make ~name:"rom" ~base:0x0000 ~size:0x100 ~kind:Region.Rom;
      Region.make ~name:"ram" ~base:0x1000 ~size:0x200 ~kind:Region.Ram;
    ]

let test_region_basics () =
  let r = Region.make ~name:"r" ~base:16 ~size:16 ~kind:Region.Ram in
  Alcotest.(check int) "limit" 32 (Region.limit r);
  Alcotest.(check bool) "contains base" true (Region.contains r 16);
  Alcotest.(check bool) "contains last" true (Region.contains r 31);
  Alcotest.(check bool) "excludes limit" false (Region.contains r 32);
  Alcotest.check_raises "zero size" (Invalid_argument "Region.make: size must be positive")
    (fun () -> ignore (Region.make ~name:"x" ~base:0 ~size:0 ~kind:Region.Ram))

let test_overlap_rejected () =
  Alcotest.check_raises "overlap"
    (Invalid_argument
       "Memory.create: a[RAM 0x000000..0x00000f] overlaps b[RAM 0x000008..0x000017]")
    (fun () ->
      ignore
        (Memory.create
           [
             Region.make ~name:"a" ~base:0 ~size:16 ~kind:Region.Ram;
             Region.make ~name:"b" ~base:8 ~size:16 ~kind:Region.Ram;
           ]))

let test_read_write () =
  let m = make_mem () in
  Memory.write_byte m 0x1000 0xAB;
  Alcotest.(check int) "byte" 0xAB (Memory.read_byte m 0x1000);
  Memory.write_bytes m 0x1010 "hello";
  Alcotest.(check string) "bytes" "hello" (Memory.read_bytes m 0x1010 5);
  Memory.write_u32 m 0x1020 0xDEADBEEF;
  Alcotest.(check int) "u32 little-endian" 0xDEADBEEF (Memory.read_u32 m 0x1020);
  Alcotest.(check int) "u32 byte order" 0xEF (Memory.read_byte m 0x1020);
  Memory.write_u64 m 0x1030 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Memory.read_u64 m 0x1030)

let test_bus_fault () =
  let m = make_mem () in
  Alcotest.check_raises "unmapped read"
    (Memory.Bus_fault "no region at address 0x005000") (fun () ->
      ignore (Memory.read_byte m 0x5000))

let test_rom_sealing () =
  let m = make_mem () in
  Memory.write_byte m 0x10 0x42 (* manufacture-time programming *);
  Memory.seal_rom m;
  Alcotest.(check int) "rom readable" 0x42 (Memory.read_byte m 0x10);
  Alcotest.check_raises "rom write after seal"
    (Memory.Bus_fault "ROM write at 0x000010 (rom)") (fun () ->
      Memory.write_byte m 0x10 0);
  (* RAM unaffected by sealing *)
  Memory.write_byte m 0x1000 1;
  Alcotest.(check int) "ram still writable" 1 (Memory.read_byte m 0x1000)

let test_region_lookup () =
  let m = make_mem () in
  Alcotest.(check string) "by name" "ram" (Memory.region_named m "ram").Region.name;
  (match Memory.region_of_addr m 0x1005 with
  | Some r -> Alcotest.(check string) "by addr" "ram" r.Region.name
  | None -> Alcotest.fail "lookup failed");
  Alcotest.(check bool) "miss" true (Memory.region_of_addr m 0x9999 = None)

let qcheck_u32_roundtrip =
  QCheck.Test.make ~name:"memory: u32 roundtrip" ~count:200
    QCheck.(int_bound 0xFFFFFFF)
    (fun v ->
      let m = make_mem () in
      Memory.write_u32 m 0x1000 v;
      Memory.read_u32 m 0x1000 = v)

let qcheck_u64_roundtrip =
  QCheck.Test.make ~name:"memory: u64 roundtrip" ~count:200 QCheck.int64 (fun v ->
      let m = make_mem () in
      Memory.write_u64 m 0x1000 v;
      Memory.read_u64 m 0x1000 = v)

(* Model test of the paged store: random access sequences against a flat
   reference that backs each region with one eager [Bytes], byte by byte,
   as the memory did before paging. [page] is the page size of
   [memory.ml] and [big] the 4 KiB page it had before; the map's region
   sizes straddle both, so runs cross page edges inside a region as well
   as region edges and an unmapped gap. *)
let page = 1024
let big = 4096

let model_map =
  let region name base size kind = Region.make ~name ~base ~size ~kind in
  [
    region "r1" 0 1 Region.Rom;
    region "r16" 1 16 Region.Ram;
    region "rpm" 17 (page - 1) Region.Rom;
    region "rpp" (page + 16) (page + 1) Region.Flash;
    (* 7 unmapped bytes before the next region, which crosses the
       absolute 4 KiB edge *)
    region "r3p" ((2 * page) + 24) ((3 * page) + 5) Region.Ram;
    region "rbig" ((5 * page) + 29) (big + page + 3) Region.Ram;
  ]

let model_end = List.fold_left (fun acc r -> max acc (Region.limit r)) 0 model_map

module Flat = struct
  type t = { regions : (Region.t * Bytes.t) list; mutable sealed : bool }

  let create regions =
    { regions = List.map (fun r -> (r, Bytes.make r.Region.size '\x00')) regions; sealed = false }

  let locate t addr =
    match List.find_opt (fun (r, _) -> Region.contains r addr) t.regions with
    | Some (r, b) -> (r, b, addr - r.Region.base)
    | None -> raise (Memory.Bus_fault (Printf.sprintf "no region at address 0x%06x" addr))

  let read_byte t addr =
    let _, b, off = locate t addr in
    Char.code (Bytes.get b off)

  let poke ~raw t addr v =
    let r, b, off = locate t addr in
    if t.sealed && (not raw) && r.Region.kind = Region.Rom then
      raise (Memory.Bus_fault (Printf.sprintf "ROM write at 0x%06x (%s)" addr r.Region.name));
    Bytes.set b off (Char.chr (v land 0xff))

  let seal_rom t = t.sealed <- true
  let write_byte = poke ~raw:false
  let read_bytes t addr len = String.init len (fun i -> Char.chr (read_byte t (addr + i)))
  let read_into t addr buf ~pos ~len = Bytes.blit_string (read_bytes t addr len) 0 buf pos len
  let write_bytes t addr s = String.iteri (fun i c -> write_byte t (addr + i) (Char.code c)) s
  let copy_raw t ~base s = String.iteri (fun i c -> poke ~raw:true t (base + i) (Char.code c)) s
  (* the same expression as [Memory.read_u32], so a word that straddles
     unmapped bytes faults at the same one *)
  let read_u32 t addr =
    read_byte t addr
    lor (read_byte t (addr + 1) lsl 8)
    lor (read_byte t (addr + 2) lsl 16)
    lor (read_byte t (addr + 3) lsl 24)

  let write_u64 t addr v =
    for i = 0 to 7 do
      write_byte t (addr + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done
end

type op =
  | Read_byte of int
  | Write_byte of int * int
  | Read_bytes of int * int
  | Read_into of int * int * int
  | Write_bytes of int * string
  | Copy_raw of int * string
  | Read_u32 of int
  | Write_u64 of int * int64
  | Seal

let pp_op = function
  | Read_byte a -> Printf.sprintf "read_byte 0x%x" a
  | Write_byte (a, v) -> Printf.sprintf "write_byte 0x%x %d" a v
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes 0x%x %d" a n
  | Read_into (a, n, pos) -> Printf.sprintf "read_into 0x%x %d at %d" a n pos
  | Write_bytes (a, s) -> Printf.sprintf "write_bytes 0x%x (%d B)" a (String.length s)
  | Copy_raw (a, s) -> Printf.sprintf "copy_raw 0x%x (%d B)" a (String.length s)
  | Read_u32 a -> Printf.sprintf "read_u32 0x%x" a
  | Write_u64 (a, v) -> Printf.sprintf "write_u64 0x%x %Ld" a v
  | Seal -> "seal_rom"

let op_gen =
  let open QCheck.Gen in
  (* region edges, page edges inside regions, 4 KiB edges and the gap,
     +-8 bytes *)
  let edges =
    List.concat_map
      (fun r ->
        let b = r.Region.base in
        [ b; Region.limit r; b + big ] @ List.init 5 (fun k -> b + ((k + 1) * page)))
      model_map
    @ [ big; 2 * big ]
  in
  let addr =
    frequency
      [ (3, map2 ( + ) (oneofl edges) (int_range (-8) 8)); (1, int_range 0 (model_end + 16)) ]
  in
  (* zero runs, sparse runs and dense runs, up to two pages long *)
  let payload =
    int_range 0 (2 * page) >>= fun n ->
    frequency
      [ (1, return (String.make n '\x00'));
        (1, map (fun (i, c) -> String.init n (fun j -> if j = i then c else '\x00'))
              (pair (int_bound (max 0 (n - 1))) (char_range '\x01' '\xff')));
        (2, string_size ~gen:char (return n)) ]
  in
  frequency
    [ (3, map (fun a -> Read_byte a) addr);
      (3, map2 (fun a v -> Write_byte (a, v)) addr (oneof [ return 0; int_bound 255 ]));
      (3, map2 (fun a n -> Read_bytes (a, n)) addr (int_range 0 (2 * page)));
      (2, map3 (fun a n pos -> Read_into (a, n, pos))
            addr (int_range 0 (2 * page)) (int_bound 9));
      (3, map2 (fun a s -> Write_bytes (a, s)) addr payload);
      (1, map2 (fun a s -> Copy_raw (a, s)) addr payload);
      (2, map (fun a -> Read_u32 a) addr);
      (2, map2 (fun a v -> Write_u64 (a, v)) addr (map Int64.of_int int));
      (1, return Seal) ]

module type MEM = sig
  type t

  val seal_rom : t -> unit
  val read_byte : t -> int -> int
  val write_byte : t -> int -> int -> unit
  val read_bytes : t -> int -> int -> string
  val read_into : t -> int -> Bytes.t -> pos:int -> len:int -> unit
  val write_bytes : t -> int -> string -> unit
  val copy_raw : t -> base:int -> string -> unit
  val read_u32 : t -> int -> int
  val write_u64 : t -> int -> int64 -> unit
end

(* One op's result, or the message of the bus fault it raised. *)
let exec (type m) (module M : MEM with type t = m) (mem : m) op =
  try
    Ok
      (match op with
      | Read_byte a -> string_of_int (M.read_byte mem a)
      | Write_byte (a, v) -> M.write_byte mem a v; ""
      | Read_bytes (a, n) -> M.read_bytes mem a n
      | Read_into (a, n, pos) ->
        (* the bytes around the window must stay as they were *)
        let buf = Bytes.make (pos + n + 3) '.' in
        M.read_into mem a buf ~pos ~len:n;
        Bytes.to_string buf
      | Write_bytes (a, s) -> M.write_bytes mem a s; ""
      | Copy_raw (a, s) -> M.copy_raw mem ~base:a s; ""
      | Read_u32 a -> string_of_int (M.read_u32 mem a)
      | Write_u64 (a, v) -> M.write_u64 mem a v; ""
      | Seal -> M.seal_rom mem; "")
  with Memory.Bus_fault msg -> Error msg

let image_of read = List.map (fun r -> read r.Region.base r.Region.size) model_map

let qcheck_paged_matches_flat =
  QCheck.Test.make ~name:"memory: paged store = flat reference" ~count:150
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) op_gen)
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops)))
    (fun ops ->
      let m = Memory.create model_map and f = Flat.create model_map in
      List.for_all (fun op -> exec (module Memory) m op = exec (module Flat) f op) ops
      && image_of (Memory.read_bytes m) = image_of (Flat.read_bytes f)
      (* a fresh memory still reads zeros: the shared zero page was never written *)
      && List.for_all
           (fun s -> s = String.make (String.length s) '\x00')
           (image_of (Memory.read_bytes (Memory.create model_map))))

(* Worlds that share pages: each is built by its own op sequence and
   sealed with [share], the first two from the same sequence so that
   every page they hold is common to both and to the pool. Random ops then
   run on random worlds, each checked against its own flat reference, with
   reseals in between. A write in place to a shared page would show in a
   sibling world's reads; afterwards a memory rebuilt from the first
   sequence and sealed must read its genesis bytes, which it takes from
   the pool where they are equal. *)
type step = Op of int * op | Share of int

let pp_step = function
  | Op (k, op) -> Printf.sprintf "world %d: %s" k (pp_op op)
  | Share k -> Printf.sprintf "world %d: share" k

let qcheck_shared_pages_copy_on_write =
  let worlds = 3 in
  let genesis = QCheck.Gen.list_size (QCheck.Gen.int_range 0 20) op_gen in
  let step =
    QCheck.Gen.(
      frequency
        [ (12, map2 (fun k op -> Op (k, op)) (int_bound (worlds - 1)) op_gen);
          (1, map (fun k -> Share k) (int_bound (worlds - 1))) ])
  in
  QCheck.Test.make ~name:"memory: shared pages are copied on write" ~count:150
    (QCheck.make
       QCheck.Gen.(triple genesis genesis (list_size (int_range 1 60) step))
       ~print:(fun (g0, g1, steps) ->
         String.concat "; "
           (List.map pp_op g0 @ [ "|" ] @ List.map pp_op g1 @ [ "|" ]
           @ List.map pp_step steps)))
    (fun (g0, g1, steps) ->
      let build ops =
        let m = Memory.create model_map and f = Flat.create model_map in
        List.iter
          (fun op ->
            ignore (exec (module Memory) m op);
            ignore (exec (module Flat) f op))
          ops;
        Memory.share m;
        (m, f)
      in
      let w = [| build g0; build g0; build g1 |] in
      let genesis0 = image_of (Flat.read_bytes (snd w.(0))) in
      List.for_all
        (function
          | Op (k, op) ->
            let m, f = w.(k) in
            exec (module Memory) m op = exec (module Flat) f op
          | Share k ->
            Memory.share (fst w.(k));
            true)
        steps
      && Array.for_all
           (fun (m, f) -> image_of (Memory.read_bytes m) = image_of (Flat.read_bytes f))
           w
      && image_of (Memory.read_bytes (fst (build g0))) = genesis0)

(* Fleet members share their genesis pages and page tables. A write to
   one member's flash, nvram and RAM, on this domain or on another, must
   land in copies of its own: no other member, no fleet built later on
   this domain and no member swept on a second shard's domain sees it. *)
let test_member_writes_stay_private () =
  let module Fleet = Ra_core.Fleet in
  let names = List.init 6 (Printf.sprintf "w%d") in
  let fleet = Fleet.create ~ram_size:1024 ~names () in
  let device fleet name = Ra_core.Session.device (Fleet.member_session (Fleet.find fleet name)) in
  (* every region's bytes; [~sweep] leaves out the counter a sweep writes *)
  let image ?(sweep = false) fleet name =
    let d = device fleet name in
    let m = Device.memory d in
    List.map
      (fun r ->
        let s = Memory.read_bytes m r.Region.base r.Region.size in
        if sweep && Region.contains r (Device.counter_addr d) then
          String.sub s 8 (String.length s - 8)
        else s)
      (Memory.regions m)
  in
  let genesis = image fleet "w0" in
  let spots d =
    let flash = Memory.region_named (Device.memory d) Device.region_app in
    [ Device.attested_base d + 100; Device.counter_addr d + 0x40; flash.Region.base + 0x200 ]
  in
  let implant name tag =
    let d = device fleet name in
    List.iter (fun addr -> Memory.write_bytes (Device.memory d) addr tag) (spots d)
  in
  let holds name tag =
    let d = device fleet name in
    List.for_all
      (fun addr -> Memory.read_bytes (Device.memory d) addr (String.length tag) = tag)
      (spots d)
  in
  implant "w1" "HERE";
  Domain.join (Domain.spawn (fun () -> implant "w4" "THERE"));
  let writers = [ ("w1", "HERE"); ("w4", "THERE") ] in
  let bystanders = List.filter (fun n -> not (List.mem_assoc n writers)) names in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " holds its genesis") true (image fleet n = genesis))
    bystanders;
  let later = Fleet.create ~ram_size:1024 ~names:[ "z0" ] () in
  Alcotest.(check bool) "a fleet built later holds the genesis" true (image later "z0" = genesis);
  (* a sweep writes every member's counter, half of them on a helper domain *)
  let unswept = image ~sweep:true fleet "w0" in
  Fleet.advance fleet ~seconds:1.0;
  ignore (Fleet.sweep ~engine:(`Shards 2) fleet);
  Alcotest.(check bool) "the sweep wrote w0's counter" true (image fleet "w0" <> genesis);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " swept holds the rest of its genesis") true
        (image ~sweep:true fleet n = unswept))
    bystanders;
  List.iter
    (fun (n, tag) -> Alcotest.(check bool) (n ^ " keeps its own bytes") true (holds n tag))
    writers;
  let after = Fleet.create ~ram_size:1024 ~names:[ "y0" ] () in
  Alcotest.(check bool) "a fleet built after the sweep holds the genesis" true
    (image after "y0" = genesis)

let tests =
  [
    Alcotest.test_case "region basics" `Quick test_region_basics;
    Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
    Alcotest.test_case "read/write" `Quick test_read_write;
    Alcotest.test_case "bus fault" `Quick test_bus_fault;
    Alcotest.test_case "rom sealing" `Quick test_rom_sealing;
    Alcotest.test_case "region lookup" `Quick test_region_lookup;
    QCheck_alcotest.to_alcotest qcheck_u32_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_u64_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_paged_matches_flat;
    QCheck_alcotest.to_alcotest qcheck_shared_pages_copy_on_write;
    Alcotest.test_case "member writes stay private across members and domains" `Quick
      test_member_writes_stay_private;
  ]
