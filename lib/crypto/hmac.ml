type hash = unit -> Md.ctx

let sha1 = Sha1.init
let sha256 = Sha256.init

(* A keyed context stores the compression-function midstates reached after
   absorbing the ipad and opad blocks. Deriving them costs two compressions
   and one block-sized buffer; [mac_with] then pays neither — exactly
   the paper's "fixed" vs "per 64B block" HMAC cost split (Table 1), realized
   in the implementation. *)
type key_ctx = { inner : Md.ctx; outer : Md.ctx }

(* Both pads are built in one block: the key (hashed first if longer than
   a block, per RFC 2104) zero-padded and xored with ipad, absorbed, then
   xored with ipad xor opad and absorbed again. *)
let key h ~key:k =
  let k = if String.length k > Md.block_size then Md.digest h k else k in
  let pad = Bytes.make Md.block_size '\x36' in
  String.iteri (fun i c -> Bytes.set pad i (Char.chr (Char.code c lxor 0x36))) k;
  let inner = h () in
  Md.feed_bytes inner pad ~pos:0 ~len:Md.block_size;
  for i = 0 to Md.block_size - 1 do
    Bytes.set pad i (Char.chr (Char.code (Bytes.get pad i) lxor (0x36 lxor 0x5c)))
  done;
  let outer = h () in
  Md.feed_bytes outer pad ~pos:0 ~len:Md.block_size;
  { inner; outer }

let mac_parts { inner; outer } parts =
  let i = Md.copy inner in
  List.iter (Md.feed i) parts;
  let o = Md.copy outer in
  Md.feed o (Md.finalize i);
  Md.finalize o

let mac_with kc msg = mac_parts kc [ msg ]

let mac h ~key:k msg = mac_with (key h ~key:k) msg

let verify h ~key ~msg ~tag = Hexutil.equal_ct (mac h ~key msg) tag

let verify_with kc ~msg ~tag = Hexutil.equal_ct (mac_with kc msg) tag
