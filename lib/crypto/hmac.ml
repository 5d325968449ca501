type kind = Kind_sha1 | Kind_sha256

type hash = {
  kind : kind;
  digest : string -> string;
  digest_size : int;
  block_size : int;
}

let sha1 =
  {
    kind = Kind_sha1;
    digest = Sha1.digest;
    digest_size = Sha1.digest_size;
    block_size = Sha1.block_size;
  }

let sha256 =
  {
    kind = Kind_sha256;
    digest = Sha256.digest;
    digest_size = Sha256.digest_size;
    block_size = Sha256.block_size;
  }

(* A keyed context stores the compression-function midstates reached after
   absorbing the ipad and opad blocks. Deriving them costs two compressions
   and one block-sized buffer; [mac_with] then pays neither — exactly
   the paper's "fixed" vs "per 64B block" HMAC cost split (Table 1), realized
   in the implementation. *)
type key_ctx =
  | Kc_sha1 of { inner : Sha1.ctx; outer : Sha1.ctx }
  | Kc_sha256 of { inner : Sha256.ctx; outer : Sha256.ctx }

(* Both pads are built in one block: the key (hashed first if longer than
   a block, per RFC 2104) zero-padded and xored with ipad, absorbed, then
   xored with ipad xor opad and absorbed again. *)
let key h ~key:k =
  let k = if String.length k > h.block_size then h.digest k else k in
  let pad = Bytes.make h.block_size '\x36' in
  String.iteri (fun i c -> Bytes.set pad i (Char.chr (Char.code c lxor 0x36))) k;
  let to_opad () =
    for i = 0 to h.block_size - 1 do
      Bytes.set pad i (Char.chr (Char.code (Bytes.get pad i) lxor (0x36 lxor 0x5c)))
    done
  in
  match h.kind with
  | Kind_sha1 ->
    let inner = Sha1.init () in
    Sha1.feed_bytes inner pad ~pos:0 ~len:h.block_size;
    to_opad ();
    let outer = Sha1.init () in
    Sha1.feed_bytes outer pad ~pos:0 ~len:h.block_size;
    Kc_sha1 { inner; outer }
  | Kind_sha256 ->
    let inner = Sha256.init () in
    Sha256.feed_bytes inner pad ~pos:0 ~len:h.block_size;
    to_opad ();
    let outer = Sha256.init () in
    Sha256.feed_bytes outer pad ~pos:0 ~len:h.block_size;
    Kc_sha256 { inner; outer }

let mac_parts kc parts =
  match kc with
  | Kc_sha1 { inner; outer } ->
    let i = Sha1.copy inner in
    List.iter (Sha1.feed i) parts;
    let o = Sha1.copy outer in
    Sha1.feed o (Sha1.finalize i);
    Sha1.finalize o
  | Kc_sha256 { inner; outer } ->
    let i = Sha256.copy inner in
    List.iter (Sha256.feed i) parts;
    let o = Sha256.copy outer in
    Sha256.feed o (Sha256.finalize i);
    Sha256.finalize o

let mac_with kc msg = mac_parts kc [ msg ]

let mac h ~key:k msg = mac_with (key h ~key:k) msg

let verify h ~key ~msg ~tag = Hexutil.equal_ct (mac h ~key msg) tag

let verify_with kc ~msg ~tag = Hexutil.equal_ct (mac_with kc msg) tag
