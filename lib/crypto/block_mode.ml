type cipher = { block_size : int; encrypt : string -> string }

let aes k = { block_size = Aes.block_size; encrypt = Aes.encrypt_block k }
let speck k = { block_size = Speck.block_size; encrypt = Speck.encrypt_block k }

let pad_pkcs7 block_size s =
  let pad = block_size - (String.length s mod block_size) in
  s ^ String.make pad (Char.chr pad)

let ctr_crypt c ~nonce s =
  let nlen = c.block_size - 8 in
  if nlen < 0 then invalid_arg "Block_mode.ctr_crypt: block size < 8";
  if String.length nonce <> nlen then invalid_arg "Block_mode.ctr_crypt: nonce";
  let n = String.length s in
  let out = Bytes.create n in
  let counter = Bytes.create 8 in
  let nblocks = (n + c.block_size - 1) / c.block_size in
  for b = 0 to nblocks - 1 do
    Bytes.set_int64_be counter 0 (Int64.of_int b);
    let keystream = c.encrypt (nonce ^ Bytes.to_string counter) in
    let off = b * c.block_size in
    let len = min c.block_size (n - off) in
    for i = 0 to len - 1 do
      Bytes.set out (off + i)
        (Char.chr (Char.code s.[off + i] lxor Char.code keystream.[i]))
    done
  done;
  Bytes.to_string out

let encode_length block_size n =
  (* big-endian length in one block *)
  String.init block_size (fun i ->
      let shift = 8 * (block_size - 1 - i) in
      if shift >= 63 then '\x00' else Char.chr ((n lsr shift) land 0xff))

let cbc_mac c msg =
  let prefixed = encode_length c.block_size (String.length msg) ^ msg in
  let padded = pad_pkcs7 c.block_size prefixed in
  let blocks = Hexutil.chunks c.block_size padded in
  List.fold_left
    (fun prev block -> c.encrypt (Hexutil.xor prev block))
    (String.make c.block_size '\x00')
    blocks

let cbc_mac_verify c ~msg ~tag = Hexutil.equal_ct (cbc_mac c msg) tag
