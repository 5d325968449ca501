(** Generic block-cipher modes: CBC-MAC and CTR. §3.1 of the paper notes
    a prover MAC is "usually implemented as either a CBC-based function
    based on a block cipher (such as AES) or a keyed hash function"; this
    module provides the former for both AES-128 and Speck 64/128, and the
    counter-mode keystream the secure-session record layer encrypts with. *)

type cipher = { block_size : int; encrypt : string -> string (* one block *) }
(** A block cipher with its key already expanded. Both modes only run
    the cipher forwards. *)

val aes : Aes.key -> cipher
val speck : Speck.key -> cipher

val pad_pkcs7 : int -> string -> string
(** Pad to a multiple of the block size; always adds at least one byte.
    {!cbc_mac} pads its length-prefixed message this way. *)

val ctr_crypt : cipher -> nonce:string -> string -> string
(** Counter-mode keystream XOR: block [i] of the keystream is
    [encrypt (nonce ^ u64_be i)]. Encryption and decryption are the same
    operation, total on any input length — there is no padding to leak.
    [nonce] must be [block_size - 8] bytes and must never repeat under
    one key (the record layer uses the record sequence number).
    @raise Invalid_argument if [nonce] has the wrong length. *)

val cbc_mac : cipher -> string -> string
(** Length-prepended CBC-MAC (zero IV): prefixing the message length makes
    plain CBC-MAC secure for variable-length messages. Tag is one block. *)

val cbc_mac_verify : cipher -> msg:string -> tag:string -> bool
(** Constant-time tag check. *)
