(** Speck 64/128 lightweight block cipher (Beaulieu et al., the variant
    the paper benchmarks in Table 1): 64-bit blocks, 128-bit keys,
    27 rounds. Key expansion is exposed separately because Table 1 costs
    it separately. *)

type key
(** Expanded round-key schedule. *)

val block_size : int
(** 8 bytes. *)

val expand : string -> key
(** @raise Invalid_argument if the key is not 16 bytes. *)

val encrypt_block : key -> string -> string
(** Encrypt one 8-byte block. @raise Invalid_argument on bad length. *)

val decrypt_block : key -> string -> string
(** Decrypt one 8-byte block. @raise Invalid_argument on bad length. *)
