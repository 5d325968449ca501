(** AES-128 block cipher (FIPS 197), from scratch.

    Table 1 of the paper reports separate costs for key expansion,
    per-block encryption and per-block decryption, so key expansion is a
    distinct, reusable step here too. *)

type key
(** Expanded 128-bit key schedule (valid for both directions). *)

val block_size : int
(** 16 bytes. *)

val expand : string -> key
(** [expand k] expands a 16-byte key.
    @raise Invalid_argument if [k] is not 16 bytes. *)

val encrypt_block : key -> string -> string
(** Encrypt one 16-byte block.
    @raise Invalid_argument on wrong block length. *)

val decrypt_block : key -> string -> string
(** Decrypt one 16-byte block.
    @raise Invalid_argument on wrong block length. *)
