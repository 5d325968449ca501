(** HMAC (RFC 2104) over a pluggable hash.

    §4.1 of the paper authenticates attestation requests with SHA1-HMAC;
    the attestation *response* is likewise an HMAC over prover memory.

    For long-lived keys (the prover's K_attest lives for the device's whole
    deployment), derive a {!key_ctx} once and use {!mac_with}: the ipad and
    opad midstates are precomputed per key instead of being re-hashed on
    every message. *)

type hash = unit -> Md.ctx
(** A hash, as the way to start one: {!Sha1.init} or {!Sha256.init}.
    Both have 64-byte blocks ({!Md.block_size}). *)

val sha1 : hash
val sha256 : hash

type key_ctx
(** Precomputed per-key HMAC state: the hash midstates after absorbing the
    ipad and opad blocks. Immutable once built; safe to reuse across
    messages and across domains (each MAC works on copies). *)

val key : hash -> key:string -> key_ctx
(** [key h ~key] normalizes the key per RFC 2104 (hashing keys longer than
    the block size) and absorbs both pads once. *)

val mac_with : key_ctx -> string -> string
(** [mac_with kc msg] is HMAC(key, msg) for the key baked into [kc],
    without re-deriving the pads. [mac_with (key h ~key) msg = mac h ~key msg]. *)

val mac_parts : key_ctx -> string list -> string
(** [mac_parts kc parts] is [mac_with kc (String.concat "" parts)] without
    materializing the concatenation — the parts stream through the inner
    hash in order. *)

val mac : hash -> key:string -> string -> string
(** [mac h ~key msg] is HMAC_h(key, msg). Keys longer than the hash block
    are first hashed, as RFC 2104 requires. One-shot; prefer {!mac_with}
    when the key is reused. *)

val verify : hash -> key:string -> msg:string -> tag:string -> bool
(** Constant-time tag comparison. *)

val verify_with : key_ctx -> msg:string -> tag:string -> bool
(** {!verify} against a precomputed key context. *)
