(* HMAC-DRBG and SplitMix64 determinism / stream properties. *)
open Ra_crypto

let test_drbg_deterministic () =
  let d1 = Drbg.create ~seed:"seed" () in
  let d2 = Drbg.create ~seed:"seed" () in
  Alcotest.(check string) "same seed, same stream" (Drbg.generate d1 32)
    (Drbg.generate d2 32);
  let d3 = Drbg.create ~seed:"other" () in
  Alcotest.(check bool) "different seed, different stream" true
    (Drbg.generate d3 32 <> Drbg.generate (Drbg.create ~seed:"seed" ()) 32)

let test_drbg_personalization () =
  let a = Drbg.create ~personalization:"a" ~seed:"s" () in
  let b = Drbg.create ~personalization:"b" ~seed:"s" () in
  Alcotest.(check bool) "personalization separates streams" true
    (Drbg.generate a 16 <> Drbg.generate b 16)

let test_drbg_advances () =
  let d = Drbg.create ~seed:"s" () in
  let x = Drbg.generate d 16 in
  let y = Drbg.generate d 16 in
  Alcotest.(check bool) "consecutive outputs differ" true (x <> y)

let test_drbg_reseed () =
  let d1 = Drbg.create ~seed:"s" () in
  let d2 = Drbg.create ~seed:"s" () in
  Drbg.reseed d1 "entropy";
  Alcotest.(check bool) "reseed changes stream" true
    (Drbg.generate d1 16 <> Drbg.generate d2 16)

let test_drbg_lengths () =
  let d = Drbg.create ~seed:"s" () in
  List.iter
    (fun n -> Alcotest.(check int) (Printf.sprintf "%d bytes" n) n
        (String.length (Drbg.generate d n)))
    [ 1; 16; 31; 32; 33; 100 ]

(* Pinned outputs: the HMAC-DRBG stream is part of every verifier's
   challenge sequence, so a change to any of these moves wire
   transcripts and fleet fingerprints. *)
let test_drbg_known_answers () =
  let hex = Hexutil.to_hex in
  Alcotest.(check string) "seed, 32 bytes"
    "945418b8333283ae441104ff0af8ab77c755914dbcd4971f9db434098d72cc5f"
    (hex (Drbg.generate (Drbg.create ~seed:"seed" ()) 32));
  let d = Drbg.create ~personalization:"p" ~seed:"entropy-input" () in
  Alcotest.(check string) "personalized, 16 bytes" "77b6d4194781921c9fadbb9063676a7e"
    (hex (Drbg.generate d 16));
  Alcotest.(check string) "then 40 bytes"
    "2c6ba50489cea75ff43defa7dd4532a31c3b54dae027c9ef8e8f034c56cfe32aaf8f0d27385a3e99"
    (hex (Drbg.generate d 40));
  Drbg.reseed d "more";
  Alcotest.(check string) "reseeded, 33 bytes"
    "a3a7a1068a8584dcae63d0c9095249319074458d8152fae683191b12b333ac76a9"
    (hex (Drbg.generate d 33));
  let v = Ra_core.Session.verifier (Ra_core.Session.create ()) in
  Alcotest.(check string) "first challenge of a default session"
    "a99d79a9a982000bc8a21b267a60b672"
    (hex (Ra_core.Verifier.make_request v).Ra_core.Message.challenge)

let test_drbg_rejected_generate () =
  let d = Drbg.create ~seed:"s" () and twin = Drbg.create ~seed:"s" () in
  Alcotest.check_raises "negative length" (Invalid_argument "Drbg.generate") (fun () ->
      ignore (Drbg.generate d (-1)));
  Alcotest.(check string) "stream unchanged" (Drbg.generate twin 16) (Drbg.generate d 16)

(* each step: reseed when given entropy, then draw 0-100 bytes *)
let qcheck_drbg_oracle =
  QCheck.Test.make ~name:"drbg = oracle: seeds, personalizations, reseeds" ~count:200
    QCheck.(
      triple (string_of_size Gen.(0 -- 200))
        (option (string_of_size Gen.(0 -- 100)))
        (small_list (pair (int_bound 100) (option (string_of_size Gen.(0 -- 100))))))
    (fun (seed, personalization, steps) ->
      let d = Drbg.create ?personalization ~seed () in
      let o = Drbg_oracle.create ?personalization ~seed () in
      List.for_all
        (fun (n, entropy) ->
          Option.iter
            (fun e ->
              Drbg.reseed d e;
              Drbg_oracle.reseed o e)
            entropy;
          Drbg.generate d n = Drbg_oracle.generate o n)
        steps)

(* A draw's HMACs run in contexts the DRBG owns, so a 16-byte draw
   allocates its result, four words, and nothing else. Building a keyed
   HMAC context per K change and copying midstates per MAC cost 909. *)
let test_drbg_draw_allocation () =
  let d = Drbg.create ~seed:"s" () in
  ignore (Drbg.generate d 16);
  let draws = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Drbg.generate d 16)
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int draws in
  if per_draw >= 16. then
    Alcotest.failf "a 16-byte draw allocated %.1f minor words (bound 16)" per_draw

let test_prng_deterministic () =
  let p1 = Prng.create 7L and p2 = Prng.create 7L in
  Alcotest.(check bool) "same stream" true
    (List.init 10 (fun _ -> Prng.next_int64 p1)
    = List.init 10 (fun _ -> Prng.next_int64 p2))

let test_prng_split () =
  let p = Prng.create 7L in
  let q = Prng.split p in
  Alcotest.(check bool) "split stream differs" true
    (Prng.next_int64 p <> Prng.next_int64 q)

let test_prng_bytes_known_answer () =
  (* byte i is the low byte of the i-th draw; server-flood's forged
     reports are these bytes, and no digest reads them *)
  Alcotest.(check string) "seed 7, 32 bytes"
    "d71c02cbda11f6fe6169eb2c4e30e6f8afc735f82fcd9dff30e9ba5f471d78ac"
    (Hexutil.to_hex (Prng.bytes (Prng.create 7L) 32))

(* Every draw kind at seeds around the edges of [int64], each from a
   fresh generator: the SplitMix64 streams feed memory images, impairment
   lanes and retry jitter, so any change here moves fleet fingerprints. *)
let prng_summary seed =
  let fresh () = Prng.create seed in
  let p = fresh () in
  let draws = List.init 3 (fun _ -> Printf.sprintf "%016Lx" (Prng.next_int64 p)) in
  let float = Prng.float (fresh ()) 1.0 in
  let int = Prng.int (fresh ()) 1000 in
  let bool = Prng.bool (fresh ()) in
  let p = fresh () in
  let q = Prng.split p in
  let split = Printf.sprintf "%016Lx/%016Lx" (Prng.next_int64 q) (Prng.next_int64 p) in
  let bytes = Hexutil.to_hex (Sha256.digest (Prng.bytes (fresh ()) 1024)) in
  Printf.sprintf "next=%s float=%h int=%d bool=%b split=%s bytes=%s"
    (String.concat "," draws) float int bool split bytes

let test_prng_known_answers () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check string) (Printf.sprintf "seed %Ld" seed) expected (prng_summary seed))
    [
      ( 0L,
        "next=e220a8397b1dcdaf,6e789e6aa1b965f4,06c45d188009454f \
         float=0x1.c4415072f63b9p-1 int=883 bool=true \
         split=a706dd2f4d197e6f/6e789e6aa1b965f4 \
         bytes=42760e41ab56fafa48f7f3fa48785e9e514ca015db406b5a1f0894334fa1183f" );
      ( 7L,
        "next=63cbe1e459320dd7,044c3cd7f43c661c,e6984080bab12a02 \
         float=0x1.8f2f879164c82p-2 int=621 bool=true \
         split=b8b4c2977eabce45/044c3cd7f43c661c \
         bytes=3625f21209001cb1fcf212f7cfbf3ae201e0decbe73ac554597fedfea9f07e61" );
      ( -1L,
        "next=e4d971771b652c20,e99ff867dbf682c9,382ff84cb27281e9 \
         float=0x1.c9b2e2ee36ca5p-1 int=984 bool=false \
         split=5dc20aa7b2a27137/e99ff867dbf682c9 \
         bytes=351daa69216c8f0a6348d48f8fe3d350a85cba151dba24680ae35acdb5c9c219" );
      ( Int64.min_int,
        "next=481ec0a212a9f3db,c46fa638a6309012,61a685ffc80a8140 \
         float=0x1.207b02884aa7cp-2 int=478 bool=true \
         split=86db92e833b0c1a0/c46fa638a6309012 \
         bytes=4d8d44782d2f30b7f83c26c6b643628652c911ddef9c558f8d68e190b3eee705" );
    ]

(* Minor words [f ()] allocates, after one warm-up call. *)
let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The state is an unboxed 8-byte buffer, so a draw boxes no [int64]: a
   1 KiB string allocates its 130 words and nothing else. Boxing one
   [int64] per byte cost 6,274 words. *)
let test_prng_bytes_allocation () =
  let p = Prng.create 7L in
  let words = minor_words (fun () -> ignore (Sys.opaque_identity (Prng.bytes p 1024))) in
  if words >= 256. then
    Alcotest.failf "Prng.bytes p 1024 allocated %.0f minor words (bound 256)" words

(* A 64 KiB RAM fill writes 4 KiB chunks, which go straight to the major
   heap; the draws behind them allocate nothing. The warm-up fill gives
   the RAM pages of its own (64 young 1 KiB copies), so the timed one
   measures the draws alone. It cost 393,336 minor words while each byte
   boxed an [int64]. *)
let test_ram_fill_allocation () =
  let d = Ra_mcu.Device.create ~ram_size:65536 ~key:"k" () in
  let words = minor_words (fun () -> Ra_mcu.Device.fill_ram_deterministic d ~seed:42L) in
  if words >= 1024. then
    Alcotest.failf "a 64 KiB RAM fill allocated %.0f minor words (bound 1024)" words

(* The case above may time a hit of the RAM-image memo. A fresh seed on
   every call misses it, so this case times the [Prng] draws themselves;
   the 64 KiB image goes straight to the major heap. *)
let test_fresh_ram_fill_allocation () =
  let d = Ra_mcu.Device.create ~ram_size:65536 ~key:"k" () in
  let seed = ref 1_000L in
  let words =
    minor_words (fun () ->
        seed := Int64.succ !seed;
        Ra_mcu.Device.fill_ram_deterministic d ~seed:!seed)
  in
  if words >= 1024. then
    Alcotest.failf "a 64 KiB RAM fill under a fresh seed allocated %.0f minor words (bound 1024)"
      words

(* Instantiations over a small pool of inputs, so that most of them hit
   the per-domain memo, some made without it ([create_secret]), with
   every DRBG kept alive: each step makes one more, then reseeds and
   draws from one of them. All of them run their HMACs in their domain's
   one scratch, and each must stay equal to its oracle twin whatever the
   others did. *)
let drbg_pool =
  [| ("s", None); ("s", Some "p"); ("t", None); ("t", Some "p"); ("u", Some "q"); ("", None) |]

let drbg_steps =
  QCheck.(
    small_list
      (quad
         (int_bound (Array.length drbg_pool - 1))
         bool
         (option (string_of_size Gen.(0 -- 20)))
         (int_bound 40)))

let drbg_steps_match_oracle steps =
  let live = ref [] in
  let step_ok (i, secret, entropy, n) =
    let seed, personalization = drbg_pool.(i) in
    let d =
      if secret then
        Drbg.create_secret ~personalization:(Option.value ~default:"" personalization) ~seed
      else Drbg.create ?personalization ~seed ()
    in
    live := (d, Drbg_oracle.create ?personalization ~seed ()) :: !live;
    let d, o = List.nth !live (n mod List.length !live) in
    Option.iter
      (fun e ->
        Drbg.reseed d e;
        Drbg_oracle.reseed o e)
      entropy;
    Drbg.generate d n = Drbg_oracle.generate o n
  in
  List.for_all step_ok steps
  && List.for_all (fun (d, o) -> Drbg.generate d 16 = Drbg_oracle.generate o 16) !live

let qcheck_drbg_memo =
  QCheck.Test.make ~name:"drbg memo = oracle: interleaved instantiations" ~count:100
    drbg_steps drbg_steps_match_oracle

(* The same on two domains at once, each drawing through its own scratch. *)
let qcheck_drbg_two_domains =
  QCheck.Test.make ~name:"drbg = oracle: states drawn on two domains at once" ~count:20
    (QCheck.pair drbg_steps drbg_steps)
    (fun (mine, theirs) ->
      let other = Domain.spawn (fun () -> drbg_steps_match_oracle theirs) in
      let ok = drbg_steps_match_oracle mine in
      Domain.join other && ok)

(* RAM fills interleaved over (seed, size) pairs, each twice in a row
   so that the second hits the one-image memo, and a seed returning at
   another size: every RAM holds the first [size] bytes of its seed's
   stream. *)
let test_ram_fill_memo () =
  let fills = [ (42L, 1024); (42L, 4096); (7L, 4096); (42L, 1024); (7L, 2048) ] in
  List.iter
    (fun (seed, size) ->
      for _ = 1 to 2 do
        let d = Ra_mcu.Device.create ~ram_size:size ~key:"k" () in
        Ra_mcu.Device.fill_ram_deterministic d ~seed;
        Alcotest.(check string)
          (Printf.sprintf "seed %Ld, %d B" seed size)
          (Hexutil.to_hex (Prng.bytes (Prng.create seed) size))
          (Hexutil.to_hex
             (Ra_mcu.Memory.read_bytes (Ra_mcu.Device.memory d)
                (Ra_mcu.Device.attested_base d) size))
      done)
    fills

(* The scratch is wiped before every call returns, so after a draw from
   a state whose seed holds a secret it holds nothing of that state: it
   is byte-for-byte the scratch of a domain that never drew, and no
   8-byte window of any K the state went through, of either of its pads,
   or of V is found in it. *)
let test_drbg_scratch_wiped () =
  let unused = Domain.join (Domain.spawn Drbg.scratch_residue) in
  let seed = "private key 0x5eed, in clear" and personalization = "nonce" in
  let d = Drbg.create_secret ~personalization ~seed in
  let o = Drbg_oracle.create ~personalization ~seed () in
  let k0 = o.Drbg_oracle.k in
  Alcotest.(check string) "draw = oracle" (Drbg_oracle.generate o 16) (Drbg.generate d 16);
  let residue = Drbg.scratch_residue () in
  Alcotest.(check bool) "the scratch is that of a domain that never drew" true (residue = unused);
  let holds window =
    let n = String.length window in
    let rec at i = i + n <= String.length residue && (String.sub residue i n = window || at (i + 1)) in
    at 0
  in
  let block k = k ^ String.make (64 - String.length k) '\x00' in
  let xor x s = String.map (fun c -> Char.chr (Char.code c lxor x)) s in
  List.iter
    (fun (name, secret) ->
      for i = 0 to String.length secret - 8 do
        if holds (String.sub secret i 8) then
          Alcotest.failf "the scratch holds bytes %d-%d of %s" i (i + 7) name
      done)
    [
      ("the instantiated K", k0);
      ("the K after the draw", o.Drbg_oracle.k);
      ("K xor ipad", String.sub (xor 0x36 (block o.Drbg_oracle.k)) 0 32);
      ("K xor opad", String.sub (xor 0x5c (block o.Drbg_oracle.k)) 0 32);
      ("V", o.Drbg_oracle.v);
    ]

let qcheck_prng_int_bounds =
  QCheck.Test.make ~name:"prng: int respects bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let qcheck_prng_float_bounds =
  QCheck.Test.make ~name:"prng: float respects bounds" ~count:500 QCheck.int64
    (fun seed ->
      let p = Prng.create seed in
      let v = Prng.float p 3.5 in
      v >= 0.0 && v < 3.5)

let qcheck_prng_bytes_len =
  QCheck.Test.make ~name:"prng: bytes length" ~count:100
    QCheck.(pair int64 (int_range 0 100))
    (fun (seed, n) -> String.length (Prng.bytes (Prng.create seed) n) = n)

(* [Prng] against the boxed generator in test/oracle/, draw for draw:
   random seeds and the edges of [int64], each driving one generator
   through [next_int64] draws interleaved with [bytes] draws of 0-4 KiB *)
let qcheck_prng_oracle =
  QCheck.Test.make ~name:"prng = oracle" ~count:200
    QCheck.(
      pair
        (choose [ int64; oneofl [ 0L; -1L; Int64.min_int; Int64.max_int ] ])
        (small_list (option (int_bound 4096))))
    (fun (seed, steps) ->
      let p = Prng.create seed and o = Prng_oracle.create seed in
      List.for_all
        (function
          | None -> Prng.next_int64 p = Prng_oracle.next_int64 o
          | Some n -> Prng.bytes p n = Prng_oracle.bytes o n)
        steps)

(* A state is V and two bare 8-word chaining values: 224 B on a 64-bit
   host, held by every fleet member's verifier. With a full SHA-256
   context per midstate, schedule ring and block buffer included, it
   was 736 B. *)
let test_drbg_state_size () =
  let bytes = Obj.reachable_words (Obj.repr (Drbg.create ~seed:"size" ())) * (Sys.word_size / 8) in
  if bytes > 256 then Alcotest.failf "a fresh Drbg.t reaches %d B (bound 256 B)" bytes

let tests =
  [
    Alcotest.test_case "drbg deterministic" `Quick test_drbg_deterministic;
    Alcotest.test_case "drbg personalization" `Quick test_drbg_personalization;
    Alcotest.test_case "drbg advances" `Quick test_drbg_advances;
    Alcotest.test_case "drbg reseed" `Quick test_drbg_reseed;
    Alcotest.test_case "drbg lengths" `Quick test_drbg_lengths;
    Alcotest.test_case "drbg known answers" `Quick test_drbg_known_answers;
    Alcotest.test_case "drbg: a rejected generate leaves the stream" `Quick
      test_drbg_rejected_generate;
    QCheck_alcotest.to_alcotest qcheck_drbg_oracle;
    Alcotest.test_case "drbg: a 16-byte draw allocates only its output" `Quick
      test_drbg_draw_allocation;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split" `Quick test_prng_split;
    Alcotest.test_case "prng bytes known answer" `Quick test_prng_bytes_known_answer;
    Alcotest.test_case "prng known answers at edge seeds" `Quick test_prng_known_answers;
    Alcotest.test_case "prng: 1 KiB of bytes boxes no draw" `Quick
      test_prng_bytes_allocation;
    Alcotest.test_case "prng: 64 KiB RAM fill boxes no draw" `Quick
      test_ram_fill_allocation;
    QCheck_alcotest.to_alcotest qcheck_prng_int_bounds;
    QCheck_alcotest.to_alcotest qcheck_prng_float_bounds;
    QCheck_alcotest.to_alcotest qcheck_prng_bytes_len;
    Alcotest.test_case "prng: 64 KiB RAM fill under a fresh seed boxes no draw" `Quick
      test_fresh_ram_fill_allocation;
    QCheck_alcotest.to_alcotest qcheck_drbg_memo;
    Alcotest.test_case "ram fill memo = Prng stream" `Quick test_ram_fill_memo;
    QCheck_alcotest.to_alcotest qcheck_drbg_two_domains;
    Alcotest.test_case "drbg: a secret draw leaves nothing in the scratch" `Quick
      test_drbg_scratch_wiped;
    QCheck_alcotest.to_alcotest qcheck_prng_oracle;
    Alcotest.test_case "drbg: a fresh state holds <= 256 B" `Quick test_drbg_state_size;
  ]
