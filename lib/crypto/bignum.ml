(* Little-endian limbs of [limb_bits] bits, normalized so the top limb is
   non-zero; zero is the empty array. 26-bit limbs keep limb products
   (52 bits) plus carries well inside 63-bit native ints. *)

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

type t = int array

let zero : t = [||]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec loop n acc = if n = 0 then acc else loop (n lsr limb_bits) ((n land limb_mask) :: acc) in
  normalize (Array.of_list (List.rev (loop n [])))

let one = of_int 1
let two = of_int 2
let is_zero a = Array.length a = 0

let to_int a =
  let bits = Array.length a * limb_bits in
  if bits > 62 && Array.length a > 0 then begin
    (* allow values that still fit although the limb count is large *)
    let v = ref 0 in
    Array.iteri
      (fun i limb ->
        let shift = i * limb_bits in
        if limb <> 0 && shift >= 62 then failwith "Bignum.to_int: overflow";
        if shift < 62 then begin
          let contribution = limb lsl shift in
          if contribution lsr shift <> limb then failwith "Bignum.to_int: overflow";
          v := !v + contribution;
          if !v < 0 then failwith "Bignum.to_int: overflow"
        end)
      a;
    !v
  end
  else Array.fold_right (fun limb acc -> (acc lsl limb_bits) lor limb) a 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec loop i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else loop (i - 1)
    in
    loop (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_mask + 1;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec msb v acc = if v = 0 then acc else msb (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + msb top 0
  end

let test_bit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left a n =
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- out.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

let shift_right a n =
  if n = 0 then a
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let out = Array.make (la - limbs) 0 in
      for i = 0 to la - limbs - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if bits > 0 && i + limbs + 1 < la then
            (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
          else 0
        in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

(* Shift-and-subtract long division: adequate for the <=400-bit operands of
   secp160r1 ECDSA. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let shift = bit_length a - bit_length b in
    let q = ref zero and r = ref a in
    for i = shift downto 0 do
      let d = shift_left b i in
      if compare !r d >= 0 then begin
        r := sub !r d;
        q := add !q (shift_left one i)
      end
    done;
    (!q, !r)
  end

let rem a b = snd (divmod a b)
let is_even a = Array.length a = 0 || a.(0) land 1 = 0
let is_odd a = not (is_even a)

let of_bytes_be s =
  let acc = ref zero in
  String.iter (fun c -> acc := add (shift_left !acc 8) (of_int (Char.code c))) s;
  !acc

let to_bytes_be ?(pad = 0) a =
  let rec loop a acc =
    if is_zero a then acc
    else begin
      let byte = (if Array.length a > 0 then a.(0) else 0) land 0xff in
      loop (shift_right a 8) (Char.chr byte :: acc)
    end
  in
  let chars = loop a [] in
  let s = String.init (List.length chars) (List.nth chars) in
  if String.length s >= pad then s
  else String.make (pad - String.length s) '\x00' ^ s

let of_hex h =
  let h = if String.length h mod 2 = 1 then "0" ^ h else h in
  of_bytes_be (Hexutil.of_hex h)

let to_hex a =
  if is_zero a then "0"
  else begin
    let s = Hexutil.to_hex (to_bytes_be a) in
    (* trim a single leading zero nibble for canonical output *)
    if String.length s > 1 && s.[0] = '0' then String.sub s 1 (String.length s - 1)
    else s
  end
