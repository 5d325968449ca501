type side = Verifier_side | Prover_side

type 'msg sent = { sent_at : float; src : side; payload : 'msg }

(* The transcript is kept as columns: each frame's payload, its send
   time in an unboxed float array and its side as one byte. A frame then
   costs its payload and 17 B of column slots; a ['msg sent] record with
   a boxed time would add 48 B, and every fleet member keeps its whole
   wire.

   The columns live in blocks of [block] frames, each block one array
   per column. The first block starts at four slots and doubles up to
   [block]; after it, whole blocks are added and nothing is copied. So no
   column is ever a large heap block: OCaml 5 reports peak heap as the
   peak of its small-object pools plus the peak of its large blocks, and
   flat columns that double leave a large block behind at every doubling
   (DESIGN.md §5 has the measurements).

   Pending frames are transcript positions, consumed possibly out of
   order (take-oldest-from-src skips the other side's frames): a taken
   slot is overwritten with [-1], and a head index skips the consumed
   prefix. A round keeps a frame or two in flight, so the pending window
   starts at four slots and grows only when frames pile up
   undelivered. *)
type 'msg block = {
  payloads : 'msg array;
  times : Float.Array.t;
  sides : Bytes.t; (* side_code of each frame's source *)
}

type 'msg handle = {
  h_side : side;
  h_fn : 'msg -> unit;
  mutable h_active : bool;
  h_owner : 'msg t;
}

and 'msg t = {
  time : Simtime.t;
  trace : Trace.t;
  mutable blocks : 'msg block array; (* frame i in block i / block *)
  mutable t_len : int;
  mutable pending : int array; (* live window [p_head, p_len); -1 = taken *)
  mutable p_len : int;
  mutable p_head : int;
  mutable rx_verifier : 'msg handle list; (* newest-attached first *)
  mutable rx_prover : 'msg handle list;
  mutable impairment : Impairment.t option;
  mutable mangle : ('msg -> salt:int -> 'msg) option;
}

(* Handles are created once at module init; per-event cost is one
   atomic add. *)
module M = struct
  open Ra_obs.Registry

  let sent_verifier = Counter.get ~labels:[ ("side", "verifier") ] "ra_channel_sent_total"
  let sent_prover = Counter.get ~labels:[ ("side", "prover") ] "ra_channel_sent_total"

  let delivered kind =
    Counter.get ~labels:[ ("kind", kind) ] "ra_channel_delivered_total"

  let delivered_forwarded = delivered "forwarded"
  let delivered_injected = delivered "injected"
  let delivered_replayed = delivered "replayed"
  let dropped = Counter.get "ra_channel_dropped_total"
  let lost = Counter.get "ra_channel_lost_total"
end

let side_label = function Verifier_side -> "verifier" | Prover_side -> "prover"

let create time trace =
  {
    time;
    trace;
    blocks = [||];
    t_len = 0;
    pending = [||];
    p_len = 0;
    p_head = 0;
    rx_verifier = [];
    rx_prover = [];
    impairment = None;
    mangle = None;
  }

(* ---- endpoints ---- *)

module Endpoint = struct
  type nonrec 'msg handle = 'msg handle

  let stack t side =
    match side with Verifier_side -> t.rx_verifier | Prover_side -> t.rx_prover

  let set_stack t side v =
    match side with Verifier_side -> t.rx_verifier <- v | Prover_side -> t.rx_prover <- v

  let attach t side f =
    let h = { h_side = side; h_fn = f; h_active = true; h_owner = t } in
    set_stack t side (h :: stack t side);
    h

  let detach h =
    if h.h_active then begin
      h.h_active <- false;
      let t = h.h_owner in
      set_stack t h.h_side (List.filter (fun h' -> h' != h) (stack t h.h_side))
    end

  let is_attached h = h.h_active
  let side h = h.h_side
end

(* Dispatch resolves the newest {e still-active} handle, and re-checks
   activity at invocation time. Handlers detach/attach themselves and
   siblings from inside receive callbacks (secure-session teardown does
   exactly that), so correctness must not depend on [detach]'s list
   surgery alone: skipping on [h_active] keeps a half-detached handle
   from swallowing a frame, and the invocation-time re-resolve hands the
   frame to the handler below instead of a dead closure. *)
let rec first_active = function
  | [] -> None
  | h :: rest -> if h.h_active then Some h else first_active rest

(* ---- growable buffers ---- *)

let side_code = function Verifier_side -> '\000' | Prover_side -> '\001'

(* 128 slots: the largest array that OCaml 5 keeps in its small-object
   pools *)
let block_bits = 7
let block = 1 lsl block_bits
let offset i = i land (block - 1)
let block_of t i = t.blocks.(i lsr block_bits)
let payload_at t i = (block_of t i).payloads.(offset i)
let sent_at t i = Float.Array.get (block_of t i).times (offset i)

let side_at t i =
  if Bytes.get (block_of t i).sides (offset i) = '\000' then Verifier_side
  else Prover_side

let new_block cap payload =
  { payloads = Array.make cap payload; times = Float.Array.create cap; sides = Bytes.create cap }

let push_transcript t ~src payload =
  let n = t.t_len in
  let b = n lsr block_bits and off = offset n in
  if off = 0 then begin
    let fresh = new_block (if b = 0 then 4 else block) payload in
    if b = Array.length t.blocks then begin
      (* slots past [b] hold [fresh] only until their own block comes *)
      let blocks = Array.make (max 1 (2 * b)) fresh in
      Array.blit t.blocks 0 blocks 0 b;
      t.blocks <- blocks
    end;
    t.blocks.(b) <- fresh
  end
  else if off = Array.length t.blocks.(b).payloads then begin
    (* only the first block is ever short: double it *)
    let full = t.blocks.(b) and grown = new_block (2 * off) payload in
    Array.blit full.payloads 0 grown.payloads 0 off;
    Float.Array.blit full.times 0 grown.times 0 off;
    Bytes.blit full.sides 0 grown.sides 0 off;
    t.blocks.(b) <- grown
  end;
  let blk = t.blocks.(b) in
  blk.payloads.(off) <- payload;
  Float.Array.set blk.times off (Simtime.now t.time);
  Bytes.set blk.sides off (side_code src);
  t.t_len <- n + 1;
  n

let push_pending t pos =
  if t.p_len = Array.length t.pending then begin
    (* compact the consumed prefix before growing *)
    if t.p_head > 0 then begin
      Array.blit t.pending t.p_head t.pending 0 (t.p_len - t.p_head);
      t.p_len <- t.p_len - t.p_head;
      t.p_head <- 0
    end;
    if t.p_len = Array.length t.pending then begin
      let grown = Array.make (max 4 (2 * t.p_len)) (-1) in
      Array.blit t.pending 0 grown 0 t.p_len;
      t.pending <- grown
    end
  end;
  t.pending.(t.p_len) <- pos;
  t.p_len <- t.p_len + 1

let send t ~src payload =
  push_pending t (push_transcript t ~src payload);
  Ra_obs.Registry.Counter.inc
    (match src with Verifier_side -> M.sent_verifier | Prover_side -> M.sent_prover);
  Trace.causal_instant t.trace ~cat:"net" ~labels:[ ("src", side_label src) ] "net.tx"

let entry t i = { sent_at = sent_at t i; src = side_at t i; payload = payload_at t i }

let transcript_length t = t.t_len

let fold_range t ~lo ~hi f acc =
  let acc = ref acc in
  for i = max 0 lo to min hi t.t_len - 1 do
    acc := f !acc (sent_at t i) (side_at t i) (payload_at t i)
  done;
  !acc

(* built back to front: [List.init] over 10,000 entries builds its list
   twice *)
let transcript_from t ~pos =
  let pos = max 0 pos in
  let rec build i acc = if i < pos then acc else build (i - 1) (entry t i :: acc) in
  build (t.t_len - 1) []

let transcript t = transcript_from t ~pos:0

let undelivered t =
  let out = ref [] in
  for i = t.p_len - 1 downto t.p_head do
    let pos = t.pending.(i) in
    if pos >= 0 then out := entry t pos :: !out
  done;
  !out

type origin = Injected | Replayed
type delivery_kind = Forwarded | Adversarial of origin

let deliver_kind t ~kind ~dst payload =
  match first_active (Endpoint.stack t dst) with
  | None ->
    Ra_obs.Registry.Counter.inc M.lost;
    Trace.causal_instant t.trace ~cat:"net"
      ~labels:[ ("dst", side_label dst) ]
      "net.lost"
  | Some h ->
    let counter, label =
      match kind with
      | Forwarded -> (M.delivered_forwarded, "forwarded")
      | Adversarial Injected -> (M.delivered_injected, "injected")
      | Adversarial Replayed -> (M.delivered_replayed, "replayed")
    in
    Ra_obs.Registry.Counter.inc counter;
    Trace.causal_span t.trace ~cat:"net"
      ~labels:[ ("kind", label); ("dst", side_label dst) ]
      "net.deliver"
      (fun () ->
        Trace.with_span t.trace ~labels:[ ("kind", label) ] "channel.deliver"
          (fun () ->
            let target =
              if h.h_active then Some h else first_active (Endpoint.stack t dst)
            in
            match target with Some h -> h.h_fn payload | None -> ()))

let deliver t ~origin ~dst payload = deliver_kind t ~kind:(Adversarial origin) ~dst payload

let skip_taken t =
  while t.p_head < t.p_len && t.pending.(t.p_head) < 0 do
    t.p_head <- t.p_head + 1
  done;
  if t.p_head = t.p_len then begin
    (* everything consumed: recycle the window *)
    t.p_head <- 0;
    t.p_len <- 0
  end

(* The transcript position of the oldest pending frame from [src],
   marked taken; -1 if there is none. *)
let take_oldest t ~src =
  skip_taken t;
  let rec scan i =
    if i >= t.p_len then -1
    else begin
      let pos = t.pending.(i) in
      if pos >= 0 && side_at t pos = src then begin
        t.pending.(i) <- -1;
        skip_taken t;
        pos
      end
      else scan (i + 1)
    end
  in
  scan t.p_head

let has_pending t ~src =
  let rec scan i =
    if i >= t.p_len then false
    else begin
      let pos = t.pending.(i) in
      (pos >= 0 && side_at t pos = src) || scan (i + 1)
    end
  in
  scan t.p_head

(* ---- impairment ---- *)

let set_impairment t ?mangle imp =
  t.impairment <- imp;
  t.mangle <- mangle

let mangle_string s ~salt =
  let len = String.length s in
  if len = 0 then s
  else begin
    let i = salt mod len in
    let mask = 1 + ((salt lsr 8) mod 255) in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
    Bytes.unsafe_to_string b
  end

let forward_impaired t imp ~dst pos =
  let dir =
    match dst with
    | Prover_side -> Impairment.To_prover
    | Verifier_side -> Impairment.To_verifier
  in
  let payload = payload_at t pos in
  let impaired ?(labels = []) event =
    Trace.causal_instant t.trace ~cat:"impairment"
      ~labels:(("dst", side_label dst) :: labels)
      event
  in
  match Impairment.decide imp ~dir with
  | Impairment.Pass -> deliver_kind t ~kind:Forwarded ~dst payload
  | Impairment.Drop -> impaired "net.drop"
  | Impairment.Duplicate ->
    impaired "net.duplicate";
    deliver_kind t ~kind:Forwarded ~dst payload;
    deliver_kind t ~kind:Forwarded ~dst payload
  | Impairment.Reorder ->
    if has_pending t ~src:(side_at t pos) then begin
      (* overtaken by the next message: back of the queue it goes *)
      impaired "net.reorder";
      push_pending t pos
    end
    else deliver_kind t ~kind:Forwarded ~dst payload
  | Impairment.Corrupt { salt } ->
    (match t.mangle with
    | Some mangle ->
      impaired "net.corrupt";
      deliver_kind t ~kind:Forwarded ~dst (mangle payload ~salt)
    | None -> impaired "net.corrupt_drop")
  | Impairment.Delay extra ->
    impaired ~labels:[ ("delay_s", Printf.sprintf "%.6f" extra) ] "net.delay";
    Simtime.advance_by t.time extra;
    deliver_kind t ~kind:Forwarded ~dst payload

let forward_next t ~dst =
  let src = match dst with Verifier_side -> Prover_side | Prover_side -> Verifier_side in
  let pos = take_oldest t ~src in
  if pos < 0 then false
  else begin
    (match t.impairment with
    | None -> deliver_kind t ~kind:Forwarded ~dst (payload_at t pos)
    | Some imp -> forward_impaired t imp ~dst pos);
    true
  end

let drop_next t ~src =
  if take_oldest t ~src < 0 then false
  else begin
    Ra_obs.Registry.Counter.inc M.dropped;
    Trace.causal_instant t.trace ~cat:"net"
      ~labels:[ ("src", side_label src) ]
      "net.adv_drop";
    true
  end
