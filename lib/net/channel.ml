type side = Verifier_side | Prover_side

type 'msg sent = { sent_at : float; src : side; payload : 'msg }

(* Growable buffers instead of newest-first lists: campaign runs append
   hundreds of thousands of entries, and List-based appends made every
   transcript/pending access an O(n) reverse (O(n^2) across a run). The
   transcript is append-only; pending entries are consumed possibly out
   of order (take-oldest-from-src skips the other side's messages), so
   its cells carry a [taken] flag and a head index skips the consumed
   prefix. A round keeps a frame or two in flight, so the pending window
   starts at four slots and grows only when frames pile up undelivered. *)
type 'msg cell = { entry : 'msg sent; mutable taken : bool }

type 'msg handle = {
  h_side : side;
  h_fn : 'msg -> unit;
  mutable h_active : bool;
  h_owner : 'msg t;
}

and 'msg t = {
  time : Simtime.t;
  trace : Trace.t;
  mutable transcript : 'msg sent array; (* first t_len slots are live *)
  mutable t_len : int;
  mutable pending : 'msg cell array; (* live window is [p_head, p_len) *)
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
    transcript = [||];
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

let push_transcript t entry =
  if t.t_len = Array.length t.transcript then begin
    let grown = Array.make (max 16 (2 * t.t_len)) entry in
    Array.blit t.transcript 0 grown 0 t.t_len;
    t.transcript <- grown
  end;
  t.transcript.(t.t_len) <- entry;
  t.t_len <- t.t_len + 1

let push_pending t entry =
  let cell = { entry; taken = false } in
  if t.p_len = Array.length t.pending then begin
    (* compact the consumed prefix before growing *)
    if t.p_head > 0 then begin
      Array.blit t.pending t.p_head t.pending 0 (t.p_len - t.p_head);
      t.p_len <- t.p_len - t.p_head;
      t.p_head <- 0
    end;
    if t.p_len = Array.length t.pending then begin
      let grown = Array.make (max 4 (2 * t.p_len)) cell in
      Array.blit t.pending 0 grown 0 t.p_len;
      t.pending <- grown
    end
  end;
  t.pending.(t.p_len) <- cell;
  t.p_len <- t.p_len + 1

let send t ~src payload =
  let entry = { sent_at = Simtime.now t.time; src; payload } in
  push_transcript t entry;
  push_pending t entry;
  Ra_obs.Registry.Counter.inc
    (match src with Verifier_side -> M.sent_verifier | Prover_side -> M.sent_prover);
  Trace.causal_instant t.trace ~cat:"net" ~labels:[ ("src", side_label src) ] "net.tx"

let transcript t = List.init t.t_len (fun i -> t.transcript.(i))

let transcript_length t = t.t_len

let transcript_from t ~pos =
  let pos = max 0 (min pos t.t_len) in
  List.init (t.t_len - pos) (fun i -> t.transcript.(pos + i))

let undelivered t =
  let out = ref [] in
  for i = t.p_len - 1 downto t.p_head do
    let cell = t.pending.(i) in
    if not cell.taken then out := cell.entry :: !out
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
  while t.p_head < t.p_len && t.pending.(t.p_head).taken do
    t.p_head <- t.p_head + 1
  done;
  if t.p_head = t.p_len then begin
    (* everything consumed: recycle the window *)
    t.p_head <- 0;
    t.p_len <- 0
  end

let take_oldest t ~src =
  skip_taken t;
  let rec scan i =
    if i >= t.p_len then None
    else begin
      let cell = t.pending.(i) in
      if (not cell.taken) && cell.entry.src = src then begin
        cell.taken <- true;
        skip_taken t;
        Some cell.entry
      end
      else scan (i + 1)
    end
  in
  scan t.p_head

let has_pending t ~src =
  let rec scan i =
    if i >= t.p_len then false
    else begin
      let cell = t.pending.(i) in
      ((not cell.taken) && cell.entry.src = src) || scan (i + 1)
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

let forward_impaired t imp ~dst entry =
  let dir =
    match dst with
    | Prover_side -> Impairment.To_prover
    | Verifier_side -> Impairment.To_verifier
  in
  let src = entry.src in
  let impaired ?(labels = []) event =
    Trace.causal_instant t.trace ~cat:"impairment"
      ~labels:(("dst", side_label dst) :: labels)
      event
  in
  match Impairment.decide imp ~dir with
  | Impairment.Pass -> deliver_kind t ~kind:Forwarded ~dst entry.payload
  | Impairment.Drop -> impaired "net.drop"
  | Impairment.Duplicate ->
    impaired "net.duplicate";
    deliver_kind t ~kind:Forwarded ~dst entry.payload;
    deliver_kind t ~kind:Forwarded ~dst entry.payload
  | Impairment.Reorder ->
    if has_pending t ~src then begin
      (* overtaken by the next message: back of the queue it goes *)
      impaired "net.reorder";
      push_pending t entry
    end
    else deliver_kind t ~kind:Forwarded ~dst entry.payload
  | Impairment.Corrupt { salt } ->
    (match t.mangle with
    | Some mangle ->
      impaired "net.corrupt";
      deliver_kind t ~kind:Forwarded ~dst (mangle entry.payload ~salt)
    | None -> impaired "net.corrupt_drop")
  | Impairment.Delay extra ->
    impaired ~labels:[ ("delay_s", Printf.sprintf "%.6f" extra) ] "net.delay";
    Simtime.advance_by t.time extra;
    deliver_kind t ~kind:Forwarded ~dst entry.payload

let forward_next t ~dst =
  let src = match dst with Verifier_side -> Prover_side | Prover_side -> Verifier_side in
  match take_oldest t ~src with
  | None -> false
  | Some e ->
    (match t.impairment with
    | None -> deliver_kind t ~kind:Forwarded ~dst e.payload
    | Some imp -> forward_impaired t imp ~dst e);
    true

let drop_next t ~src =
  match take_oldest t ~src with
  | None -> false
  | Some _ ->
    Ra_obs.Registry.Counter.inc M.dropped;
    Trace.causal_instant t.trace ~cat:"net"
      ~labels:[ ("src", side_label src) ]
      "net.adv_drop";
    true
