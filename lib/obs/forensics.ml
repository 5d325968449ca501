type retry_policy = {
  cp_max_attempts : int;
  cp_base_timeout_s : float;
  cp_multiplier : float;
  cp_max_timeout_s : float;
  cp_jitter : float;
}

type kind = Failure | Slowest

type capsule = {
  cap_kind : kind;
  cap_member : int;
  cap_name : string;
  cap_sweep_seed : int64;
  cap_losses : float list;
  cap_policies : (string * retry_policy) list;
  cap_rounds_per_member : int;
  cap_cell : int;
  cap_loss : float;
  cap_policy : string;
  cap_round : int;
  cap_workload : string;
  cap_imp_seed : int64;
  cap_prior_sweeps : int;
  cap_started_at : float;
  cap_elapsed_s : float;
  cap_attempts : int;
  cap_verdict : Json.t;
  cap_reason : string;
  cap_trace_id : int option;
  cap_phase : string option;
  cap_wire_digest : string;
  cap_config : string;
}

let kind_label = function Failure -> "failure" | Slowest -> "slowest"

let kind_of_label = function
  | "failure" -> Some Failure
  | "slowest" -> Some Slowest
  | _ -> None

(* --- capture ring --- *)

type t = { ring : capsule Recorder.t }

let captured_total kind =
  Registry.Counter.get
    ~labels:[ ("kind", kind_label kind) ]
    "ra_forensics_capsules_total"

let create ?(capacity = 256) () = { ring = Recorder.create ~capacity }

let capture t cap =
  Recorder.push t.ring cap;
  Registry.Counter.inc (captured_total cap.cap_kind)

let capsules t = Recorder.to_list t.ring
let latest t = Recorder.latest t.ring
let length t = Recorder.length t.ring
let evicted t = Recorder.evicted t.ring
let clear t = Recorder.clear t.ring

(* --- JSON round-trip --- *)

(* 64-bit seeds don't survive a JSON float; encode as decimal strings
   (the [Verdict.to_json] convention). *)
let i64 v = Json.Str (Int64.to_string v)
let num n = Json.Num n
let int n = Json.Num (float_of_int n)

let opt_str = function None -> Json.Null | Some s -> Json.Str s
let opt_int = function None -> Json.Null | Some n -> int n

let policy_to_json (name, p) =
  Json.Obj
    [
      ("name", Json.Str name);
      ("max_attempts", int p.cp_max_attempts);
      ("base_timeout_s", num p.cp_base_timeout_s);
      ("multiplier", num p.cp_multiplier);
      ("max_timeout_s", num p.cp_max_timeout_s);
      ("jitter", num p.cp_jitter);
    ]

let capsule_to_json c =
  Json.Obj
    [
      ("kind", Json.Str (kind_label c.cap_kind));
      ("member", int c.cap_member);
      ("name", Json.Str c.cap_name);
      ("sweep_seed", i64 c.cap_sweep_seed);
      ("losses", Json.Arr (List.map num c.cap_losses));
      ("policies", Json.Arr (List.map policy_to_json c.cap_policies));
      ("rounds_per_member", int c.cap_rounds_per_member);
      ("cell", int c.cap_cell);
      ("loss", num c.cap_loss);
      ("policy", Json.Str c.cap_policy);
      ("round", int c.cap_round);
      ("workload", Json.Str c.cap_workload);
      ("imp_seed", i64 c.cap_imp_seed);
      ("prior_sweeps", int c.cap_prior_sweeps);
      ("started_at", num c.cap_started_at);
      ("elapsed_s", num c.cap_elapsed_s);
      ("attempts", int c.cap_attempts);
      ("verdict", c.cap_verdict);
      ("reason", Json.Str c.cap_reason);
      ("trace_id", opt_int c.cap_trace_id);
      ("phase", opt_str c.cap_phase);
      ("wire_digest", Json.Str c.cap_wire_digest);
      ("config", Json.Str c.cap_config);
    ]

let ( let* ) = Option.bind

let member_str name j = Option.bind (Json.member name j) Json.as_string
let member_num name j = Option.bind (Json.member name j) Json.as_float

let member_int name j =
  let* f = member_num name j in
  Some (int_of_float f)

let member_i64 name j =
  let* s = member_str name j in
  Int64.of_string_opt s

let member_opt conv name j =
  match Json.member name j with
  | None | Some Json.Null -> Some None
  | Some v -> (
    match conv v with Some x -> Some (Some x) | None -> None)

let policy_of_json j =
  let* name = member_str "name" j in
  let* cp_max_attempts = member_int "max_attempts" j in
  let* cp_base_timeout_s = member_num "base_timeout_s" j in
  let* cp_multiplier = member_num "multiplier" j in
  let* cp_max_timeout_s = member_num "max_timeout_s" j in
  let* cp_jitter = member_num "jitter" j in
  Some
    ( name,
      { cp_max_attempts; cp_base_timeout_s; cp_multiplier; cp_max_timeout_s;
        cp_jitter } )

let all_some xs =
  List.fold_right
    (fun x acc ->
      let* x = x in
      let* acc = acc in
      Some (x :: acc))
    xs (Some [])

let capsule_of_json j =
  let* kind = member_str "kind" j in
  let* cap_kind = kind_of_label kind in
  let* cap_member = member_int "member" j in
  let* cap_name = member_str "name" j in
  let* cap_sweep_seed = member_i64 "sweep_seed" j in
  let* losses = Json.member "losses" j in
  let* cap_losses =
    match losses with
    | Json.Arr xs -> all_some (List.map Json.as_float xs)
    | _ -> None
  in
  let* policies = Json.member "policies" j in
  let* cap_policies =
    match policies with
    | Json.Arr xs -> all_some (List.map policy_of_json xs)
    | _ -> None
  in
  let* cap_rounds_per_member = member_int "rounds_per_member" j in
  let* cap_cell = member_int "cell" j in
  let* cap_loss = member_num "loss" j in
  let* cap_policy = member_str "policy" j in
  let* cap_round = member_int "round" j in
  (* capsules captured before workloads existed are attest sweeps *)
  let* cap_workload =
    match Json.member "workload" j with
    | None | Some Json.Null -> Some "attest"
    | Some v -> Json.as_string v
  in
  let* cap_imp_seed = member_i64 "imp_seed" j in
  let* cap_prior_sweeps = member_int "prior_sweeps" j in
  let* cap_started_at = member_num "started_at" j in
  let* cap_elapsed_s = member_num "elapsed_s" j in
  let* cap_attempts = member_int "attempts" j in
  let* cap_verdict = Json.member "verdict" j in
  let* cap_reason = member_str "reason" j in
  let* cap_trace_id =
    member_opt (fun v -> Option.map int_of_float (Json.as_float v)) "trace_id" j
  in
  let* cap_phase = member_opt Json.as_string "phase" j in
  let* cap_wire_digest = member_str "wire_digest" j in
  let* cap_config = member_str "config" j in
  Some
    {
      cap_kind; cap_member; cap_name; cap_sweep_seed; cap_losses; cap_policies;
      cap_rounds_per_member; cap_cell; cap_loss; cap_policy; cap_round;
      cap_workload; cap_imp_seed; cap_prior_sweeps; cap_started_at; cap_elapsed_s;
      cap_attempts; cap_verdict; cap_reason; cap_trace_id; cap_phase;
      cap_wire_digest; cap_config;
    }

let capsules_jsonl caps =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      Buffer.add_string buf (Json.to_string (capsule_to_json c));
      Buffer.add_char buf '\n')
    caps;
  Buffer.contents buf

(* --- triage --- *)

let dominant_phase samples ~trace_id =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.Profiler.ps_trace_id = Some trace_id then begin
        let prev =
          Option.value ~default:0L (Hashtbl.find_opt totals s.Profiler.ps_phase)
        in
        Hashtbl.replace totals s.Profiler.ps_phase
          (Int64.add prev s.Profiler.ps_cycles)
      end)
    samples;
  Hashtbl.fold
    (fun phase cycles best ->
      match best with
      | None -> Some (phase, cycles)
      | Some (bp, bc) ->
        (* most cycles wins; ties break to the lexicographically
           smallest phase so the answer is set-deterministic *)
        if cycles > bc || (cycles = bc && String.compare phase bp < 0) then
          Some (phase, cycles)
        else best)
    totals None
  |> Option.map fst

type signature = {
  sig_reason : string;
  sig_impairment : string;
  sig_phase : string;
}

type diagnosis = {
  dg_signature : signature;
  dg_count : int;
  dg_share_pct : float;
  dg_example : capsule;
}

let signature_of c =
  {
    sig_reason = c.cap_reason;
    sig_impairment =
      Printf.sprintf "loss=%.0f%% policy=%s" (100.0 *. c.cap_loss) c.cap_policy;
    sig_phase = Option.value ~default:"-" c.cap_phase;
  }

let compare_signature a b =
  match String.compare a.sig_reason b.sig_reason with
  | 0 -> (
    match String.compare a.sig_impairment b.sig_impairment with
    | 0 -> String.compare a.sig_phase b.sig_phase
    | c -> c)
  | c -> c

let triage caps =
  let caps = List.filter (fun c -> c.cap_kind = Failure) caps in
  let total = List.length caps in
  if total = 0 then []
  else begin
    let buckets : (signature, int * capsule) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun c ->
        let s = signature_of c in
        match Hashtbl.find_opt buckets s with
        | None -> Hashtbl.replace buckets s (1, c)
        | Some (n, first) -> Hashtbl.replace buckets s (n + 1, first))
      caps;
    Hashtbl.fold
      (fun s (n, first) acc ->
        {
          dg_signature = s;
          dg_count = n;
          dg_share_pct = 100.0 *. float_of_int n /. float_of_int total;
          dg_example = first;
        }
        :: acc)
      buckets []
    |> List.sort (fun a b ->
           match compare b.dg_count a.dg_count with
           | 0 -> compare_signature a.dg_signature b.dg_signature
           | c -> c)
  end

let diagnosis_jsonl rows =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i d ->
      let j =
        Json.Obj
          [
            ("rank", int (i + 1));
            ("reason", Json.Str d.dg_signature.sig_reason);
            ("impairment", Json.Str d.dg_signature.sig_impairment);
            ("phase", Json.Str d.dg_signature.sig_phase);
            ("count", int d.dg_count);
            ("share_pct", num d.dg_share_pct);
            ("example", capsule_to_json d.dg_example);
          ]
      in
      Buffer.add_string buf (Json.to_string j);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let render_diagnosis rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "forensic triage: failure signatures, ranked\n";
  if rows = [] then Buffer.add_string buf "  (no failures captured)\n"
  else
    List.iteri
      (fun i d ->
        Buffer.add_string buf
          (Printf.sprintf "  #%d  %4d  %5.1f%%  reason=%s  %s  phase=%s\n"
             (i + 1) d.dg_count d.dg_share_pct d.dg_signature.sig_reason
             d.dg_signature.sig_impairment d.dg_signature.sig_phase);
        Buffer.add_string buf
          (Printf.sprintf "       e.g. %s cell=%d round=%d attempts=%d\n"
             d.dg_example.cap_name d.dg_example.cap_cell d.dg_example.cap_round
             d.dg_example.cap_attempts))
      rows;
  Buffer.contents buf

(* --- exemplar wiring --- *)

let exemplar_id c =
  Option.map (fun id -> Printf.sprintf "%s/%d" c.cap_name id) c.cap_trace_id

let annotate_exemplars ~histogram caps =
  List.fold_left
    (fun n c ->
      match exemplar_id c with
      | None -> n
      | Some trace_id ->
        Registry.Histogram.set_exemplar histogram
          ~value:(1000.0 *. c.cap_elapsed_s)
          ~trace_id
          ~at:(c.cap_started_at +. c.cap_elapsed_s);
        n + 1)
    0 caps
