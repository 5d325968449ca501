type comparison = At_most | At_least

type objective = {
  slo_name : string;
  slo_limit : float;
  slo_cmp : comparison;
  slo_unit : string;
}

type check = {
  ck_objective : objective;
  ck_scope : string;
  ck_observed : float;
  ck_ok : bool;
}

let objective ?(unit = "") ~name ~limit cmp =
  if not (Float.is_finite limit) then
    invalid_arg "Ra_obs.Slo.objective: limit must be finite";
  { slo_name = name; slo_limit = limit; slo_cmp = cmp; slo_unit = unit }

(* Exactly meeting the limit is compliant: an SLO of "p99 <= 60 s" is not
   breached by an observed p99 of precisely 60 s. *)
let compliant obj ~observed =
  match obj.slo_cmp with
  | At_most -> observed <= obj.slo_limit
  | At_least -> observed >= obj.slo_limit

(* limit - observed signed so that positive = headroom for both senses *)
let margin obj ~observed =
  match obj.slo_cmp with
  | At_most -> obj.slo_limit -. observed
  | At_least -> observed -. obj.slo_limit

module M = struct
  let evaluations name =
    Registry.Counter.get ~labels:[ ("objective", name) ] "ra_slo_evaluations_total"

  let breaches name =
    Registry.Counter.get ~labels:[ ("objective", name) ] "ra_slo_breaches_total"

  let margin_gauge name scope =
    Registry.Gauge.get
      ~labels:[ ("objective", name); ("scope", scope) ]
      "ra_slo_margin"
end

let evaluate ~scope obj ~observed =
  let ok = compliant obj ~observed in
  Registry.Counter.inc (M.evaluations obj.slo_name);
  if not ok then Registry.Counter.inc (M.breaches obj.slo_name);
  Registry.Gauge.set (M.margin_gauge obj.slo_name scope) (margin obj ~observed);
  { ck_objective = obj; ck_scope = scope; ck_observed = observed; ck_ok = ok }

let breaches checks = List.filter (fun c -> not c.ck_ok) checks

let pp_check fmt c =
  Format.fprintf fmt "%s [%s]: observed %g %s limit %g%s%s -> %s"
    c.ck_objective.slo_name c.ck_scope c.ck_observed
    (match c.ck_objective.slo_cmp with At_most -> "vs max" | At_least -> "vs min")
    c.ck_objective.slo_limit
    (if c.ck_objective.slo_unit = "" then "" else " ")
    c.ck_objective.slo_unit
    (if c.ck_ok then "ok" else "BREACH")
