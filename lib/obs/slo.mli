(** Service-level objectives over fleet sweeps: typed objectives, breach
    records and [ra_slo_*] metrics.

    An {!objective} states a bound on an observed quantity ([At_most] for
    latencies and rejection rates, [At_least] for convergence). Each
    {!evaluate} call emits [ra_slo_evaluations_total{objective}],
    [ra_slo_breaches_total{objective}] on violation, and the signed
    headroom gauge [ra_slo_margin{objective,scope}] (positive = inside
    the objective for both comparison senses).

    Exactly meeting the limit is {e compliant}: "p99 <= 60 s" is not
    breached by an observed p99 of precisely 60 s. *)

type comparison = At_most | At_least

type objective = {
  slo_name : string;
  slo_limit : float;
  slo_cmp : comparison;
  slo_unit : string; (* display only, e.g. "s" or "%" *)
}

type check = {
  ck_objective : objective;
  ck_scope : string; (* e.g. "loss=20% policy=default" *)
  ck_observed : float;
  ck_ok : bool;
}

val objective : ?unit:string -> name:string -> limit:float -> comparison -> objective
(** @raise Invalid_argument on a non-finite limit. *)

val compliant : objective -> observed:float -> bool

val margin : objective -> observed:float -> float
(** Signed headroom; positive when inside the objective. *)

val evaluate : scope:string -> objective -> observed:float -> check
(** Judge one observation and record the [ra_slo_*] metrics (in the
    default registry). *)

val breaches : check list -> check list
(** The failing subset, in order. *)

val pp_check : Format.formatter -> check -> unit
