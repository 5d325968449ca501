(** Executable security experiments.

    [table2] regenerates Table 2 of the paper by actually running each
    `Adv_ext` attack (replay / reorder / delay) against a prover using
    each freshness feature (nonce history / counter / timestamp) and
    observing whether the malicious delivery triggered an attestation.

    The [roam_*] scenarios regenerate the §5 analysis: the three-phase
    roaming adversary against protected and unprotected state, including
    the two subtleties the paper calls out — the counter rollback is
    undetectable after the fact while the clock rollback leaves the
    prover's clock behind, and the roaming adversary is delay-bound (must
    wait δ) in the timestamp case. *)

type feature = F_nonces | F_counter | F_timestamps
type attack = A_replay | A_reorder | A_delay

val attack_name : attack -> string

val table2_cell : feature -> attack -> bool
(** [true] iff the feature mitigated the attack (the malicious delivery
    did not cause an extra attestation). *)

val table2 : unit -> (attack * (feature * bool) list) list
(** The full matrix, attacks × features. *)

val expected_table2 : (attack * (feature * bool) list) list
(** Table 2 as printed in the paper, for cross-checking. *)

(** {2 Roaming adversary scenarios (§5, §6.2)} *)

type roam_outcome = {
  scenario : string;
  defended : bool; (* was the relevant protection in place? *)
  dos_blocked : bool; (* did the prover refuse the Phase-III replay? *)
  evidence_left : bool; (* post-hoc detectability (clock behind, MPU
                           fault log, inconsistent state) *)
  details : string;
}

val roam_counter_rollback : defended:bool -> roam_outcome
(** §5 "Adv_roam and Counters": roll counter_R back to i-1, replay
    attreq(i). Undefended: DoS succeeds with {e no} evidence. *)

val roam_clock_rollback : defended:bool -> roam_outcome
(** §5 "Adv_roam and Timestamps" on the SW-clock: set Clock_MSB back by
    δ, wait δ, deliver a withheld genuine request. Undefended: DoS
    succeeds but the prover's clock stays behind (evidence). *)

val roam_clock_rollback_hw : unit -> roam_outcome
(** Same attack against the dedicated 64-bit counter register: no
    software write path exists, the attack is inherently blocked. *)

val roam_key_extraction : defended:bool -> roam_outcome
(** Extract K_attest, then forge authenticated requests at will. *)

val roam_idt_freeze : defended:bool -> roam_outcome
(** Redirect the timer vector so Code_clock never runs: the SW-clock
    freezes and arbitrarily delayed requests look fresh. *)

val roam_mpu_lockdown : defended:bool -> roam_outcome
(** [defended = false] models boot *without* locking the EA-MPU: resident
    malware clears the rules and then reads the key. *)

val roaming_matrix : unit -> roam_outcome list
(** All scenarios, defended and undefended. *)

val pp_roam_outcome : Format.formatter -> roam_outcome -> unit
