(** First- and second-moment interconnect delay metrics.

    Elmore (eq. 4 of the paper) is the first moment of the impulse
    response; D2M adds the second moment.  Both are computed in O(n) by
    two tree passes.  An optional driver resistance is included as a
    lumped resistance between the source and the root — this is how the
    wire model accounts for the driver cell when forming μ_w. *)

val delays : ?driver_res:float -> Rctree.t -> float array
(** Per-node Elmore delay (s) from the driver source.  [driver_res]
    (default 0) multiplies the total downstream capacitance. *)

val delay_at : ?driver_res:float -> Rctree.t -> int -> float
(** Elmore delay at one node. *)

val delay_to_tap : ?driver_res:float -> Rctree.t -> float
(** Elmore delay at the first tap — the common single-sink case.
    @raise Invalid_argument if the tree has no tap. *)

val second_moments : ?driver_res:float -> Rctree.t -> float array
(** Per-node second moment m2 of the impulse response (s²), with the same
    lumped-driver convention. *)

val d2m_at : ?driver_res:float -> Rctree.t -> int -> float
(** Alpert's D2M metric ln2 · m1²/√m2 at one node — a sharper delay
    estimate than Elmore for far-from-source nodes. *)

val d2m : m1:float -> m2:float -> float
(** D2M from a node's first and second moments: ln2 · m1²/√m2, or
    ln2 · m1 when m2 ≤ 0.  {!d2m_at} is [d2m] of {!delay_at} and
    {!second_moments}. *)

val moments_into :
  Rctree.t -> down:float array -> m1:float array -> m2:float array -> unit
(** [moments_into t ~down ~m1 ~m2] fills, for every node, the downstream
    capacitance, the Elmore delay and the second moment into the
    caller's arrays (each at least [n_nodes t] long) in one call that
    allocates nothing.  The driver resistance is 0.  Every entry is
    bitwise equal to {!Rctree.downstream_cap}, {!delays} and
    {!second_moments} on the same tree — the per-sample kernel of the
    wire Monte-Carlo loops.
    @raise Invalid_argument if a scratch array is too short. *)
