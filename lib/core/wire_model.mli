(** The N-sigma wire delay model (eqs. 4–9 of the paper).

    Elmore supplies the mean: μ_w = Σ R·C (eq. 4).  The relative
    variability X_w = σ_w/μ_w is modelled from the driver and load cells
    (eq. 7):

      X_w = a · X_FI · (σ_FI/μ_FI) + b · X_FO · (σ_FO/μ_FO)

    with the cell-specific coefficients X (eq. 6) expressing each cell's
    delay variability relative to the FO4 reference inverter (INVX4), and
    Pelgrom scaling (eq. 5) predicting X ∝ 1/√(n·strength).  The scales
    (a, b) default to the paper's implicit (1, 1) and are re-fitted
    against wire Monte-Carlo data by {!Model.build} (via
    {!Wire_lab.standard_observations}), which is how the model absorbs
    the substrate's actual driver/load sensitivities.  Quantiles follow
    eq. 9: T_w(nσ) = (1 + n·X_w)·T_Elmore, floored at 5% of Elmore. *)

type t = {
  ratio_fo4 : float;  (** σ/μ of the INVX4 reference delay *)
  x_table : (Nsigma_liberty.Cell.t * float) list;
      (** X per cell (eq. 6), in library order (the save order) *)
  scale_fi : float;  (** a of eq. 7 *)
  scale_fo : float;  (** b of eq. 7 *)
}

val theoretical_x : Nsigma_liberty.Cell.t -> float
(** Pelgrom prediction √(4/(n·strength)) (eq. 5, normalised to INVX4). *)

val of_library : Nsigma_liberty.Library.t -> t
(** Calibrate every X from the characterised library: each cell's σ/μ at
    the reference slew under its own FO4 load, divided by INVX4's
    (eq. 6).  Scales start at (1, 1). *)

val x_of : t -> Nsigma_liberty.Cell.t -> float
(** Look up (or fall back to {!theoretical_x}) a cell's coefficient. *)

val cell_ratio : t -> Nsigma_liberty.Cell.t -> float
(** σ/μ of a cell via eq. 6: X_cell · ratio_fo4. *)

val variability : t -> driver:Nsigma_liberty.Cell.t ->
  load:Nsigma_liberty.Cell.t option -> float
(** X_w of eq. 7; a missing load (primary-output segment) contributes
    nothing. *)

val quantile :
  t ->
  elmore:float ->
  driver:Nsigma_liberty.Cell.t ->
  load:Nsigma_liberty.Cell.t option ->
  sigma:int ->
  float
(** Eq. 9. *)

type wire_observation = {
  driver : Nsigma_liberty.Cell.t;
  load : Nsigma_liberty.Cell.t option;
  measured_variability : float;  (** σ_w/μ_w from Monte-Carlo *)
}

val fit_scales : t -> wire_observation list -> t
(** Re-fit (a, b) by least squares on measured wire variabilities — the
    paper's "experiment results from place-and-route netlists". *)

val to_lines : t -> string list
val of_lines : string list -> t
