(** The complete N-sigma timing model: Table-I quantile regression +
    per-cell moment calibration + wire variability model, packaged as an
    STA provider per sigma level (eq. 10).

    Build once from a characterised library; then any netlist can be
    analysed at any sigma level without further Monte-Carlo. *)

type key = Nsigma_liberty.Cell.t * [ `Rise | `Fall ]
(** A (cell, edge) pair.  The per-pair tables are keyed by the pair
    itself, so the per-hop lookups build no name. *)

type t = {
  tech : Nsigma_process.Technology.t;
  library : Nsigma_liberty.Library.t;
  cell_model : Cell_model.t;
      (** pooled global Table-I coefficients, as the paper prints them *)
  keys : key list;
      (** the characterised pairs in library order — the order {!save}
          writes them in *)
  cell_models : (key, Cell_model.t) Hashtbl.t;
      (** the same regression per (cell, edge) — the LUT-file form of
          Fig. 5, used by {!cell_quantile} (markedly more accurate than
          the pooled fit; see the ablation bench) *)
  calibrations : (key, Calibration.t) Hashtbl.t;  (** per (cell, edge) *)
  wire : Wire_model.t;
}

val build : ?fit_wire_scales:bool -> Nsigma_liberty.Library.t -> t
(** Fit everything from the library: the A/B regression pools every
    characterised (cell, edge, slew, load) point; calibration surfaces
    are fitted per cell; wire X coefficients from eq. 6.  Unless
    [fit_wire_scales] is false, eq. (7)'s scales (a, b) are then
    calibrated against a built-in wire Monte-Carlo sweep (a few seconds;
    the paper's "place-and-route netlist" experiments). *)

val calibration :
  t -> Nsigma_liberty.Cell.t -> edge:[ `Rise | `Fall ] -> Calibration.t
(** @raise Not_found for an uncharacterised pair. *)

val cell_model_for :
  t -> Nsigma_liberty.Cell.t -> edge:[ `Rise | `Fall ] -> Cell_model.t
(** The per-cell coefficients when available, else the global fit. *)

val cell_quantile :
  t ->
  Nsigma_liberty.Cell.t ->
  edge:[ `Rise | `Fall ] ->
  input_slew:float ->
  load_cap:float ->
  sigma:int ->
  float
(** T_c(nσ) with moments calibrated to the operating condition. *)

val wire_quantile :
  t ->
  tree:Nsigma_rcnet.Rctree.t ->
  tap:int ->
  driver:Nsigma_liberty.Cell.t ->
  load:Nsigma_liberty.Cell.t option ->
  sigma:int ->
  float
(** T_w(nσ) = (1 + n·X_w)·T_Elmore at the given tap. *)

val provider : t -> sigma:int -> Nsigma_sta.Provider.t
(** The sigma-level STA provider: running the engine with it yields
    T_path(nσ) = Σ T_c(nσ) + Σ T_w(nσ) along every path (eq. 10). *)

val path_quantile : t -> Nsigma_sta.Design.t -> sigma:int -> float
(** Circuit-level nσ delay: analyse the design with {!provider}. *)

val path_quantile_of_path :
  t -> Nsigma_sta.Design.t -> Nsigma_sta.Path.t -> sigma:int -> float
(** Eq. 10 applied to one extracted path (stage conditions re-derived
    from the path's recorded slews/loads). *)

val save : t -> string -> unit
(** Persist the fitted coefficients (Table I, calibration surfaces, wire
    X table) — the "coefficients file in look-up-table form" of Fig. 5. *)

val load : Nsigma_liberty.Library.t -> string -> t
(** Restore a fitted model against its library.
    @raise Failure on malformed input. *)
