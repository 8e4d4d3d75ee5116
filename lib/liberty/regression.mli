(** Per-(cell, edge) global/local regression at the reference point —
    the cell model of the statistical SSTA provider
    ([Nsigma_sta.Ssta.lvf_handle]).

    A paired mini-MC ([frac_samples] draws, fast kernel, the same
    deviate vectors with and without local mismatch) runs at
    {!Characterize.reference_slew} and the cell's FO4 load.  The
    globals-only population yields the variance fraction the shared
    corners explain and, by moment regression (aᵢ = E[d·zᵢ],
    bᵢ = E[d·(zᵢ²−1)]/2 — exact for iid standard deviates), the linear
    and quadratic sensitivities of delay and output slew.  The result
    depends on the {!settings} and the cell only, never on a table or a
    design, which is why {!Library.regressions} can memoize it once per
    library value. *)

type t = {
  ar_a : float array;  (** delay linear global sensitivities (s) *)
  ar_b : float array;  (** delay quadratic (z²−1) global sensitivities (s) *)
  ar_frac : float;  (** global share of the delay variance *)
  ar_sa : float array;  (** out-slew linear global sensitivities (s) *)
  ar_sb : float array;  (** out-slew quadratic global sensitivities (s) *)
  ar_sl : float;  (** out-slew local (mismatch) sigma (s) *)
  ar_slew_mean : float;  (** mean out-slew at the reference point (s) *)
}

type settings = {
  tech : Nsigma_process.Technology.t;
  seed : int;
  frac_samples : int;
  approx : bool;  (** polynomial transcendentals (implies the batched kernel) *)
}
(** Everything a regression reads besides the cell: the memo key of
    {!Library.regressions} (compared structurally). *)

val compute :
  ?exec:Nsigma_exec.Executor.t ->
  ?batch:bool ->
  settings ->
  Cell.t ->
  edge:[ `Rise | `Fall ] ->
  t
(** Run the paired mini-MC (span [sta.ssta.cell_frac]; ticks
    [sta.ssta.cell_frac_samples] by [2 · frac_samples]).  [exec]
    (default {!Nsigma_exec.Executor.default}[ ()]) schedules the
    samples: workers fill index-addressed arrays and the moments fold
    in index order on the calling domain, so every backend is
    bit-identical.  [batch] routes the samples through the SoA
    {!Nsigma_spice.Cell_sim.Batch} kernel, still bit-identical; the
    settings' [approx] implies it.
    @raise Failure if the fast kernel fails at the reference point. *)

val store_key :
  fingerprint:string -> settings -> Cell.t -> edge:[ `Rise | `Fall ] -> string
(** The {!Store} key of a regression:
    [frac-v1|<fingerprint>|<cell>|e<0|1>|n<frac_samples>|s<seed>|approx=<bool>],
    with the library's {!Library.fingerprint}. *)

val to_string : t -> string
(** Exact serialisation (hex float literals) for the {!Store}. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on a malformed payload. *)
