(** Interpolation schemes used by the moment-calibration step.

    Eq. (2) of the paper calibrates μ and σ with a bilinear surface in
    (ΔS, ΔC); eq. (3) calibrates γ and κ with per-axis cubics plus the
    ΔS·ΔC cross term.  {!Surface} implements both forms as fitted
    polynomial surfaces; {!Grid2d} provides classical table lookup with
    bilinear interpolation, used by the LVF-style LUTs of the cell
    library. *)

val linear : x0:float -> y0:float -> x1:float -> y1:float -> float -> float
(** Straight-line interpolation through two points (extrapolates). *)

(** {2 Bilinear table access}

    The one bilinear formula behind {!Grid2d} and the LVF tables of the
    cell library.  A lookup brackets each coordinate once — [segment],
    [frac] and [upper] on its axis — and then {!blend}s as many fields
    of the four corner cells as it needs.  Coordinates outside the axis
    clamp to its edge, as timing tools do for LUT access.  None of these
    allocate once inlined; none re-check the axes, which {!check_grid}
    validates once, where a table is built. *)

val segment : float array -> float -> int
(** [segment axis v] is the [i] with [axis.(i) <= v <= axis.(i+1)],
    clamped to the first or last interval; 0 on a one-knot axis. *)

val upper : float array -> int -> int
(** [upper axis i] is the segment's upper knot, [min (i + 1) (n - 1)]. *)

val frac : float array -> int -> float -> float
(** [frac axis i v] is the position of [v] inside segment [i], clamped
    to \[0, 1\]; 0 on a one-knot axis. *)

val blend : fx:float -> fy:float -> float -> float -> float -> float -> float
(** [blend ~fx ~fy v00 v01 v10 v11] is
    [(1-fx)(1-fy)·v00 + (1-fx)·fy·v01 + fx·(1-fy)·v10 + fx·fy·v11],
    summed in that order. *)

val bilinear :
  xs:float array -> ys:float array -> 'a array array -> ('a -> float) ->
  float -> float -> float
(** [bilinear ~xs ~ys cells get x y] interpolates the field [get] of a
    table of [cells] indexed [x][y]: one bracket per axis and one
    {!blend}.  Equal to {!Grid2d.eval} over [Array.map (Array.map get)
    cells], bit for bit; a closed [get] makes it allocate only its
    result. *)

val check_grid :
  x_name:string -> y_name:string -> xs:float array -> ys:float array ->
  'a array array -> unit
(** Shape check of a table indexed [x][y]: both axes non-empty and
    strictly increasing, [|xs|] rows of [|ys|] cells each.  The names
    label the axes in the message.
    @raise Invalid_argument on the first violation. *)

(** Rectangular-grid bilinear lookup, clamping outside the grid — the
    industry-standard NLDM/LVF table access. *)
module Grid2d : sig
  type t

  val create : xs:float array -> ys:float array -> values:float array array -> t
  (** [xs] (strictly increasing, length ≥ 1) indexes rows of [values];
      [ys] indexes columns.  @raise Invalid_argument on shape errors. *)

  val eval : t -> float -> float -> float
  (** Bilinear interpolation of (x, y); coordinates outside the table are
      clamped to its edges, as timing tools do for LUT access. *)

  val xs : t -> float array
  val ys : t -> float array
  val values : t -> float array array
end

(** Fitted polynomial surfaces over (ΔS, ΔC) of the exact shapes used in
    eqs. (2) and (3). *)
module Surface : sig
  type t

  val fit_bilinear :
    points:(float * float) array -> values:float array -> t
  (** Least-squares fit of v ≈ v₀ + p₁ΔS + p₂ΔC + kΔSΔC (eq. 2 form). *)

  val fit_cubic : points:(float * float) array -> values:float array -> t
  (** Least-squares fit of
      v ≈ v₀ + p₁ΔS + p₂ΔC + q₁ΔS² + q₂ΔC² + r₁ΔS³ + r₂ΔC³ + kΔSΔC
      (eq. 3 form). *)

  val eval : t -> float -> float -> float
  val coefficients : t -> float array
  (** Raw fitted coefficients, constant term first. *)

  val r2 : t -> float
end
