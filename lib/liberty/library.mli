(** A characterised cell library: tables for every (cell, edge) pair,
    plus text serialisation so expensive characterisation runs can be
    cached on disk (the moral equivalent of a .lib/LVF file). *)

type t

val create : Nsigma_process.Technology.t -> t
(** An empty library bound to a technology/corner. *)

val tech : t -> Nsigma_process.Technology.t

val add : t -> Characterize.table -> unit

val find : t -> Cell.t -> edge:[ `Rise | `Fall ] -> Characterize.table
(** Tables are keyed by the (cell, edge) pair itself, so a lookup — one
    per timing arc — builds no string and allocates only the key.
    @raise Not_found if the pair was never characterised. *)

val find_opt : t -> Cell.t -> edge:[ `Rise | `Fall ] -> Characterize.table option

val cells : t -> (Cell.t * [ `Rise | `Fall ]) list
(** All characterised pairs, in insertion order. *)

val characterize_all :
  ?n_mc:int ->
  ?seed:int ->
  ?slews:float array ->
  ?loads:float array ->
  ?edges:[ `Rise | `Fall ] list ->
  ?exec:Nsigma_exec.Executor.t ->
  ?kernel:Nsigma_spice.Cell_sim.kernel ->
  ?sampling:Nsigma_stats.Sampler.backend ->
  ?rtol:float ->
  Nsigma_process.Technology.t ->
  Cell.t list ->
  t
(** Build a library by characterising every cell (both edges by
    default).  [exec] schedules each cell's grid points; results are
    bit-identical across backends and pool sizes.  [kernel] selects the
    simulation engine for every table (default
    {!Nsigma_spice.Cell_sim.default_kernel}[ ()]); [sampling]/[rtol]
    select the deviate stream and adaptive stopping tolerance
    ({!Characterize.characterize}). *)

val cache_fingerprint :
  Nsigma_process.Technology.t ->
  kernel:Nsigma_spice.Cell_sim.kernel ->
  sampling:Nsigma_stats.Sampler.backend ->
  rtol:float option ->
  string
(** Digest of the technology parameters, the characterisation-grid
    constants, the simulation kernel and the sampling configuration,
    written into the file header by {!save} and verified by {!load}.
    Including the kernel guarantees fast- and RK4-characterised caches
    never alias; including the sampling backend and tolerance guarantees
    the same for populations drawn from different deviate streams or
    stopped adaptively. *)

val fingerprint : t -> string
(** The {!cache_fingerprint} this library would carry if saved — its
    kernel, sampling configuration and technology digested into the key
    under which derived artifacts (e.g. the statistical provider's
    moment regressions in {!Store}) are content-addressed.
    @raise Failure under the same mixed-configuration rules as
    {!save}. *)

val save : t -> string -> unit
(** Write the library to a text file (format version 4, carrying the
    kernel name, the sampling backend, the rtol token and
    {!cache_fingerprint}).
    @raise Failure if the library mixes tables characterised with
    different kernels or different sampling configurations. *)

val load :
  ?expect_kernel:Nsigma_spice.Cell_sim.kernel ->
  ?expect_sampling:Nsigma_stats.Sampler.backend * float option ->
  Nsigma_process.Technology.t ->
  string ->
  t
(** Read a library back.  The stored VDD must match the technology's
    (within 1 mV) and the stored fingerprint must equal
    [cache_fingerprint tech ~kernel ~sampling ~rtol] for the stored
    configuration — characterisation data is specific to the corner, the
    device/parasitic parameters, the grid, the simulation engine and the
    deviate stream, so a stale cache fails loudly instead of polluting
    results.  [expect_kernel] additionally requires the stored kernel to
    be that one, and [expect_sampling] the stored (backend, rtol) pair
    (the [load_or_characterize] staleness rules); without them any
    configuration is accepted and recorded in the loaded tables.
    Every table's shape is checked here, once
    ({!Characterize.make_table}).
    @raise Failure on parse errors, a malformed table (empty or
    non-increasing axis, a POINT off the grid or missing; reported as
    ["path:line: …"]), corner mismatch, a stale/legacy (v1/v2/v3)
    fingerprint, or a kernel/sampling mismatch. *)

val load_or_characterize :
  ?n_mc:int ->
  ?seed:int ->
  ?slews:float array ->
  ?loads:float array ->
  ?edges:[ `Rise | `Fall ] list ->
  ?exec:Nsigma_exec.Executor.t ->
  ?kernel:Nsigma_spice.Cell_sim.kernel ->
  ?sampling:Nsigma_stats.Sampler.backend ->
  ?rtol:float ->
  path:string ->
  Nsigma_process.Technology.t ->
  Cell.t list ->
  t
(** Cache wrapper: load [path] if it exists, carries the current
    fingerprint, was characterised with [kernel] (default
    {!Nsigma_spice.Cell_sim.default_kernel}[ ()]) under the requested
    sampling configuration ([sampling] default
    {!Nsigma_stats.Sampler.default_backend}[ ()], [rtol] default off)
    and covers the requested cells; otherwise (including any
    stale-cache failure) characterise with that configuration and
    save. *)
