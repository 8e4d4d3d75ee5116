(** Deterministic, splittable pseudo-random number generation.

    The generator is xoshiro256++ seeded through splitmix64, which gives
    high-quality 64-bit streams with a tiny state.  Every stochastic
    component of the library (Monte-Carlo engines, workload generators,
    property tests) threads an explicit [t] so that runs are reproducible
    from a single integer seed, and [split] derives statistically
    independent child streams for parallel or per-object sampling. *)

type t
(** Mutable generator state, held unboxed (state words and the cached
    polar deviate): drawing allocates nothing beyond the boxed value a
    non-inlined call returns, and {!derive}/{!split}/{!copy} allocate
    one small block. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 64-bit integer seed.  Equal
    seeds yield equal streams. *)

val copy : t -> t
(** [copy g] is an independent snapshot of [g]'s current state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    decorrelated from the remainder of [g]'s stream. *)

val derive : t -> index:int -> t
(** [derive g ~index] is a child generator that is a pure function of
    [g]'s current state and [index]; [g] is {e not} advanced.  Children
    at distinct indices are mutually decorrelated.  This is the RNG
    discipline behind deterministic parallel sampling: work item [i]
    samples from [derive base ~index:i], so its draws are independent of
    how items are scheduled across domains.  Requires [index >= 0]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform on \[0, n); requires [n > 0]. *)

val float : t -> float -> float
(** [float g b] is uniform on \[0, b). *)

val uniform : t -> float
(** Uniform on \[0, 1). *)

val uniform_range : t -> lo:float -> hi:float -> float
(** Uniform on \[lo, hi). *)

val gaussian : t -> float
(** Standard normal deviate (Marsaglia polar method). *)

val gaussian_mu_sigma : t -> mu:float -> sigma:float -> float
(** Normal deviate with the given mean and standard deviation. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a normal deviate with log-space parameters [mu], [sigma]. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate; requires [rate > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly chosen element; requires a non-empty array. *)
