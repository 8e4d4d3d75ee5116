(* Unit and property tests for the statistics substrate. *)

module Rng = Nsigma_stats.Rng
module Special = Nsigma_stats.Special
module Moments = Nsigma_stats.Moments
module Quantile = Nsigma_stats.Quantile
module Linalg = Nsigma_stats.Linalg
module Regression = Nsigma_stats.Regression
module Interpolate = Nsigma_stats.Interpolate
module Optimize = Nsigma_stats.Optimize
module D = Nsigma_stats.Distribution
module Histogram = Nsigma_stats.Histogram

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_uniform_range () =
  let g = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let u = Rng.uniform g in
    if u < 0.0 || u >= 1.0 then Alcotest.fail "uniform out of [0,1)"
  done

let test_rng_uniform_mean () =
  let g = Rng.create ~seed:8 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform g
  done;
  check_close ~eps:5e-3 "uniform mean" 0.5 (!sum /. float_of_int n)

let test_rng_gaussian_moments () =
  let g = Rng.create ~seed:9 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian g) in
  let s = Moments.summary_of_array xs in
  check_close ~eps:0.02 "gaussian mean ~ 0" 1.0 (1.0 +. s.Moments.mean);
  check_close ~eps:0.02 "gaussian std ~ 1" 1.0 s.Moments.std;
  check_close ~eps:0.05 "gaussian kurtosis ~ 3" 3.0 s.Moments.kurtosis

let test_rng_split_decorrelated () =
  let g = Rng.create ~seed:10 in
  let child = Rng.split g in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.uniform g) in
  let ys = Array.init n (fun _ -> Rng.uniform child) in
  (* Sample correlation should be ~0. *)
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let mx = mean xs and my = mean ys in
  let cov = ref 0.0 and vx = ref 0.0 and vy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      cov := !cov +. (dx *. dy);
      vx := !vx +. (dx *. dx);
      vy := !vy +. (dy *. dy))
    xs;
  let corr = !cov /. sqrt (!vx *. !vy) in
  Alcotest.(check bool) "split streams decorrelated" true (Float.abs corr < 0.03)

let test_rng_int_bounds () =
  let g = Rng.create ~seed:11 in
  let counts = Array.make 7 0 in
  for _ = 1 to 14_000 do
    let k = Rng.int g 7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 1600 || c > 2400 then
        Alcotest.failf "Rng.int bucket %d count %d far from uniform" i c)
    counts

let test_rng_exponential () =
  let g = Rng.create ~seed:12 in
  let xs = Array.init 40_000 (fun _ -> Rng.exponential g ~rate:2.0) in
  let s = Moments.summary_of_array xs in
  check_close ~eps:0.03 "exponential mean = 1/rate" 0.5 s.Moments.mean

let test_rng_shuffle_permutes () =
  let g = Rng.create ~seed:13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

(* The first draws of [create], [derive ~index], [split] and [copy],
   recorded from the boxed-int64 generator this representation
   replaced: the stream, the polar spare and the child-seeding rules
   must survive any change to how the state is stored.  Int64 outputs
   print as hex words, floats as [%h]. *)
let test_rng_golden_streams () =
  let out = ref [] in
  let b g = out := Printf.sprintf "%Lx" (Rng.bits64 g) :: !out in
  let u g = out := Printf.sprintf "%h" (Rng.uniform g) :: !out in
  let n g = out := Printf.sprintf "%h" (Rng.gaussian g) :: !out in
  let g = Rng.create ~seed:42 in
  b g; b g; b g; u g; u g; n g; n g; n g;
  (* [g] now holds a cached polar deviate: children must not inherit it,
     a copy must. *)
  let d = Rng.derive g ~index:7 in
  b d; u d; n d; n d;
  let sp = Rng.split g in
  b sp; u sp; n sp; n sp;
  let c = Rng.copy g in
  n c; n g; b c; b g; n c; n g;
  Alcotest.(check (list string))
    "golden draws"
    [ "d0764d4f4476689f"; "519e4174576f3791"; "fbe07cfb0c24ed8c";
      "0x1.66fb3ec019b06p-1"; "0x1.96463870e908dp-1";
      "0x1.dfa7fb0e60da8p-3"; "-0x1.fdf24d110f295p-1"; "0x1.de3b76e7d264bp-2";
      (* derive ~index:7 *)
      "7390239310077746"; "0x1.8fc001a3ac3bcp-2"; "-0x1.4f520e8e67418p-4";
      "-0x1.101f4cc6c4092p-2";
      (* split *)
      "f4a2f8df1ee5d3f2"; "0x1.33ccd3e733061p-1"; "-0x1.b6037bac0a18fp-1";
      "-0x1.cee6001752f4bp+0";
      (* copy, interleaved with the original *)
      "-0x1.4c6b705c0044p+0"; "-0x1.4c6b705c0044p+0"; "8f3dfa98020e7942";
      "8f3dfa98020e7942"; "0x1.bd700cddb335ap-1"; "0x1.bd700cddb335ap-1" ]
    (List.rev !out)

(* Drawing allocates nothing of its own: the state words and the polar
   spare live unboxed in the generator.  What remains is the boxed float
   a non-inlined call returns (2 words); the int64-field generator this
   replaced allocated about 30 words per deviate. *)
let test_rng_draws_allocation_free () =
  let g = Rng.create ~seed:5 in
  let draws = 10_000 in
  let per_draw f =
    let acc = ref 0.0 in
    ignore (f g : float);
    let before = Gc.minor_words () in
    for _ = 1 to draws do
      acc := !acc +. f g
    done;
    let words = Gc.minor_words () -. before in
    ignore (Sys.opaque_identity !acc);
    words /. float_of_int draws
  in
  List.iter
    (fun (what, f) ->
      let w = per_draw f in
      if w > 2.01 then
        Alcotest.failf "%s allocates %.2f words per draw (bound 2)" what w)
    [ ("gaussian", Rng.gaussian); ("uniform", Rng.uniform) ]

(* ---------- Special functions ---------- *)

let test_erf_values () =
  (* Reference values from Abramowitz & Stegun. *)
  check_close ~eps:1e-6 "erf 0" 0.0 (Special.erf 0.0);
  check_close ~eps:1e-6 "erf 1" 0.8427007929 (Special.erf 1.0);
  check_close ~eps:1e-6 "erf 2" 0.9953222650 (Special.erf 2.0);
  check_close ~eps:1e-6 "erf -1 odd" (-0.8427007929) (Special.erf (-1.0))

let test_normal_cdf_symmetry () =
  (* erfc carries ~1.2e-7 relative error; symmetry inherits it. *)
  List.iter
    (fun x ->
      check_close ~eps:5e-7 "Φ(x) + Φ(−x) = 1" 1.0
        (Special.normal_cdf x +. Special.normal_cdf (-.x)))
    [ 0.0; 0.5; 1.0; 2.0; 3.0 ]

let test_normal_quantile_roundtrip () =
  List.iter
    (fun p ->
      check_close ~eps:1e-6 "Φ(Φ⁻¹(p)) = p" p
        (Special.normal_cdf (Special.normal_quantile p)))
    [ 0.0013; 0.0228; 0.1587; 0.5; 0.8413; 0.9772; 0.9987 ]

let test_normal_quantile_known () =
  (* Limited by the erfc approximation error propagated through the
     low-density tail: |Δx| ≈ 1.2e-7 / φ(3) ≈ 3e-5. *)
  check_close ~eps:1e-4 "Φ⁻¹(0.99865) = 3" 3.0
    (Special.normal_quantile 0.9986501019683699);
  check_close ~eps:1e-7 "Φ⁻¹(0.5) = 0" 1.0 (1.0 +. Special.normal_quantile 0.5)

let test_lgamma () =
  check_close ~eps:1e-9 "lgamma 1 = 0" 1.0 (1.0 +. Special.lgamma 1.0);
  check_close ~eps:1e-9 "lgamma 5 = ln 24" (log 24.0) (Special.lgamma 5.0);
  check_close ~eps:1e-8 "lgamma 0.5 = ln √π" (0.5 *. log Float.pi)
    (Special.lgamma 0.5)

let test_beta () =
  (* B(a,b) = Γa Γb / Γ(a+b); B(2,3) = 1/12. *)
  check_close ~eps:1e-9 "beta(2,3)" (1.0 /. 12.0) (Special.beta 2.0 3.0)

let test_owen_t () =
  (* T(h, 1) = Φ(h)(1 − Φ(h))/2 is the classic identity. *)
  List.iter
    (fun h ->
      let phi = Special.normal_cdf h in
      check_close ~eps:1e-8 "Owen T(h,1) identity" (phi *. (1.0 -. phi) /. 2.0)
        (Special.owen_t h 1.0))
    [ 0.0; 0.3; 1.0; 2.5 ];
  (* T(h, 0) = 0 and antisymmetry in a. *)
  check_close ~eps:1e-12 "T(1,0) = 0" 1.0 (1.0 +. Special.owen_t 1.0 0.0);
  check_close ~eps:1e-9 "T odd in a" 0.0
    (Special.owen_t 0.7 0.9 +. Special.owen_t 0.7 (-0.9))

let test_log1p_exp () =
  check_close ~eps:1e-12 "large x" 50.0 (Special.log1p_exp 50.0);
  check_close ~eps:1e-12 "zero" (log 2.0) (Special.log1p_exp 0.0);
  Alcotest.(check bool) "tiny x positive" true (Special.log1p_exp (-50.0) > 0.0)

(* ---------- Moments ---------- *)

let test_moments_known_sample () =
  let s = Moments.summary_of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_close "mean" 5.0 s.Moments.mean;
  check_close "std (population)" 2.0 s.Moments.std

let test_moments_symmetric_zero_skew () =
  let s = Moments.summary_of_array [| -3.0; -1.0; 0.0; 1.0; 3.0 |] in
  check_close ~eps:1e-12 "symmetric skew = 0" 1.0 (1.0 +. s.Moments.skewness)

let test_moments_merge_equals_concat () =
  let g = Rng.create ~seed:21 in
  let xs = Array.init 500 (fun _ -> Rng.gaussian g) in
  let ys = Array.init 777 (fun _ -> (Rng.gaussian g *. 2.0) +. 1.0) in
  let merged = Moments.merge (Moments.of_array xs) (Moments.of_array ys) in
  let direct = Moments.of_array (Array.append xs ys) in
  let ms = Moments.summary merged and ds = Moments.summary direct in
  check_close "merge mean" ds.Moments.mean ms.Moments.mean;
  check_close "merge std" ds.Moments.std ms.Moments.std;
  check_close ~eps:1e-8 "merge skew" ds.Moments.skewness ms.Moments.skewness;
  check_close ~eps:1e-8 "merge kurt" ds.Moments.kurtosis ms.Moments.kurtosis

let test_moments_empty_degenerate () =
  let s = Moments.summary Moments.empty in
  Alcotest.(check int) "count 0" 0 s.Moments.n;
  check_close "kurtosis default 3" 3.0 s.Moments.kurtosis;
  let const = Moments.summary_of_array [| 5.0; 5.0; 5.0 |] in
  check_close ~eps:1e-12 "constant sample skew 0" 1.0 (1.0 +. const.Moments.skewness)

let prop_moments_shift_invariance =
  QCheck.Test.make ~count:200 ~name:"moments: shift changes only the mean"
    QCheck.(list_of_size (Gen.int_range 8 50) (float_range (-100.) 100.))
    (fun xs ->
      let a = Array.of_list xs in
      let shifted = Array.map (fun x -> x +. 42.0) a in
      let s1 = Moments.summary_of_array a in
      let s2 = Moments.summary_of_array shifted in
      Float.abs (s2.Moments.mean -. s1.Moments.mean -. 42.0) < 1e-6
      && Float.abs (s2.Moments.std -. s1.Moments.std) < 1e-6 *. (1.0 +. s1.Moments.std))

let prop_moments_scale =
  QCheck.Test.make ~count:200 ~name:"moments: positive scaling scales σ, keeps γ"
    QCheck.(pair (list_of_size (Gen.int_range 8 50) (float_range (-10.) 10.)) (float_range 0.5 4.0))
    (fun (xs, k) ->
      let a = Array.of_list xs in
      let scaled = Array.map (fun x -> x *. k) a in
      let s1 = Moments.summary_of_array a in
      let s2 = Moments.summary_of_array scaled in
      Float.abs (s2.Moments.std -. (k *. s1.Moments.std)) < 1e-6 *. (1.0 +. (k *. s1.Moments.std))
      && (s1.Moments.std < 1e-9
         || Float.abs (s2.Moments.skewness -. s1.Moments.skewness) < 1e-5))

(* ---------- Quantile ---------- *)

let test_quantile_median () =
  check_close "median of 1..5" 3.0 (Quantile.of_sample [| 5.0; 1.0; 3.0; 2.0; 4.0 |] 0.5)

let test_quantile_extremes () =
  let xs = [| 1.0; 2.0; 3.0 |] in
  check_close "p=0 is min" 1.0 (Quantile.of_sample xs 0.0);
  check_close "p=1 is max" 3.0 (Quantile.of_sample xs 1.0)

let test_quantile_interpolation () =
  (* type-7: h = (n-1)p. *)
  check_close "q(0.25) of [10,20]" 12.5 (Quantile.of_sample [| 10.0; 20.0 |] 0.25)

let test_sigma_probabilities () =
  check_close ~eps:1e-4 "P(+3σ)" 0.99865 (Quantile.probability_of_sigma 3.0);
  check_close ~eps:1e-4 "P(-2σ)" 0.02275 (Quantile.probability_of_sigma (-2.0));
  check_close ~eps:1e-6 "sigma roundtrip" 1.5
    (Quantile.sigma_of_probability (Quantile.probability_of_sigma 1.5))

let prop_quantile_monotone =
  QCheck.Test.make ~count:200 ~name:"quantiles are monotone in p"
    QCheck.(list_of_size (Gen.int_range 4 60) (float_range (-50.) 50.))
    (fun xs ->
      let a = Array.of_list xs in
      let q p = Quantile.of_sample a p in
      q 0.1 <= q 0.3 && q 0.3 <= q 0.5 && q 0.5 <= q 0.9)

(* ---------- Linalg ---------- *)

let test_solve_identity () =
  let x = Linalg.solve (Linalg.identity 4) [| 1.0; 2.0; 3.0; 4.0 |] in
  Array.iteri (fun i v -> check_close "identity solve" (float_of_int (i + 1)) v) x

let test_solve_random_system () =
  let g = Rng.create ~seed:33 in
  for _ = 1 to 20 do
    let n = 2 + Rng.int g 8 in
    let a = Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian g)) in
    (* Diagonal dominance guarantees solvability. *)
    for i = 0 to n - 1 do
      a.(i).(i) <- a.(i).(i) +. 10.0
    done;
    let x_true = Array.init n (fun _ -> Rng.gaussian g) in
    let b = Linalg.matvec a x_true in
    let x = Linalg.solve a b in
    Array.iteri (fun i v -> check_close ~eps:1e-8 "solve recovers x" x_true.(i) v) x
  done

let test_solve_singular_fails () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Linalg.solve: singular matrix")
    (fun () -> ignore (Linalg.solve a [| 1.0; 1.0 |]))

let test_cholesky_spd () =
  let g = Rng.create ~seed:34 in
  let n = 5 in
  let m = Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian g)) in
  (* A = MᵀM + I is SPD. *)
  let a = Linalg.matmul (Linalg.transpose m) m in
  for i = 0 to n - 1 do
    a.(i).(i) <- a.(i).(i) +. 1.0
  done;
  let l = Linalg.cholesky a in
  let llt = Linalg.matmul l (Linalg.transpose l) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      check_close ~eps:1e-9 "LLᵀ = A" a.(i).(j) llt.(i).(j)
    done
  done;
  let x_true = Array.init n float_of_int in
  let x = Linalg.solve_spd a (Linalg.matvec a x_true) in
  Array.iteri (fun i v -> check_close ~eps:1e-8 "solve_spd" x_true.(i) v) x

let test_lu_matches_solve () =
  let g = Rng.create ~seed:35 in
  let n = 6 in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian g)) in
  for i = 0 to n - 1 do
    a.(i).(i) <- a.(i).(i) +. 8.0
  done;
  let lu = Linalg.lu_factor a in
  for _ = 1 to 5 do
    let b = Array.init n (fun _ -> Rng.gaussian g) in
    let x1 = Linalg.solve a b and x2 = Linalg.lu_solve lu b in
    Array.iteri (fun i v -> check_close ~eps:1e-9 "lu_solve = solve" v x2.(i)) x1
  done

let test_tridiag_matches_dense () =
  let g = Rng.create ~seed:36 in
  let n = 12 in
  let diag = Array.init n (fun _ -> 4.0 +. Rng.uniform g) in
  let lower = Array.init (n - 1) (fun _ -> Rng.uniform g -. 0.5) in
  let upper = Array.init (n - 1) (fun _ -> Rng.uniform g -. 0.5) in
  let rhs = Array.init n (fun _ -> Rng.gaussian g) in
  let dense = Linalg.make n n in
  for i = 0 to n - 1 do
    dense.(i).(i) <- diag.(i);
    if i < n - 1 then begin
      dense.(i + 1).(i) <- lower.(i);
      dense.(i).(i + 1) <- upper.(i)
    end
  done;
  let x1 = Linalg.solve dense rhs in
  let x2 = Linalg.tridiag_solve ~diag ~lower ~upper rhs in
  Array.iteri (fun i v -> check_close ~eps:1e-9 "tridiag = dense" v x2.(i)) x1

(* ---------- Regression ---------- *)

let test_regression_exact_recovery () =
  let g = Rng.create ~seed:41 in
  let coeffs = [| 2.0; -1.5; 0.7 |] in
  let design =
    Array.init 50 (fun _ -> [| 1.0; Rng.gaussian g; Rng.gaussian g |])
  in
  let target = Array.map (fun row -> Linalg.dot coeffs row) design in
  let f = Regression.fit ~design ~target in
  Array.iteri
    (fun i c -> check_close ~eps:1e-8 "exact coefficients" coeffs.(i) c)
    f.Regression.coeffs;
  check_close ~eps:1e-9 "R² = 1 on exact data" 1.0 f.Regression.r2

let test_regression_constant_feature () =
  (* A rank-deficient design must not crash (ridge fallback). *)
  let design = Array.init 20 (fun i -> [| 1.0; 1.0; float_of_int i |]) in
  let target = Array.init 20 (fun i -> 3.0 +. float_of_int i) in
  let f = Regression.fit ~design ~target in
  let pred = Regression.predict f [| 1.0; 1.0; 10.0 |] in
  check_close ~eps:1e-4 "prediction still correct" 13.0 pred

let test_polyfit () =
  let xs = Array.init 20 (fun i -> float_of_int i /. 4.0) in
  let ys = Array.map (fun x -> 1.0 +. (2.0 *. x) -. (0.5 *. x *. x)) xs in
  let f = Regression.polyfit ~degree:2 ~xs ~ys in
  check_close ~eps:1e-8 "poly c0" 1.0 f.Regression.coeffs.(0);
  check_close ~eps:1e-8 "poly c1" 2.0 f.Regression.coeffs.(1);
  check_close ~eps:1e-8 "poly c2" (-0.5) f.Regression.coeffs.(2);
  check_close ~eps:1e-8 "polyval" (Regression.polyval f.Regression.coeffs 2.0)
    (1.0 +. 4.0 -. 2.0)

(* ---------- Interpolation ---------- *)

let test_grid2d_nodes_exact () =
  let grid =
    Interpolate.Grid2d.create ~xs:[| 0.0; 1.0; 2.0 |] ~ys:[| 0.0; 10.0 |]
      ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |]
  in
  check_close "node (0,0)" 1.0 (Interpolate.Grid2d.eval grid 0.0 0.0);
  check_close "node (2,10)" 6.0 (Interpolate.Grid2d.eval grid 2.0 10.0);
  check_close "midpoint" 2.0 (Interpolate.Grid2d.eval grid 0.5 0.0)

let test_grid2d_clamping () =
  let grid =
    Interpolate.Grid2d.create ~xs:[| 0.0; 1.0 |] ~ys:[| 0.0; 1.0 |]
      ~values:[| [| 0.0; 1.0 |]; [| 2.0; 3.0 |] |]
  in
  check_close "clamped below" 0.0 (Interpolate.Grid2d.eval grid (-5.0) (-5.0));
  check_close "clamped above" 3.0 (Interpolate.Grid2d.eval grid 9.0 9.0)

let test_grid2d_bilinear_exact () =
  (* Bilinear interpolation reproduces any bilinear function exactly. *)
  let f x y = 2.0 +. (3.0 *. x) -. (1.0 *. y) +. (0.5 *. x *. y) in
  let xs = [| 0.0; 1.0; 3.0 |] and ys = [| -1.0; 0.5; 2.0 |] in
  let values = Array.map (fun x -> Array.map (fun y -> f x y) ys) xs in
  let grid = Interpolate.Grid2d.create ~xs ~ys ~values in
  List.iter
    (fun (x, y) -> check_close "bilinear exact" (f x y) (Interpolate.Grid2d.eval grid x y))
    [ (0.5, 0.0); (2.0, 1.0); (1.5, -0.5); (3.0, 2.0) ]

let test_surface_bilinear_recovery () =
  let g = Rng.create ~seed:51 in
  let f ds dc = 1.0 +. (0.2 *. ds) -. (0.3 *. dc) +. (0.05 *. ds *. dc) in
  let points = Array.init 40 (fun _ -> (Rng.gaussian g, Rng.gaussian g)) in
  let values = Array.map (fun (a, b) -> f a b) points in
  let s = Interpolate.Surface.fit_bilinear ~points ~values in
  check_close ~eps:1e-8 "surface eval" (f 0.7 (-0.4))
    (Interpolate.Surface.eval s 0.7 (-0.4));
  check_close ~eps:1e-9 "surface r2" 1.0 (Interpolate.Surface.r2 s)

let test_surface_cubic_recovery () =
  let g = Rng.create ~seed:52 in
  let f ds dc =
    0.3 +. (0.1 *. ds) +. (0.2 *. dc) -. (0.01 *. ds *. ds)
    +. (0.002 *. dc *. dc) +. (0.001 *. ds *. ds *. ds)
    -. (0.0005 *. dc *. dc *. dc) +. (0.03 *. ds *. dc)
  in
  let points = Array.init 80 (fun _ -> (Rng.gaussian g *. 3.0, Rng.gaussian g *. 3.0)) in
  let values = Array.map (fun (a, b) -> f a b) points in
  let s = Interpolate.Surface.fit_cubic ~points ~values in
  check_close ~eps:1e-6 "cubic eval" (f 1.5 (-2.0)) (Interpolate.Surface.eval s 1.5 (-2.0))

(* ---------- Optimisation ---------- *)

let test_nelder_mead_quadratic () =
  let f x = ((x.(0) -. 3.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0) in
  let best, value = Optimize.nelder_mead ~f ~init:[| 0.0; 0.0 |] () in
  check_close ~eps:1e-3 "nm x0" 3.0 best.(0);
  check_close ~eps:1e-3 "nm x1" (-1.0) best.(1);
  Alcotest.(check bool) "nm value small" true (value < 1e-6)

let test_nelder_mead_rosenbrock () =
  let f x =
    (100.0 *. ((x.(1) -. (x.(0) *. x.(0))) ** 2.0)) +. ((1.0 -. x.(0)) ** 2.0)
  in
  let best, _ = Optimize.nelder_mead ~max_iter:5000 ~f ~init:[| -1.2; 1.0 |] () in
  check_close ~eps:1e-2 "rosenbrock x0" 1.0 best.(0);
  check_close ~eps:1e-2 "rosenbrock x1" 1.0 best.(1)

let test_bisect () =
  let root = Optimize.bisect ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 () in
  check_close ~eps:1e-9 "sqrt 2" (sqrt 2.0) root

let test_bisect_rejects_same_sign () =
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Optimize.bisect: endpoints do not bracket a root")
    (fun () -> ignore (Optimize.bisect ~f:(fun x -> x +. 10.0) ~lo:0.0 ~hi:1.0 ()))

let test_golden_section () =
  let x = Optimize.golden_section ~f:(fun x -> (x -. 1.7) ** 2.0) ~lo:0.0 ~hi:4.0 () in
  check_close ~eps:1e-6 "golden min" 1.7 x

(* ---------- Distributions ---------- *)

let test_normal_dist () =
  let d = { D.Normal.mu = 5.0; sigma = 2.0 } in
  check_close ~eps:1e-6 "normal median" 5.0 (D.Normal.quantile d 0.5);
  check_close ~eps:1e-4 "normal +3σ quantile" (5.0 +. (3.0 *. 2.0))
    (D.Normal.quantile d (Quantile.probability_of_sigma 3.0))

let test_lognormal_moments () =
  let d = { D.Lognormal.mu = 0.5; sigma = 0.4 } in
  let g = Rng.create ~seed:61 in
  let xs = Array.init 60_000 (fun _ -> D.Lognormal.sample d g) in
  let s = Moments.summary_of_array xs in
  check_close ~eps:0.02 "lognormal mean" (D.Lognormal.mean d) s.Moments.mean;
  check_close ~eps:0.05 "lognormal std" (D.Lognormal.std d) s.Moments.std

let test_lognormal_fit_roundtrip () =
  let d = { D.Lognormal.mu = 1.0; sigma = 0.3 } in
  let fitted =
    D.Lognormal.fit_moments
      {
        Moments.n = 1;
        mean = D.Lognormal.mean d;
        std = D.Lognormal.std d;
        skewness = 0.0;
        kurtosis = 3.0;
      }
  in
  check_close ~eps:1e-6 "lognormal fit mu" d.D.Lognormal.mu fitted.D.Lognormal.mu;
  check_close ~eps:1e-6 "lognormal fit sigma" d.D.Lognormal.sigma fitted.D.Lognormal.sigma

let test_skew_normal_cdf_quantile () =
  let d = { D.Skew_normal.location = 1.0; scale = 2.0; shape = 3.0 } in
  List.iter
    (fun p ->
      check_close ~eps:1e-6 "SN cdf∘quantile" p
        (D.Skew_normal.cdf d (D.Skew_normal.quantile d p)))
    [ 0.01; 0.2; 0.5; 0.8; 0.99 ]

let test_skew_normal_sampling_matches_moments () =
  let d = { D.Skew_normal.location = 0.0; scale = 1.0; shape = 4.0 } in
  let g = Rng.create ~seed:62 in
  let xs = Array.init 60_000 (fun _ -> D.Skew_normal.sample d g) in
  let s = Moments.summary_of_array xs in
  check_close ~eps:0.02 "SN mean" (D.Skew_normal.mean d) s.Moments.mean;
  check_close ~eps:0.03 "SN std" (D.Skew_normal.std d) s.Moments.std;
  check_close ~eps:0.1 "SN skewness" (D.Skew_normal.skewness d) s.Moments.skewness

let test_skew_normal_fit_moments () =
  let target =
    { Moments.n = 1; mean = 10.0; std = 2.0; skewness = 0.6; kurtosis = 3.5 }
  in
  let d = D.Skew_normal.fit_moments target in
  check_close ~eps:1e-6 "SN fit mean" 10.0 (D.Skew_normal.mean d);
  check_close ~eps:1e-6 "SN fit std" 2.0 (D.Skew_normal.std d);
  check_close ~eps:1e-4 "SN fit skew" 0.6 (D.Skew_normal.skewness d)

let test_skew_normal_saturates () =
  (* Sample skewness beyond the representable bound must clamp, not blow up. *)
  let target =
    { Moments.n = 1; mean = 1.0; std = 1.0; skewness = 2.5; kurtosis = 9.0 }
  in
  let d = D.Skew_normal.fit_moments target in
  Alcotest.(check bool) "finite shape" true (Float.is_finite d.D.Skew_normal.shape);
  Alcotest.(check bool) "skewness near bound" true
    (D.Skew_normal.skewness d > 0.9)

let test_burr_quantile_roundtrip () =
  let d = { D.Burr_xii.lambda = 3.0; c = 4.0; k = 1.5 } in
  List.iter
    (fun p ->
      check_close ~eps:1e-9 "Burr cdf∘quantile" p
        (D.Burr_xii.cdf d (D.Burr_xii.quantile d p)))
    [ 0.01; 0.3; 0.5; 0.9; 0.999 ]

let test_burr_moment () =
  (* E[X] for λ=1, c=2, k=2: k·B(k − 1/c, 1 + 1/c) = 2·B(1.5, 1.5) = π/4. *)
  let d = { D.Burr_xii.lambda = 1.0; c = 2.0; k = 2.0 } in
  check_close ~eps:1e-9 "Burr mean" (Float.pi /. 4.0) (D.Burr_xii.raw_moment d 1)

let test_burr_fit_recovers () =
  let d = { D.Burr_xii.lambda = 20.0; c = 5.0; k = 1.2 } in
  let g = Rng.create ~seed:63 in
  let xs = Array.init 20_000 (fun _ -> D.Burr_xii.sample d g) in
  let fitted = D.Burr_xii.fit_samples xs in
  (* Parameters are weakly identifiable; check quantile agreement instead. *)
  List.iter
    (fun p ->
      let want = D.Burr_xii.quantile d p and got = D.Burr_xii.quantile fitted p in
      if Float.abs (want -. got) > 0.06 *. want then
        Alcotest.failf "Burr fit quantile p=%.4f: want %.3f got %.3f" p want got)
    [ 0.0013; 0.1587; 0.5; 0.8413; 0.9987 ]

let test_lsn_fit_on_lognormal () =
  (* A lognormal sample is a skew-normal in log space with shape 0. *)
  let g = Rng.create ~seed:64 in
  let xs = Array.init 30_000 (fun _ -> Rng.lognormal g ~mu:2.0 ~sigma:0.25) in
  let d = D.Log_skew_normal.fit_samples xs in
  let med = D.Log_skew_normal.quantile d 0.5 in
  check_close ~eps:0.02 "LSN median ~ exp(2)" (exp 2.0) med

(* ---------- Histogram ---------- *)

let test_histogram_counts () =
  let h = Histogram.create ~bins:4 [| 0.0; 0.1; 0.45; 0.55; 0.95; 1.0 |] in
  Alcotest.(check int) "total" 6 h.Histogram.total;
  let density = Histogram.density h in
  let width = Histogram.bin_width h in
  let integral = Array.fold_left (fun acc d -> acc +. (d *. width)) 0.0 density in
  check_close ~eps:1e-9 "density integrates to 1" 1.0 integral

let test_kde_integrates () =
  let g = Rng.create ~seed:65 in
  let xs = Array.init 500 (fun _ -> Rng.gaussian g) in
  let kde = Histogram.kde xs in
  (* Trapezoid over [-6, 6]. *)
  let n = 600 in
  let h = 12.0 /. float_of_int n in
  let integral = ref 0.0 in
  for i = 0 to n do
    let x = -6.0 +. (h *. float_of_int i) in
    let w = if i = 0 || i = n then 0.5 else 1.0 in
    integral := !integral +. (w *. kde x *. h)
  done;
  check_close ~eps:0.01 "kde integrates to ~1" 1.0 !integral

let test_sparkline_shape () =
  let h = Histogram.create ~bins:10 (Array.init 100 (fun i -> float_of_int (i mod 10))) in
  let s = Histogram.sparkline ~width:10 h in
  Alcotest.(check bool) "sparkline non-empty" true (String.length s > 0)

(* ---------- Moments summary arithmetic (SSTA sum operator) ---------- *)

let test_moments_empty_merge_identity () =
  let acc = Moments.of_array [| 1.0; 2.5; -0.75; 4.0 |] in
  (* The identity is physical: the non-empty operand comes back itself,
     so every derived statistic is bitwise unchanged. *)
  Alcotest.(check bool) "merge empty acc == acc" true
    (Moments.merge Moments.empty acc == acc);
  Alcotest.(check bool) "merge acc empty == acc" true
    (Moments.merge acc Moments.empty == acc);
  Alcotest.(check bool) "merge empty empty == empty" true
    (Moments.merge Moments.empty Moments.empty == Moments.empty)

let test_add_scaled_pairwise () =
  (* The population of all pairwise sums x_i + s*y_j is exactly the
     independent sum of the two empirical distributions, so add_scaled
     on the two summaries must reproduce its moments. *)
  let g = Rng.create ~seed:33 in
  let xs = Array.init 40 (fun _ -> Rng.gaussian g +. 2.0) in
  let ys = Array.init 37 (fun _ -> Float.abs (Rng.gaussian g) *. 0.5) in
  let scale = 0.7 in
  let pairs =
    Array.concat
      (Array.to_list
         (Array.map (fun x -> Array.map (fun y -> x +. (scale *. y)) ys) xs))
  in
  let direct = Moments.summary_of_array pairs in
  let s =
    Moments.add_scaled (Moments.summary_of_array xs) ~scale
      (Moments.summary_of_array ys)
  in
  check_close ~eps:1e-10 "pairwise mean" direct.Moments.mean s.Moments.mean;
  check_close ~eps:1e-10 "pairwise std" direct.Moments.std s.Moments.std;
  check_close ~eps:1e-8 "pairwise skew" direct.Moments.skewness s.Moments.skewness;
  check_close ~eps:1e-8 "pairwise kurt" direct.Moments.kurtosis s.Moments.kurtosis

let test_scale_shift_matches_sample () =
  let g = Rng.create ~seed:34 in
  let xs = Array.init 200 (fun _ -> Float.abs (Rng.gaussian g) +. 0.1) in
  List.iter
    (fun (scale, shift) ->
      let mapped = Array.map (fun x -> (scale *. x) +. shift) xs in
      let direct = Moments.summary_of_array mapped in
      let s = Moments.scale_shift (Moments.summary_of_array xs) ~scale ~shift in
      check_close ~eps:1e-10 "ss mean" direct.Moments.mean s.Moments.mean;
      check_close ~eps:1e-10 "ss std" direct.Moments.std s.Moments.std;
      check_close ~eps:1e-8 "ss skew" direct.Moments.skewness s.Moments.skewness;
      check_close ~eps:1e-8 "ss kurt" direct.Moments.kurtosis s.Moments.kurtosis)
    [ (2.0, 1.0); (-1.5, 0.25); (0.0, 7.0) ]

(* ---------- Stat_max: goldens vs the closed-form Gaussian max ---------- *)

module Stat_max = Nsigma_stats.Stat_max

let std_normal =
  { Moments.n = 100_000; mean = 0.0; std = 1.0; skewness = 0.0; kurtosis = 3.0 }

let test_gh_rule_moments () =
  let nodes = Lazy.force Stat_max.gh_nodes in
  let s k =
    Array.fold_left (fun acc (z, w) -> acc +. (w *. (z ** k))) 0.0 nodes
  in
  check_close ~eps:1e-9 "GH weights sum to 1" 1.0 (s 0.0);
  check_close ~eps:1e-9 "GH E[z] = 0" 1.0 (1.0 +. s 1.0);
  check_close ~eps:1e-9 "GH E[z^2] = 1" 1.0 (s 2.0);
  check_close ~eps:1e-9 "GH E[z^4] = 3" 3.0 (s 4.0)

let test_clark_iid_gaussian_golden () =
  (* M = max(X, Y), X and Y iid N(0,1).  Raw moments: E[M^k] =
     2 E[X^k Phi(X)], so the even powers equal E[X^k] (x^2k is even) and
     the odd ones are E[M] = 1/sqrt(pi), E[M^3] = 5/(2 sqrt(pi)). *)
  let r = Stat_max.clark ~rho:0.0 std_normal std_normal in
  let spi = sqrt Float.pi in
  let mu = 1.0 /. spi in
  let r3 = 5.0 /. (2.0 *. spi) in
  let m2 = 1.0 -. (mu *. mu) in
  let m3 = r3 -. (3.0 *. mu) +. (2.0 *. (mu ** 3.0)) in
  let m4 =
    3.0 -. (4.0 *. mu *. r3) +. (6.0 *. mu *. mu) -. (3.0 *. (mu ** 4.0))
  in
  let d = r.Stat_max.dist in
  check_close ~eps:1e-9 "iid max mean" mu d.Moments.mean;
  check_close ~eps:1e-9 "iid max std" (sqrt m2) d.Moments.std;
  check_close ~eps:1e-8 "iid max skew" (m3 /. (m2 ** 1.5)) d.Moments.skewness;
  check_close ~eps:1e-8 "iid max kurt" (m4 /. (m2 *. m2)) d.Moments.kurtosis;
  (* erf is evaluated through a ~1e-8-accurate rational approximation. *)
  check_close ~eps:1e-6 "iid tightness 1/2" 0.5 r.Stat_max.p_first

let test_clark_correlated_mean_golden () =
  (* Equal means and unit variances at correlation rho:
     E[max] = sqrt((1 - rho) / pi). *)
  List.iter
    (fun rho ->
      let r = Stat_max.clark ~rho std_normal std_normal in
      check_close ~eps:1e-9
        (Printf.sprintf "corr mean rho=%.1f" rho)
        (sqrt ((1.0 -. rho) /. Float.pi))
        r.Stat_max.dist.Moments.mean)
    [ -0.5; 0.0; 0.5; 0.9 ]

let test_clark_dominant_input () =
  let hi = { std_normal with Moments.mean = 10.0; std = 0.1 } in
  let lo = { std_normal with Moments.mean = 0.0; std = 0.1 } in
  let r = Stat_max.clark ~rho:0.0 hi lo in
  check_close ~eps:1e-6 "dominant mean" 10.0 r.Stat_max.dist.Moments.mean;
  check_close ~eps:1e-6 "dominant std" 0.1 r.Stat_max.dist.Moments.std;
  check_close ~eps:1e-6 "dominant tightness" 1.0 r.Stat_max.p_first

let test_moment_matches_clark_on_gaussian () =
  (* On Gaussian inputs the CF transform is the identity, so the
     moment-matching operator must agree with Clark's exact result up to
     quadrature error. *)
  let a = { std_normal with Moments.mean = 1.0; std = 2.0 } in
  let b = std_normal in
  List.iter
    (fun rho ->
      let c = (Stat_max.clark ~rho a b).Stat_max.dist in
      let m = (Stat_max.moment ~rho a b).Stat_max.dist in
      check_close ~eps:2e-3 "gauss mean" c.Moments.mean m.Moments.mean;
      check_close ~eps:2e-3 "gauss std" c.Moments.std m.Moments.std;
      if Float.abs (c.Moments.skewness -. m.Moments.skewness) > 5e-3 then
        Alcotest.failf "gauss skew: clark %.4f vs moment %.4f"
          c.Moments.skewness m.Moments.skewness)
    [ -0.3; 0.0; 0.6 ]

let test_cornish_fisher_identity_and_clamp () =
  (* Gaussian inputs: w(z) = z exactly. *)
  List.iter
    (fun z ->
      check_close ~eps:1e-12 "CF identity" z
        (Stat_max.cornish_fisher ~skew:0.0 ~kurt:3.0 z))
    [ -3.0; -1.0; 0.0; 0.5; 3.0 ];
  (* Far outside the monotone domain the inputs are clamped, so the
     transform stays strictly increasing (a genuine quantile function)
     over the solver's bisection range. *)
  let prev = ref Float.neg_infinity in
  let ok = ref true in
  for i = 0 to 160 do
    let z = -8.0 +. (float_of_int i /. 10.0) in
    let w = Stat_max.cornish_fisher ~skew:5.0 ~kurt:50.0 z in
    if w <= !prev then ok := false;
    prev := w
  done;
  Alcotest.(check bool) "clamped CF strictly increasing" true !ok

let test_operator_names () =
  Alcotest.(check string) "clark name" "clark"
    (Stat_max.operator_name Stat_max.Clark);
  Alcotest.(check bool) "roundtrip" true
    (Stat_max.operator_of_string "moment" = Stat_max.Moment);
  Alcotest.check_raises "unknown operator"
    (Invalid_argument
       "Stat_max.operator_of_string: \"bogus\" (expected \"clark\" or \
        \"moment\")") (fun () ->
      ignore (Stat_max.operator_of_string "bogus"))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "nsigma_stats"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "split decorrelated" `Quick test_rng_split_decorrelated;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "golden streams" `Quick test_rng_golden_streams;
          Alcotest.test_case "draws allocation-free" `Quick
            test_rng_draws_allocation_free;
        ] );
      ( "special",
        [
          Alcotest.test_case "erf values" `Quick test_erf_values;
          Alcotest.test_case "normal cdf symmetry" `Quick test_normal_cdf_symmetry;
          Alcotest.test_case "quantile roundtrip" `Quick test_normal_quantile_roundtrip;
          Alcotest.test_case "quantile known" `Quick test_normal_quantile_known;
          Alcotest.test_case "lgamma" `Quick test_lgamma;
          Alcotest.test_case "beta" `Quick test_beta;
          Alcotest.test_case "owen t" `Quick test_owen_t;
          Alcotest.test_case "log1p_exp" `Quick test_log1p_exp;
        ] );
      ( "moments",
        [
          Alcotest.test_case "known sample" `Quick test_moments_known_sample;
          Alcotest.test_case "symmetric skew" `Quick test_moments_symmetric_zero_skew;
          Alcotest.test_case "merge = concat" `Quick test_moments_merge_equals_concat;
          Alcotest.test_case "degenerate" `Quick test_moments_empty_degenerate;
          Alcotest.test_case "empty merge identity" `Quick
            test_moments_empty_merge_identity;
          Alcotest.test_case "add_scaled pairwise" `Quick test_add_scaled_pairwise;
          Alcotest.test_case "scale_shift" `Quick test_scale_shift_matches_sample;
          qt prop_moments_shift_invariance;
          qt prop_moments_scale;
        ] );
      ( "stat_max",
        [
          Alcotest.test_case "GH rule moments" `Quick test_gh_rule_moments;
          Alcotest.test_case "clark iid golden" `Quick
            test_clark_iid_gaussian_golden;
          Alcotest.test_case "clark correlated mean" `Quick
            test_clark_correlated_mean_golden;
          Alcotest.test_case "clark dominant input" `Quick
            test_clark_dominant_input;
          Alcotest.test_case "moment = clark on gaussian" `Quick
            test_moment_matches_clark_on_gaussian;
          Alcotest.test_case "cornish-fisher" `Quick
            test_cornish_fisher_identity_and_clamp;
          Alcotest.test_case "operator names" `Quick test_operator_names;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "median" `Quick test_quantile_median;
          Alcotest.test_case "extremes" `Quick test_quantile_extremes;
          Alcotest.test_case "interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "sigma probabilities" `Quick test_sigma_probabilities;
          qt prop_quantile_monotone;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "identity" `Quick test_solve_identity;
          Alcotest.test_case "random systems" `Quick test_solve_random_system;
          Alcotest.test_case "singular fails" `Quick test_solve_singular_fails;
          Alcotest.test_case "cholesky" `Quick test_cholesky_spd;
          Alcotest.test_case "lu reuse" `Quick test_lu_matches_solve;
          Alcotest.test_case "tridiagonal" `Quick test_tridiag_matches_dense;
        ] );
      ( "regression",
        [
          Alcotest.test_case "exact recovery" `Quick test_regression_exact_recovery;
          Alcotest.test_case "rank deficient" `Quick test_regression_constant_feature;
          Alcotest.test_case "polyfit" `Quick test_polyfit;
        ] );
      ( "interpolate",
        [
          Alcotest.test_case "grid nodes" `Quick test_grid2d_nodes_exact;
          Alcotest.test_case "grid clamps" `Quick test_grid2d_clamping;
          Alcotest.test_case "bilinear exact" `Quick test_grid2d_bilinear_exact;
          Alcotest.test_case "surface bilinear" `Quick test_surface_bilinear_recovery;
          Alcotest.test_case "surface cubic" `Quick test_surface_cubic_recovery;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "quadratic" `Quick test_nelder_mead_quadratic;
          Alcotest.test_case "rosenbrock" `Quick test_nelder_mead_rosenbrock;
          Alcotest.test_case "bisect" `Quick test_bisect;
          Alcotest.test_case "bisect no bracket" `Quick test_bisect_rejects_same_sign;
          Alcotest.test_case "golden section" `Quick test_golden_section;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "normal" `Quick test_normal_dist;
          Alcotest.test_case "lognormal moments" `Quick test_lognormal_moments;
          Alcotest.test_case "lognormal fit" `Quick test_lognormal_fit_roundtrip;
          Alcotest.test_case "SN cdf/quantile" `Quick test_skew_normal_cdf_quantile;
          Alcotest.test_case "SN sampling" `Quick test_skew_normal_sampling_matches_moments;
          Alcotest.test_case "SN moment fit" `Quick test_skew_normal_fit_moments;
          Alcotest.test_case "SN saturation" `Quick test_skew_normal_saturates;
          Alcotest.test_case "Burr roundtrip" `Quick test_burr_quantile_roundtrip;
          Alcotest.test_case "Burr moment" `Quick test_burr_moment;
          Alcotest.test_case "Burr fit" `Slow test_burr_fit_recovers;
          Alcotest.test_case "LSN on lognormal" `Quick test_lsn_fit_on_lognormal;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts+density" `Quick test_histogram_counts;
          Alcotest.test_case "kde integrates" `Quick test_kde_integrates;
          Alcotest.test_case "sparkline" `Quick test_sparkline_shape;
        ] );
    ]
