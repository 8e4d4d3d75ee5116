(* Batch layer: the SoA fast-kernel path and its polynomial
   transcendentals.

   The load-bearing invariant is opt-out bit-identity: with [batch] on
   and [approx] off, every population — arc, path, SSTA mini-MC — must
   be bitwise-equal to the scalar planned loop on every executor
   backend, because sample [i] stays a pure function of (seed, i) and
   the SoA layout only interchanges loops, never reorders a sample's
   float operations.  On top of that, the Fastmath kernels must honour
   their advertised relative-error bound against libm over dense
   sweeps, and the [approx] mode built on them must stay within the
   fast kernel's own model error of the exact populations. *)

module T = Nsigma_process.Technology
module Rng = Nsigma_stats.Rng
module Fastmath = Nsigma_stats.Fastmath
module Sampler = Nsigma_stats.Sampler
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Executor = Nsigma_exec.Executor
module Cell = Nsigma_liberty.Cell
module Netlist = Nsigma_netlist.Netlist
module Design = Nsigma_sta.Design
module Path_mc = Nsigma_sta.Path_mc
module Ssta = Nsigma_sta.Ssta

let tech = T.with_vdd T.default_28nm 0.6

let execs () =
  [ ("seq", Executor.sequential); ("pool2", Executor.domain_pool ~jobs:2 ()) ]

let check_bits ~what expected actual =
  Alcotest.(check int)
    (what ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      let a = actual.(i) in
      let same =
        (Float.is_nan e && Float.is_nan a)
        || Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float a)
      in
      if not same then
        Alcotest.failf "%s: sample %d differs: %h vs %h" what i e a)
    expected

(* ---------- Fastmath: polynomial kernels vs libm ---------- *)

let rel_err ref v =
  if ref = v then 0.0
  else if Float.abs ref > 0.0 then Float.abs ((v -. ref) /. ref)
  else Float.abs (v -. ref)

(* Dense affine sweep of [f] against oracle [g] over [lo, hi]; the odd
   step keeps the grid off exact binades so the range reductions are
   exercised at awkward points. *)
let sweep ~what ~lo ~hi ~n f g =
  let worst = ref 0.0 and at = ref Float.nan in
  for i = 0 to n - 1 do
    let x = lo +. ((hi -. lo) *. (float_of_int i +. 0.137) /. float_of_int n) in
    let e = rel_err (g x) (f x) in
    if e > !worst then begin
      worst := e;
      at := x
    end
  done;
  if !worst > Fastmath.max_rel_error then
    Alcotest.failf "%s: rel err %.3e at x=%.17g exceeds %.1e" what !worst !at
      Fastmath.max_rel_error

let test_fastmath_exp () =
  sweep ~what:"exp core" ~lo:(-20.0) ~hi:20.0 ~n:200_000 Fastmath.exp
    Stdlib.exp;
  sweep ~what:"exp wide" ~lo:(-700.0) ~hi:700.0 ~n:200_000 Fastmath.exp
    Stdlib.exp;
  (* Saturation and specials behave like libm. *)
  Alcotest.(check bool) "overflow" true (Fastmath.exp 710.0 = infinity);
  Alcotest.(check bool) "underflow" true (Fastmath.exp (-746.0) = 0.0);
  Alcotest.(check bool) "exp 0" true (Fastmath.exp 0.0 = 1.0);
  Alcotest.(check bool) "exp nan" true (Float.is_nan (Fastmath.exp Float.nan));
  Alcotest.(check bool) "exp inf" true (Fastmath.exp infinity = infinity);
  Alcotest.(check bool) "exp -inf" true (Fastmath.exp neg_infinity = 0.0)

let test_fastmath_log () =
  sweep ~what:"log near 1" ~lo:0.5 ~hi:2.0 ~n:200_000 Fastmath.log Stdlib.log;
  sweep ~what:"log mid" ~lo:1e-12 ~hi:1e3 ~n:200_000 Fastmath.log Stdlib.log;
  (* Log-spaced sweep across the full exponent range, subnormals
     included. *)
  for e = -1070 to 1020 do
    let x = Float.ldexp 1.3717 e in
    let err = rel_err (Stdlib.log x) (Fastmath.log x) in
    if err > Fastmath.max_rel_error then
      Alcotest.failf "log 2^%d: rel err %.3e" e err
  done;
  Alcotest.(check bool) "log 1" true (Fastmath.log 1.0 = 0.0);
  Alcotest.(check bool) "log 0" true (Fastmath.log 0.0 = neg_infinity);
  Alcotest.(check bool) "log neg" true (Float.is_nan (Fastmath.log (-1.0)));
  Alcotest.(check bool) "log inf" true (Fastmath.log infinity = infinity)

let test_fastmath_log1p () =
  sweep ~what:"log1p small" ~lo:(-0.5) ~hi:0.5 ~n:200_000 Fastmath.log1p
    Stdlib.log1p;
  sweep ~what:"log1p tiny" ~lo:(-1e-8) ~hi:1e-8 ~n:50_000 Fastmath.log1p
    Stdlib.log1p;
  sweep ~what:"log1p wide" ~lo:0.5 ~hi:1e6 ~n:100_000 Fastmath.log1p
    Stdlib.log1p;
  sweep ~what:"log1p lower" ~lo:(-0.999) ~hi:(-0.5) ~n:50_000 Fastmath.log1p
    Stdlib.log1p

let test_fastmath_log1p_exp () =
  (* Oracle: the numerically-stable softplus in full libm precision. *)
  let oracle x =
    if x > 0.0 then x +. Stdlib.log1p (Stdlib.exp (-.x))
    else Stdlib.log1p (Stdlib.exp x)
  in
  sweep ~what:"log1p_exp band" ~lo:(-34.9) ~hi:34.9 ~n:400_000
    Fastmath.log1p_exp oracle;
  sweep ~what:"log1p_exp lower" ~lo:(-80.0) ~hi:(-35.0) ~n:50_000
    Fastmath.log1p_exp oracle;
  (* Above the saturation cut the result is exactly x. *)
  Alcotest.(check bool) "saturates high" true (Fastmath.log1p_exp 36.0 = 36.0)

(* ---------- arc populations: batch = scalar (bitwise) ---------- *)

let arc_workload =
  [ (Cell.make Inv ~strength:1, `Rise);
    (Cell.make Nand2 ~strength:2, `Fall);
    (Cell.make Aoi21 ~strength:1, `Rise) ]

let arc_population ?batch ?approx ~exec ~n ~seed (cell, edge) =
  Monte_carlo.arc_delays_planned ~exec ~kernel:Cell_sim.Fast ?batch ?approx
    tech (Rng.create ~seed) ~n
    ~plan:(fun () -> Cell.plan tech cell ~output_edge:edge)
    ~input_slew:40e-12
    ~load_cap:(Cell.fo4_load tech cell)

let test_arc_batch_identity () =
  List.iter
    (fun ((cell, _) as arc) ->
      let expected, expected_slews =
        arc_population ~exec:Executor.sequential ~n:300 ~seed:42 arc
      in
      List.iter
        (fun (ename, exec) ->
          let delays, slews =
            arc_population ~batch:true ~exec ~n:300 ~seed:42 arc
          in
          let what =
            Printf.sprintf "arc %s batch/%s" (Cell.name cell) ename
          in
          check_bits ~what expected delays;
          check_bits ~what:(what ^ " slews") expected_slews slews)
        (execs ()))
    arc_workload

(* The approximate path is opt-in and NOT bitwise — but its population
   must track the exact one within far less than the fast kernel's own
   model error.  Tiny per-sample divergences can flip a step-control
   branch, so individual samples get a loose bar and the mean a tight
   one. *)
let test_arc_approx_close () =
  List.iter
    (fun ((cell, _) as arc) ->
      let exact, _ = arc_population ~exec:Executor.sequential ~n:400 ~seed:7 arc
      and approx, _ =
        arc_population ~batch:true ~approx:true ~exec:Executor.sequential
          ~n:400 ~seed:7 arc
      in
      let ce = Monte_carlo.compact_nan exact
      and ca = Monte_carlo.compact_nan approx in
      Alcotest.(check int)
        (Cell.name cell ^ " same convergent count")
        (Array.length ce) (Array.length ca);
      let mean a =
        Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)
      in
      let me = mean ce and ma = mean ca in
      Alcotest.(check bool)
        (Printf.sprintf "%s mean err %.2e" (Cell.name cell)
           (rel_err me ma))
        true
        (rel_err me ma < 1e-4);
      Array.iteri
        (fun i e ->
          if rel_err e ca.(i) > 0.02 then
            Alcotest.failf "%s sample %d: approx %.6e vs exact %.6e"
              (Cell.name cell) i ca.(i) e)
        ce)
    arc_workload

(* ---------- path populations: batch = scalar (bitwise) ---------- *)

let small_design () =
  let module Bm = Nsigma_netlist.Benchmarks in
  let module Engine = Nsigma_sta.Engine in
  let module Provider = Nsigma_sta.Provider in
  let bm = List.hd Bm.small_variants in
  let nl = bm.Bm.generate () in
  let design = Design.attach_parasitics tech nl in
  let used_cells =
    Array.to_list nl.Netlist.gates
    |> List.map (fun g -> g.Netlist.cell)
    |> List.sort_uniq compare
  in
  let lib = Nsigma_liberty.Library.characterize_all ~n_mc:60 tech used_cells in
  let report = Engine.analyze tech (Provider.nominal lib) design in
  (design, lib, Engine.critical_path report)

let test_path_batch_identity () =
  let design, _, path = small_design () in
  let expected =
    Path_mc.run ~kernel:Cell_sim.Fast ~steps:80 ~n:40 ~seed:11
      ~exec:Executor.sequential tech design path
  in
  List.iter
    (fun (ename, exec) ->
      let r =
        Path_mc.run ~kernel:Cell_sim.Fast ~steps:80 ~n:40 ~seed:11 ~exec
          ~batch:true tech design path
      in
      check_bits ~what:("path batch/" ^ ename) expected.Path_mc.samples
        r.Path_mc.samples)
    (execs ())

(* ---------- SSTA provider: batched mini-MC = scalar (bitwise) ---------- *)

let test_ssta_batch_identity () =
  let design, lib, _ = small_design () in
  (* Each configuration gets its own load of one private .lvf: a library
     value memoizes the provider's regressions, so a shared one would
     serve the batched configuration the scalar one's. *)
  let path = Filename.temp_file "nsigma_test_batch" ".lvf" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Nsigma_liberty.Library.save lib path;
  let dist ~batch =
    let lib = Nsigma_liberty.Library.load tech path in
    let provider = Ssta.lvf_provider ~seed:3 ~batch tech lib design in
    Ssta.circuit_dist (Ssta.analyze tech provider design)
  in
  let d0 = dist ~batch:false and d1 = dist ~batch:true in
  check_bits ~what:"ssta mean"
    [| d0.Ssta.d_mean; d0.Ssta.d_var_l; d0.Ssta.d_m3_l; d0.Ssta.d_m4_l |]
    [| d1.Ssta.d_mean; d1.Ssta.d_var_l; d1.Ssta.d_m3_l; d1.Ssta.d_m4_l |];
  check_bits ~what:"ssta linear sens" d0.Ssta.d_a d1.Ssta.d_a;
  check_bits ~what:"ssta quadratic sens" d0.Ssta.d_b d1.Ssta.d_b

let () =
  Alcotest.run "batch"
    [
      ( "fastmath",
        [
          Alcotest.test_case "exp within 1e-7 of libm" `Quick
            test_fastmath_exp;
          Alcotest.test_case "log within 1e-7 of libm" `Quick
            test_fastmath_log;
          Alcotest.test_case "log1p within 1e-7 of libm" `Quick
            test_fastmath_log1p;
          Alcotest.test_case "log1p_exp within 1e-7 of libm" `Quick
            test_fastmath_log1p_exp;
        ] );
      ( "bit_identity",
        [
          Alcotest.test_case "arc batch = scalar (bitwise)" `Quick
            test_arc_batch_identity;
          Alcotest.test_case "path batch = scalar (bitwise)" `Slow
            test_path_batch_identity;
          Alcotest.test_case "ssta batch = scalar (bitwise)" `Slow
            test_ssta_batch_identity;
        ] );
      ( "approx",
        [
          Alcotest.test_case "approx tracks exact" `Quick
            test_arc_approx_close;
        ] );
    ]
