(* Tests for the N-sigma core: Table-I regression behaviour, moment
   calibration, wire model identities, model persistence. *)

module T = Nsigma_process.Technology
module Moments = Nsigma_stats.Moments
module Rng = Nsigma_stats.Rng
module Quantile = Nsigma_stats.Quantile
module D = Nsigma_stats.Distribution
module Cell = Nsigma_liberty.Cell
module Ch = Nsigma_liberty.Characterize
module Library = Nsigma_liberty.Library
module Cm = Nsigma.Cell_model
module Calibration = Nsigma.Calibration
module Wm = Nsigma.Wire_model
module Model = Nsigma.Model
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let tech = T.with_vdd T.default_28nm 0.6

(* ---------- Cell_model ---------- *)

let test_terms_match_table1 () =
  Alcotest.(check int) "±3σ has 2 terms" 2 (List.length (Cm.terms_for_level 3));
  Alcotest.(check int) "±2σ has 3 terms" 3 (List.length (Cm.terms_for_level (-2)));
  Alcotest.(check int) "0σ has 2 terms" 2 (List.length (Cm.terms_for_level 0));
  Alcotest.(check bool) "±3σ uses σκ not σγ" true
    (List.mem Cm.Sigma_kappa (Cm.terms_for_level 3)
    && not (List.mem Cm.Sigma_gamma (Cm.terms_for_level 3)));
  Alcotest.(check bool) "±1σ uses σγ not σκ" true
    (List.mem Cm.Sigma_gamma (Cm.terms_for_level 1)
    && not (List.mem Cm.Sigma_kappa (Cm.terms_for_level 1)))

let test_gaussian_data_zero_coeffs () =
  (* Training on exactly-Gaussian quantiles must give ~zero corrections
     and predictions equal to μ + nσ. *)
  let g = Rng.create ~seed:101 in
  let observations =
    List.init 60 (fun _ ->
        let mu = 20e-12 +. Rng.float g 80e-12 in
        let sigma = 2e-12 +. Rng.float g 6e-12 in
        let m = { Moments.n = 1000; mean = mu; std = sigma; skewness = 0.0; kurtosis = 3.0 } in
        let quantiles =
          Array.of_list
            (List.map (fun n -> mu +. (float_of_int n *. sigma)) Quantile.sigma_levels)
        in
        { Cm.moments = m; quantiles })
  in
  let model = Cm.fit observations in
  let probe = { Moments.n = 1000; mean = 50e-12; std = 5e-12; skewness = 0.0; kurtosis = 3.0 } in
  List.iter
    (fun n ->
      check_close ~eps:1e-6 "gaussian prediction = μ+nσ"
        (50e-12 +. (float_of_int n *. 5e-12))
        (Cm.predict model probe ~sigma:n))
    Quantile.sigma_levels

let test_lognormal_family_fit () =
  (* Train on lognormal quantiles (the near-threshold shape); the model
     must beat the Gaussian baseline at +3σ on held-out members. *)
  let make_obs sigma_log =
    let d = { D.Lognormal.mu = log 40e-12; sigma = sigma_log } in
    let g = Rng.create ~seed:(int_of_float (sigma_log *. 1000.)) in
    let xs = Array.init 8000 (fun _ -> D.Lognormal.sample d g) in
    Array.sort Float.compare xs;
    let m = Moments.summary_of_array xs in
    let quantiles =
      Array.of_list
        (List.map
           (fun n ->
             Nsigma_stats.Quantile.of_sorted xs
               (Quantile.probability_of_sigma (float_of_int n)))
           Quantile.sigma_levels)
    in
    ({ Cm.moments = m; quantiles }, m, quantiles)
  in
  let train =
    List.map (fun s -> let o, _, _ = make_obs s in o) [ 0.1; 0.15; 0.2; 0.3; 0.35; 0.4 ]
  in
  let model = Cm.fit train in
  let _, m_test, q_test = make_obs 0.25 in
  let idx_p3 = 6 in
  let pred = Cm.predict model m_test ~sigma:3 in
  let gauss = Cm.gaussian_baseline m_test ~sigma:3 in
  let err x = Float.abs (x -. q_test.(idx_p3)) /. q_test.(idx_p3) in
  Alcotest.(check bool) "beats gaussian at +3σ" true (err pred < err gauss);
  Alcotest.(check bool) "+3σ error under 5%" true (err pred < 0.05)

let test_fit_requires_data () =
  Alcotest.check_raises "empty training set"
    (Invalid_argument "Cell_model.fit: empty training set") (fun () ->
      ignore (Cm.fit []))

let test_predict_rejects_bad_sigma () =
  let m = { Moments.n = 1; mean = 1.0; std = 0.1; skewness = 0.0; kurtosis = 3.0 } in
  let model =
    Cm.fit [ { Cm.moments = m; quantiles = [| 0.7; 0.8; 0.9; 1.0; 1.1; 1.2; 1.3 |] } ]
  in
  Alcotest.(check bool) "sigma out of range" true
    (try
       ignore (Cm.predict model m ~sigma:4);
       false
     with Invalid_argument _ -> true)

(* ---------- Calibration ---------- *)

let small_table =
  lazy
    (Ch.characterize ~n_mc:400
       ~slews:[| 10e-12; 50e-12; 150e-12; 300e-12 |]
       ~loads:[| 0.1e-15; 0.4e-15; 1e-15; 3e-15 |]
       tech
       (Cell.make Cell.Inv ~strength:1)
       ~edge:`Fall)

let test_calibration_at_reference () =
  let calib = Calibration.fit (Lazy.force small_table) in
  let ref_m = Calibration.reference_moments calib in
  let m =
    Calibration.moments_at calib ~slew:Calibration.reference_slew
      ~load:Calibration.reference_load
  in
  (* Grid interpolation at the reference grid point is exact. *)
  check_close ~eps:1e-9 "μ at reference" ref_m.Moments.mean m.Moments.mean;
  check_close ~eps:1e-9 "σ at reference" ref_m.Moments.std m.Moments.std

let test_calibration_tracks_conditions () =
  let calib = Calibration.fit (Lazy.force small_table) in
  let m_small = Calibration.moments_at calib ~slew:10e-12 ~load:0.2e-15 in
  let m_big = Calibration.moments_at calib ~slew:200e-12 ~load:2.5e-15 in
  Alcotest.(check bool) "μ grows with condition" true
    (m_big.Moments.mean > m_small.Moments.mean);
  Alcotest.(check bool) "σ grows with condition" true
    (m_big.Moments.std > m_small.Moments.std)

let test_calibration_physical_clamps () =
  let calib = Calibration.fit (Lazy.force small_table) in
  (* Far outside the grid: still physical. *)
  let m = Calibration.moments_at calib ~slew:5e-9 ~load:1e-12 in
  Alcotest.(check bool) "σ positive" true (m.Moments.std > 0.0);
  Alcotest.(check bool) "κ >= 1" true (m.Moments.kurtosis >= 1.0)

let test_calibration_surface_mode () =
  let calib = Calibration.fit (Lazy.force small_table) in
  let m_grid = Calibration.moments_at calib ~slew:80e-12 ~load:1.5e-15 in
  let m_surf = Calibration.moments_at_surface calib ~slew:80e-12 ~load:1.5e-15 in
  (* The two evaluations should agree within ~15% on the mean. *)
  Alcotest.(check bool) "surface close to grid" true
    (Float.abs (m_surf.Moments.mean -. m_grid.Moments.mean)
    < 0.15 *. m_grid.Moments.mean)

let test_calibration_serialisation () =
  let calib = Calibration.fit (Lazy.force small_table) in
  let calib2 = Calibration.of_lines (Calibration.to_lines calib) in
  let m1 = Calibration.moments_at calib ~slew:77e-12 ~load:0.9e-15 in
  let m2 = Calibration.moments_at calib2 ~slew:77e-12 ~load:0.9e-15 in
  check_close ~eps:1e-6 "roundtrip μ" m1.Moments.mean m2.Moments.mean;
  check_close ~eps:1e-6 "roundtrip γ" m1.Moments.skewness m2.Moments.skewness;
  let s1 = Calibration.moments_at_surface calib ~slew:77e-12 ~load:0.9e-15 in
  let s2 = Calibration.moments_at_surface calib2 ~slew:77e-12 ~load:0.9e-15 in
  check_close ~eps:1e-6 "roundtrip surface μ" s1.Moments.mean s2.Moments.mean

(* ---------- Wire_model ---------- *)

let test_theoretical_x () =
  check_close "INVX4 is the reference" 1.0
    (Wm.theoretical_x (Cell.make Cell.Inv ~strength:4));
  check_close "INVX1 = 2" 2.0 (Wm.theoretical_x (Cell.make Cell.Inv ~strength:1));
  check_close "NAND2X2 = 1" 1.0 (Wm.theoretical_x (Cell.make Cell.Nand2 ~strength:2))

let synthetic_wire_model () =
  {
    Wm.ratio_fo4 = 0.2;
    x_table =
      [ (Cell.make Cell.Inv ~strength:1, 2.0); (Cell.make Cell.Inv ~strength:4, 1.0);
        (Cell.make Cell.Nand2 ~strength:1, 1.5) ];
    scale_fi = 1.0;
    scale_fo = 1.0;
  }

let test_variability_eq7 () =
  let wm = synthetic_wire_model () in
  let inv1 = Cell.make Cell.Inv ~strength:1 in
  let inv4 = Cell.make Cell.Inv ~strength:4 in
  (* X_w = X_FI·(X_FI·r4) + X_FO·(X_FO·r4) = (X_FI² + X_FO²)·r4. *)
  check_close ~eps:1e-12 "eq 7" (((2.0 *. 2.0) +. (1.0 *. 1.0)) *. 0.2)
    (Wm.variability wm ~driver:inv1 ~load:(Some inv4));
  check_close ~eps:1e-12 "no load term" (2.0 *. 2.0 *. 0.2)
    (Wm.variability wm ~driver:inv1 ~load:None)

let test_quantile_eq9 () =
  let wm = synthetic_wire_model () in
  let inv4 = Cell.make Cell.Inv ~strength:4 in
  let xw = Wm.variability wm ~driver:inv4 ~load:None in
  let elmore = 10e-12 in
  check_close ~eps:1e-12 "eq 9 at +3σ" ((1.0 +. (3.0 *. xw)) *. elmore)
    (Wm.quantile wm ~elmore ~driver:inv4 ~load:None ~sigma:3);
  check_close ~eps:1e-12 "eq 9 symmetric" ((1.0 -. (3.0 *. xw)) *. elmore)
    (Wm.quantile wm ~elmore ~driver:inv4 ~load:None ~sigma:(-3))

let test_stronger_driver_less_variability () =
  let wm = synthetic_wire_model () in
  let x1 = Wm.variability wm ~driver:(Cell.make Cell.Inv ~strength:1) ~load:None in
  let x4 = Wm.variability wm ~driver:(Cell.make Cell.Inv ~strength:4) ~load:None in
  Alcotest.(check bool) "x4 driver calmer than x1" true (x4 < x1)

let test_fit_scales_recovers () =
  let wm = synthetic_wire_model () in
  let inv1 = Cell.make Cell.Inv ~strength:1 in
  let inv4 = Cell.make Cell.Inv ~strength:4 in
  let nand = Cell.make Cell.Nand2 ~strength:1 in
  (* Generate observations from a known (a,b) = (0.6, 0.3). *)
  let truth = { wm with Wm.scale_fi = 0.6; scale_fo = 0.3 } in
  let configs =
    [ (inv1, Some inv4); (inv4, Some inv1); (nand, Some inv4); (inv4, Some nand);
      (inv1, Some nand); (nand, Some inv1) ]
  in
  let obs =
    List.map
      (fun (d, l) ->
        { Wm.driver = d; load = l;
          measured_variability = Wm.variability truth ~driver:d ~load:l })
      configs
  in
  let fitted = Wm.fit_scales wm obs in
  check_close ~eps:1e-8 "scale_fi recovered" 0.6 fitted.Wm.scale_fi;
  check_close ~eps:1e-8 "scale_fo recovered" 0.3 fitted.Wm.scale_fo

let test_wire_model_serialisation () =
  let wm = synthetic_wire_model () in
  let wm2 = Wm.of_lines (Wm.to_lines wm) in
  check_close "ratio" wm.Wm.ratio_fo4 wm2.Wm.ratio_fo4;
  Alcotest.(check int) "x table size" (List.length wm.Wm.x_table)
    (List.length wm2.Wm.x_table)

(* ---------- Model (end to end, small library) ---------- *)

let small_library =
  lazy
    (let cells =
       [ Cell.make Cell.Inv ~strength:1; Cell.make Cell.Inv ~strength:4;
         Cell.make Cell.Nand2 ~strength:1 ]
     in
     Library.load_or_characterize ~n_mc:300
       ~slews:[| 10e-12; 100e-12; 300e-12 |]
       ~path:(Filename.concat (Filename.get_temp_dir_name ()) "nsigma_test_core.lvf")
       tech cells)

let test_model_build_and_quantiles_ordered () =
  let model = Model.build (Lazy.force small_library) in
  let cell = Cell.make Cell.Nand2 ~strength:1 in
  let q n =
    Model.cell_quantile model cell ~edge:`Fall ~input_slew:50e-12 ~load_cap:1e-15
      ~sigma:n
  in
  Alcotest.(check bool) "quantiles ascend" true
    (q (-3) < q (-1) && q (-1) < q 0 && q 0 < q 1 && q 1 < q 3);
  Alcotest.(check bool) "right tail longer than left (skewed)" true
    (q 3 -. q 0 > q 0 -. q (-3))

let test_model_wire_quantile () =
  let model = Model.build (Lazy.force small_library) in
  let tree = Rctree.ladder ~segments:4 ~res_per_seg:200.0 ~cap_per_seg:1e-15 in
  let driver = Cell.make Cell.Inv ~strength:1 in
  let elmore = Elmore.delay_at tree 4 in
  let q0 = Model.wire_quantile model ~tree ~tap:4 ~driver ~load:None ~sigma:0 in
  check_close ~eps:1e-12 "0σ wire = Elmore" elmore q0;
  let q3 = Model.wire_quantile model ~tree ~tap:4 ~driver ~load:None ~sigma:3 in
  Alcotest.(check bool) "+3σ above Elmore" true (q3 > elmore)

let test_model_save_load () =
  let model = Model.build (Lazy.force small_library) in
  let path = Filename.temp_file "nsigma_model" ".coeffs" in
  Model.save model path;
  let model2 = Model.load (Lazy.force small_library) path in
  Sys.remove path;
  let cell = Cell.make Cell.Inv ~strength:1 in
  List.iter
    (fun n ->
      check_close ~eps:1e-6 "persisted quantiles agree"
        (Model.cell_quantile model cell ~edge:`Fall ~input_slew:60e-12
           ~load_cap:0.8e-15 ~sigma:n)
        (Model.cell_quantile model2 cell ~edge:`Fall ~input_slew:60e-12
           ~load_cap:0.8e-15 ~sigma:n))
    [ -3; 0; 3 ];
  check_close ~eps:1e-9 "wire scales persisted" model.Model.wire.Wm.scale_fi
    model2.Model.wire.Wm.scale_fi

let test_model_save_load_save () =
  (* Save -> load -> save reproduces every per-(cell, edge) key line
     (CLEVEL, CALIB headers, X) in the same order, byte for byte.  SURF
     lines are refitted from the grid on load, so they are left out. *)
  let model = Model.build (Lazy.force small_library) in
  let save m =
    let path = Filename.temp_file "nsigma_model" ".coeffs" in
    Model.save m path;
    let text = In_channel.with_open_text path In_channel.input_all in
    (path, text)
  in
  let path1, text1 = save model in
  let model2 = Model.load (Lazy.force small_library) path1 in
  let path2, text2 = save model2 in
  Sys.remove path1;
  Sys.remove path2;
  let keep text =
    String.split_on_char '\n' text
    |> List.filter (fun l -> not (String.length l >= 5 && String.sub l 0 5 = "SURF_"))
  in
  Alcotest.(check (list string)) "non-surface lines stable" (keep text1) (keep text2);
  Alcotest.(check bool) "per-cell lines present" true
    (List.exists (fun l -> String.length l > 7 && String.sub l 0 7 = "CLEVEL ") (keep text1))

let test_model_missing_cell_raises () =
  let model = Model.build (Lazy.force small_library) in
  Alcotest.(check bool) "uncharacterised cell" true
    (try
       ignore
         (Model.cell_quantile model (Cell.make Cell.Xor2 ~strength:8) ~edge:`Fall
            ~input_slew:10e-12 ~load_cap:1e-15 ~sigma:0);
       false
     with Not_found -> true)

let () =
  Alcotest.run "nsigma_core"
    [
      ( "cell_model",
        [
          Alcotest.test_case "table-1 terms" `Quick test_terms_match_table1;
          Alcotest.test_case "gaussian zero" `Quick test_gaussian_data_zero_coeffs;
          Alcotest.test_case "lognormal family" `Slow test_lognormal_family_fit;
          Alcotest.test_case "empty fit" `Quick test_fit_requires_data;
          Alcotest.test_case "bad sigma" `Quick test_predict_rejects_bad_sigma;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "reference point" `Slow test_calibration_at_reference;
          Alcotest.test_case "tracks conditions" `Slow test_calibration_tracks_conditions;
          Alcotest.test_case "clamps" `Slow test_calibration_physical_clamps;
          Alcotest.test_case "surface mode" `Slow test_calibration_surface_mode;
          Alcotest.test_case "serialisation" `Slow test_calibration_serialisation;
        ] );
      ( "wire_model",
        [
          Alcotest.test_case "theoretical X" `Quick test_theoretical_x;
          Alcotest.test_case "eq 7" `Quick test_variability_eq7;
          Alcotest.test_case "eq 9" `Quick test_quantile_eq9;
          Alcotest.test_case "driver strength" `Quick test_stronger_driver_less_variability;
          Alcotest.test_case "fit scales" `Quick test_fit_scales_recovers;
          Alcotest.test_case "serialisation" `Quick test_wire_model_serialisation;
        ] );
      ( "model",
        [
          Alcotest.test_case "quantiles ordered" `Slow test_model_build_and_quantiles_ordered;
          Alcotest.test_case "wire quantile" `Slow test_model_wire_quantile;
          Alcotest.test_case "save/load" `Slow test_model_save_load;
          Alcotest.test_case "save/load/save stable" `Slow test_model_save_load_save;
          Alcotest.test_case "missing cell" `Slow test_model_missing_cell_raises;
        ] );
    ]
