(* Tests for the cell library: cell metadata, logic functions,
   characterisation behaviour (Fig. 4 trends) and serialisation. *)

module T = Nsigma_process.Technology
module Cell = Nsigma_liberty.Cell
module Ch = Nsigma_liberty.Characterize
module Library = Nsigma_liberty.Library
module Moments = Nsigma_stats.Moments
module Sampler = Nsigma_stats.Sampler
module Cell_sim = Nsigma_spice.Cell_sim
module Store = Nsigma_liberty.Store
module Metrics = Nsigma_obs.Metrics
module Grid2d = Nsigma_stats.Interpolate.Grid2d

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let tech = T.with_vdd T.default_28nm 0.6

(* Small shared characterisation tables (built once). *)
let small_slews = [| 10e-12; 100e-12; 300e-12 |]

let small_table =
  lazy
    (Ch.characterize ~n_mc:400 ~slews:small_slews
       ~loads:[| 0.1e-15; 0.4e-15; 2e-15; 6e-15 |]
       tech
       (Cell.make Cell.Inv ~strength:1)
       ~edge:`Fall)

(* ---------- Cell ---------- *)

let test_name_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun strength ->
          let c = Cell.make kind ~strength in
          let c2 = Cell.of_name (Cell.name c) in
          Alcotest.(check bool) "roundtrip" true (c = c2))
        Cell.standard_strengths)
    Cell.all_kinds

let test_of_name_paper_aliases () =
  (* The paper writes AOI2 for AOI21. *)
  let c = Cell.of_name "AOI2X4" in
  Alcotest.(check bool) "AOI2 alias" true (c.Cell.kind = Cell.Aoi21 && c.Cell.strength = 4)

let test_of_name_rejects () =
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Cell.of_name "FOO2X1");
       false
     with Failure _ -> true)

let test_eval_truth_tables () =
  let t = true and f = false in
  Alcotest.(check bool) "nand" true (Cell.eval Cell.Nand2 [| t; t |] = f);
  Alcotest.(check bool) "nor" true (Cell.eval Cell.Nor2 [| f; f |] = t);
  Alcotest.(check bool) "xor" true (Cell.eval Cell.Xor2 [| t; f |] = t);
  Alcotest.(check bool) "xnor" true (Cell.eval Cell.Xnor2 [| t; f |] = f);
  Alcotest.(check bool) "aoi21 (a&b)|c low" true
    (Cell.eval Cell.Aoi21 [| t; t; f |] = f);
  Alcotest.(check bool) "aoi21 all low" true (Cell.eval Cell.Aoi21 [| f; f; f |] = t);
  Alcotest.(check bool) "oai21" true (Cell.eval Cell.Oai21 [| f; f; t |] = t)

let test_eval_arity_check () =
  Alcotest.check_raises "arity" (Invalid_argument "Cell.eval: arity mismatch")
    (fun () -> ignore (Cell.eval Cell.Nand2 [| true |]))

let test_stack_counts () =
  Alcotest.(check int) "inv stack" 1 (Cell.stack_count (Cell.make Cell.Inv ~strength:1));
  Alcotest.(check int) "nand stack" 2
    (Cell.stack_count (Cell.make Cell.Nand2 ~strength:1));
  Alcotest.(check int) "nor stack" 2 (Cell.stack_count (Cell.make Cell.Nor2 ~strength:1));
  Alcotest.(check int) "aoi stack" 2
    (Cell.stack_count (Cell.make Cell.Aoi21 ~strength:1))

let test_input_cap_scales_with_strength () =
  let c1 = Cell.input_cap tech (Cell.make Cell.Inv ~strength:1) in
  let c4 = Cell.input_cap tech (Cell.make Cell.Inv ~strength:4) in
  check_close "4x strength, 4x cap" (4.0 *. c1) c4

let test_fo4_load () =
  let c = Cell.make Cell.Inv ~strength:1 in
  check_close "fo4 = 4 pins" (4.0 *. Cell.input_cap tech c) (Cell.fo4_load tech c)

let test_arc_construction () =
  let sample = Nsigma_process.Variation.nominal in
  let nand = Cell.make Cell.Nand2 ~strength:2 in
  let fall = Cell.arc tech sample nand ~output_edge:`Fall in
  let rise = Cell.arc tech sample nand ~output_edge:`Rise in
  Alcotest.(check int) "fall arc stack depth 2" 2
    (Array.length fall.Nsigma_spice.Arc.devices);
  Alcotest.(check int) "rise arc depth 1" 1
    (Array.length rise.Nsigma_spice.Arc.devices);
  Alcotest.(check bool) "fall pulls down" true
    (fall.Nsigma_spice.Arc.pull = Nsigma_spice.Arc.Pull_down)

(* ---------- Characterize ---------- *)

let test_loads_for_contains_fo4 () =
  let cell = Cell.make Cell.Nand2 ~strength:8 in
  let loads = Ch.loads_for tech cell in
  let fo4 = Cell.fo4_load tech cell in
  Alcotest.(check bool) "FO4 on grid" true
    (Array.exists (fun l -> Float.abs (l -. fo4) < 1e-20) loads);
  (* Ascending. *)
  let ascending = ref true in
  Array.iteri (fun i l -> if i > 0 && l <= loads.(i - 1) then ascending := false) loads;
  Alcotest.(check bool) "ascending" true !ascending

let test_characterize_grid_shape () =
  let table = Lazy.force small_table in
  Alcotest.(check int) "slew rows" 3 (Array.length table.Ch.points);
  Alcotest.(check int) "load cols" 4 (Array.length table.Ch.points.(0))

let test_fig4_trends () =
  (* μ and σ grow with both slew and load (Fig. 4 of the paper). *)
  let table = Lazy.force small_table in
  let m i j = table.Ch.points.(i).(j).Ch.moments in
  Alcotest.(check bool) "mu grows with slew" true
    ((m 2 1).Moments.mean > (m 0 1).Moments.mean);
  Alcotest.(check bool) "mu grows with load" true
    ((m 0 3).Moments.mean > (m 0 0).Moments.mean);
  Alcotest.(check bool) "sigma grows with load" true
    ((m 0 3).Moments.std > (m 0 0).Moments.std)

let test_quantiles_ordered () =
  let table = Lazy.force small_table in
  Array.iter
    (fun row ->
      Array.iter
        (fun (p : Ch.point) ->
          Array.iteri
            (fun i q ->
              if i > 0 && q < p.Ch.quantiles.(i - 1) then
                Alcotest.fail "quantiles must ascend")
            p.Ch.quantiles)
        row)
    table.Ch.points

let test_moments_at_matches_grid_point () =
  let table = Lazy.force small_table in
  let p = table.Ch.points.(1).(2) in
  let m = Ch.moments_at table ~slew:p.Ch.slew ~load:p.Ch.load in
  check_close ~eps:1e-9 "interp at node = node" p.Ch.moments.Moments.mean
    m.Moments.mean

let test_characterize_deterministic () =
  let t1 =
    Ch.characterize ~n_mc:100 ~seed:5 ~slews:[| 10e-12 |] ~loads:[| 1e-15 |] tech
      (Cell.make Cell.Inv ~strength:1)
      ~edge:`Fall
  in
  let t2 =
    Ch.characterize ~n_mc:100 ~seed:5 ~slews:[| 10e-12 |] ~loads:[| 1e-15 |] tech
      (Cell.make Cell.Inv ~strength:1)
      ~edge:`Fall
  in
  check_close "same seed, same mean" t1.Ch.points.(0).(0).Ch.moments.Moments.mean
    t2.Ch.points.(0).(0).Ch.moments.Moments.mean

(* ---------- LUT access: bitwise reference and allocation ---------- *)

(* A tiny characterized library: every lookup below runs over each of
   its tables. *)
let tiny_library =
  lazy
    (Library.characterize_all ~n_mc:60 ~slews:small_slews
       ~exec:Nsigma_exec.Executor.sequential tech
       [ Cell.make Cell.Inv ~strength:1; Cell.make Cell.Nand2 ~strength:2 ])

let tiny_tables () =
  let lib = Lazy.force tiny_library in
  List.map (fun (cell, edge) -> Library.find lib cell ~edge) (Library.cells lib)

(* The same tables cut down to one-knot axes (1x1, 1xN, Nx1). *)
let one_knot_tables () =
  List.concat_map
    (fun (t : Ch.table) ->
      let rebuild ~slews ~loads points =
        Ch.make_table ~cell:t.Ch.cell ~edge:t.Ch.edge ~vdd:t.Ch.vdd
          ~n_mc:t.Ch.n_mc ~kernel:t.Ch.kernel ~sampling:t.Ch.sampling
          ~rtol:t.Ch.rtol ~slews ~loads points
      in
      let s1 = [| t.Ch.slews.(1) |] and l1 = [| t.Ch.loads.(2) |] in
      [
        rebuild ~slews:s1 ~loads:l1 [| [| t.Ch.points.(1).(2) |] |];
        rebuild ~slews:s1 ~loads:t.Ch.loads [| t.Ch.points.(1) |];
        rebuild ~slews:t.Ch.slews ~loads:l1
          (Array.map (fun row -> [| row.(2) |]) t.Ch.points);
      ])
    (tiny_tables ())

(* The bilinear lookup as written before lookups shared one bracket: an
   independent reference for the Float.min/max clamp and the summation
   order. *)
let reference_eval ~xs ~ys values x y =
  let segment axis v =
    let n = Array.length axis in
    if n = 1 || v <= axis.(0) then 0
    else if v >= axis.(n - 1) then max 0 (n - 2)
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if axis.(mid) <= v then lo := mid else hi := mid
      done;
      !lo
    end
  in
  let frac axis i v =
    let n = Array.length axis in
    if n = 1 then 0.0
    else begin
      let a = axis.(i) and b = axis.(min (i + 1) (n - 1)) in
      if b = a then 0.0 else Float.max 0.0 (Float.min 1.0 ((v -. a) /. (b -. a)))
    end
  in
  let i = segment xs x and j = segment ys y in
  let fx = frac xs i x and fy = frac ys j y in
  let i1 = min (i + 1) (Array.length xs - 1) in
  let j1 = min (j + 1) (Array.length ys - 1) in
  ((1.0 -. fx) *. (1.0 -. fy) *. values.(i).(j))
  +. ((1.0 -. fx) *. fy *. values.(i).(j1))
  +. (fx *. (1.0 -. fy) *. values.(i1).(j))
  +. (fx *. fy *. values.(i1).(j1))

(* Where a lookup coordinate falls on an axis: on a knot, mid-interval,
   at a fraction of the axis widened by half its span on each side
   (beyond both edges), or on a signed zero. *)
type spot = Knot of int | Mid of int | Along of float | Zero of bool

let place axis spot =
  let n = Array.length axis in
  let lo = axis.(0) and hi = axis.(n - 1) in
  match spot with
  | Knot i -> axis.(i mod n)
  | Mid i ->
    let i = i mod n in
    0.5 *. (axis.(i) +. axis.(min (i + 1) (n - 1)))
  | Along u ->
    let pad = Float.max (0.5 *. (hi -. lo)) (0.5 *. lo) in
    lo -. pad +. (u *. (hi -. lo +. (2.0 *. pad)))
  | Zero negative -> if negative then -0.0 else 0.0

let spot_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Knot i) nat;
        map (fun i -> Mid i) nat;
        map (fun u -> Along u) (float_bound_inclusive 1.0);
        map (fun b -> Zero b) bool;
      ])

let show_spot = function
  | Knot i -> Printf.sprintf "Knot %d" i
  | Mid i -> Printf.sprintf "Mid %d" i
  | Along u -> Printf.sprintf "Along %h" u
  | Zero b -> Printf.sprintf "Zero %b" b

let bits = Int64.bits_of_float

let test_lookup_bitwise =
  QCheck.Test.make ~count:500 ~name:"LUT lookups = Grid2d.eval, bitwise"
    (QCheck.make
       ~print:(fun (k, (x, y)) -> Printf.sprintf "table %d, %s, %s" k (show_spot x) (show_spot y))
       QCheck.Gen.(pair nat (pair spot_gen spot_gen)))
    (fun (pick, (sx, sy)) ->
      let tables = tiny_tables () @ one_knot_tables () in
      let t = List.nth tables (pick mod List.length tables) in
      let xs = t.Ch.slews and ys = t.Ch.loads in
      let slew = place xs sx and load = place ys sy in
      let same what f got =
        let values = Array.map (Array.map f) t.Ch.points in
        let grid = Grid2d.eval (Grid2d.create ~xs ~ys ~values) slew load in
        let reference = reference_eval ~xs ~ys values slew load in
        if bits got <> bits grid || bits got <> bits reference then
          QCheck.Test.fail_reportf "%s at (%h, %h): got %h, Grid2d %h, reference %h"
            what slew load got grid reference
      in
      let m = Ch.moments_at t ~slew ~load in
      same "mean" (fun p -> p.Ch.moments.Moments.mean) m.Moments.mean;
      same "std" (fun p -> p.Ch.moments.Moments.std) m.Moments.std;
      same "skewness" (fun p -> p.Ch.moments.Moments.skewness) m.Moments.skewness;
      same "kurtosis" (fun p -> p.Ch.moments.Moments.kurtosis) m.Moments.kurtosis;
      same "mean_at" (fun p -> p.Ch.moments.Moments.mean) (Ch.mean_at t ~slew ~load);
      same "out_slew_at" (fun p -> p.Ch.mean_out_slew) (Ch.out_slew_at t ~slew ~load);
      List.iteri
        (fun k sigma ->
          same
            (Printf.sprintf "quantile_at %d" sigma)
            (fun p -> p.Ch.quantiles.(k))
            (Ch.quantile_at t ~slew ~load ~sigma))
        Nsigma_stats.Quantile.sigma_levels;
      m.Moments.n = t.Ch.n_mc)

(* Words allocated per call, over many calls at fixed (static)
   coordinates inside and beyond the grid. *)
let words_per_call f =
  let n = 20_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n / 2 do
    f ~slew:37e-12 ~load:1.3e-15;
    f ~slew:1e-9 ~load:1e-18
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_lookup_allocation () =
  let t = List.hd (tiny_tables ()) in
  let lib = Lazy.force tiny_library in
  let cell = t.Ch.cell and edge = t.Ch.edge in
  let budget what limit words =
    if words > limit then
      Alcotest.failf "%s allocates %.1f words per call (budget %.0f)" what words
        limit
  in
  budget "moments_at" 24.0
    (words_per_call (fun ~slew ~load ->
         ignore (Sys.opaque_identity (Ch.moments_at t ~slew ~load))));
  budget "mean_at" 4.0
    (words_per_call (fun ~slew ~load ->
         ignore (Sys.opaque_identity (Ch.mean_at t ~slew ~load))));
  budget "out_slew_at" 4.0
    (words_per_call (fun ~slew ~load ->
         ignore (Sys.opaque_identity (Ch.out_slew_at t ~slew ~load))));
  budget "Library.find" 4.0
    (words_per_call (fun ~slew:_ ~load:_ ->
         ignore (Sys.opaque_identity (Library.find lib cell ~edge))))

let test_make_table_rejects_bad_shapes () =
  let t = Lazy.force small_table in
  let rebuild ~slews ~loads points =
    ignore
      (Ch.make_table ~cell:t.Ch.cell ~edge:t.Ch.edge ~vdd:t.Ch.vdd
         ~n_mc:t.Ch.n_mc ~kernel:t.Ch.kernel ~sampling:t.Ch.sampling
         ~rtol:t.Ch.rtol ~slews ~loads points)
  in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  let swapped = Array.copy t.Ch.slews in
  swapped.(0) <- t.Ch.slews.(1);
  swapped.(1) <- t.Ch.slews.(0);
  rejects "non-increasing slews" (fun () ->
      rebuild ~slews:swapped ~loads:t.Ch.loads t.Ch.points);
  rejects "repeated load" (fun () ->
      let loads = Array.copy t.Ch.loads in
      loads.(1) <- loads.(0);
      rebuild ~slews:t.Ch.slews ~loads t.Ch.points);
  rejects "empty axis" (fun () -> rebuild ~slews:[||] ~loads:t.Ch.loads [||]);
  rejects "missing row" (fun () ->
      rebuild ~slews:t.Ch.slews ~loads:t.Ch.loads (Array.sub t.Ch.points 0 2));
  rejects "short row" (fun () ->
      rebuild ~slews:t.Ch.slews ~loads:t.Ch.loads
        (Array.map (fun row -> Array.sub row 0 3) t.Ch.points))

(* ---------- Library ---------- *)

let test_library_add_find () =
  let lib = Library.create tech in
  let table = Lazy.force small_table in
  Library.add lib table;
  Alcotest.(check bool) "find works" true
    (Library.find_opt lib (Cell.make Cell.Inv ~strength:1) ~edge:`Fall <> None);
  Alcotest.(check bool) "missing pair absent" true
    (Library.find_opt lib (Cell.make Cell.Inv ~strength:1) ~edge:`Rise = None)

let test_library_save_load_roundtrip () =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let lib2 = Library.load tech path in
  Sys.remove path;
  let t1 = Library.find lib (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  let t2 = Library.find lib2 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j (p : Ch.point) ->
          let q : Ch.point = t2.Ch.points.(i).(j) in
          check_close ~eps:1e-8 "mean preserved" p.Ch.moments.Moments.mean
            q.Ch.moments.Moments.mean;
          check_close ~eps:1e-8 "quantiles preserved" p.Ch.quantiles.(6)
            q.Ch.quantiles.(6);
          check_close ~eps:1e-8 "out slew preserved" p.Ch.mean_out_slew
            q.Ch.mean_out_slew)
        row)
    t1.Ch.points

let test_library_roundtrip_keeps_kernel () =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let t1 = Library.find lib (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  let lib2 = Library.load tech path in
  let lib3 = Library.load ~expect_kernel:t1.Ch.kernel tech path in
  Sys.remove path;
  let t2 = Library.find lib2 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  let t3 = Library.find lib3 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  Alcotest.(check bool) "kernel preserved" true (t2.Ch.kernel = t1.Ch.kernel);
  Alcotest.(check bool) "expected kernel accepted" true
    (t3.Ch.kernel = t1.Ch.kernel)

let test_library_load_rejects_kernel_mismatch () =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let saved = (Library.find lib (Cell.make Cell.Inv ~strength:1) ~edge:`Fall).Ch.kernel in
  let other =
    match saved with Cell_sim.Rk4 -> Cell_sim.Fast | _ -> Cell_sim.Rk4
  in
  Alcotest.(check bool) "kernel mismatch rejected" true
    (try
       ignore (Library.load ~expect_kernel:other tech path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

let test_library_load_rejects_v2 () =
  (* A pre-kernel cache (v2 header) must be detected as stale. *)
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  let oc = open_out path in
  Printf.fprintf oc "NSIGMA_LIB 2 %s %.6f %s\n" tech.T.name
    tech.T.vdd_nominal (String.make 32 'a');
  close_out oc;
  Alcotest.(check bool) "v2 cache rejected as stale" true
    (try
       ignore (Library.load tech path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

let test_library_load_rejects_v3 () =
  (* A pre-sampling-layer cache (v3 header) must be detected as stale. *)
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  let oc = open_out path in
  Printf.fprintf oc "NSIGMA_LIB 3 %s %.6f %s %s\n" tech.T.name
    tech.T.vdd_nominal "fast" (String.make 32 'a');
  close_out oc;
  Alcotest.(check bool) "v3 cache rejected as stale" true
    (try
       ignore (Library.load tech path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

let test_library_sampling_roundtrip () =
  (* A table characterised with a non-default sampling configuration
     keeps it across save/load, and [expect_sampling] accepts it. *)
  let lib = Library.create tech in
  let table =
    Ch.characterize ~n_mc:400 ~slews:small_slews ~loads:[| 0.4e-15; 2e-15 |]
      ~sampling:Sampler.Lhs ~rtol:0.05 tech
      (Cell.make Cell.Inv ~strength:1)
      ~edge:`Fall
  in
  Library.add lib table;
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let lib2 = Library.load tech path in
  let lib3 = Library.load ~expect_sampling:(Sampler.Lhs, Some 0.05) tech path in
  Sys.remove path;
  let t2 = Library.find lib2 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  let t3 = Library.find lib3 (Cell.make Cell.Inv ~strength:1) ~edge:`Fall in
  Alcotest.(check bool) "backend preserved" true (t2.Ch.sampling = Sampler.Lhs);
  Alcotest.(check bool) "rtol preserved" true (t2.Ch.rtol = Some 0.05);
  Alcotest.(check bool) "expected sampling accepted" true
    (t3.Ch.sampling = Sampler.Lhs && t3.Ch.rtol = Some 0.05)

let test_library_load_rejects_sampling_mismatch () =
  (* A cache characterised under one sampling configuration is stale
     for a run requesting another (backend or rtol). *)
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let rejects expect =
    try
      ignore (Library.load ~expect_sampling:expect tech path);
      false
    with Failure _ -> true
  in
  let backend_mismatch = rejects (Sampler.Sobol, None) in
  let rtol_mismatch = rejects (Sampler.Mc, Some 0.01) in
  Sys.remove path;
  Alcotest.(check bool) "backend mismatch rejected" true backend_mismatch;
  Alcotest.(check bool) "rtol mismatch rejected" true rtol_mismatch

let test_library_load_rejects_wrong_vdd () =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let wrong = T.with_vdd T.default_28nm 0.9 in
  Alcotest.(check bool) "vdd mismatch rejected" true
    (try
       ignore (Library.load wrong path);
       Sys.remove path;
       false
     with Failure _ ->
       Sys.remove path;
       true)

(* Save the small table, rewrite the .lvf line by line with [corrupt],
   and load it back: the Failure message, if load rejects the file. *)
let load_corrupted corrupt =
  let lib = Library.create tech in
  Library.add lib (Lazy.force small_table);
  let path = Filename.temp_file "nsigma_test" ".lvf" in
  Library.save lib path;
  let lines =
    In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (String.concat "\n" (List.map corrupt lines)));
  let outcome =
    match Library.load tech path with
    | _ -> None
    | exception Failure msg -> Some msg
  in
  Sys.remove path;
  (path, outcome)

let check_load_failure what (path, outcome) needle =
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  match outcome with
  | None -> Alcotest.failf "%s accepted" what
  | Some msg ->
    Alcotest.(check bool) ("located: " ^ msg) true
      (String.starts_with ~prefix:(path ^ ":") msg);
    Alcotest.(check bool) ("explains: " ^ msg) true (contains msg needle)

let test_library_load_rejects_bad_table () =
  (* A malformed table fails at load with the loader's "path:line:"
     Failure, not at the first lookup deep inside a walk. *)
  check_load_failure "swapped SLEWS knots"
    (load_corrupted (fun line ->
         match String.split_on_char ' ' line with
         | "SLEWS" :: a :: b :: rest -> String.concat " " ("SLEWS" :: b :: a :: rest)
         | _ -> line))
    "slew axis not strictly increasing";
  check_load_failure "POINT off the grid"
    (load_corrupted (fun line ->
         match String.split_on_char ' ' line with
         | "POINT" :: "0" :: "0" :: rest -> String.concat " " ("POINT" :: "0" :: "9" :: rest)
         | _ -> line))
    "POINT 0 9 off the grid"

(* ---------- Store ---------- *)

let fresh_store_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nsigma_test_store_%s_%d" name (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let drop_store_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let test_store_prune_oldest_first () =
  let dir = fresh_store_dir "prune" in
  Fun.protect
    ~finally:(fun () -> drop_store_dir dir)
    (fun () ->
      (try ignore (Store.prune ~dir ~max_bytes:(-1) : int) with
      | Invalid_argument _ -> ()
      | _ -> Alcotest.fail "negative max_bytes must raise Invalid_argument");
      let keys = [ "old"; "middle"; "new" ] in
      List.iter (fun k -> Store.save ~dir ~key:k (String.make 1000 'x')) keys;
      (* Stage mtimes so eviction order is deterministic regardless of
         write timing granularity. *)
      let now = Unix.gettimeofday () in
      List.iteri
        (fun i k ->
          let age = float_of_int (List.length keys - i) *. 100.0 in
          Unix.utimes (Store.path_of ~dir ~key:k) (now -. age) (now -. age))
        keys;
      let total =
        List.fold_left
          (fun acc k ->
            acc + (Unix.stat (Store.path_of ~dir ~key:k)).Unix.st_size)
          0 keys
      in
      let was = Metrics.enabled () in
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Metrics.set_enabled was)
        (fun () ->
          let evicted0 = Metrics.find_counter "provider.store.evicted" in
          Alcotest.(check int) "within bound evicts nothing" 0
            (Store.prune ~dir ~max_bytes:total);
          Alcotest.(check int) "one over evicts exactly the oldest" 1
            (Store.prune ~dir ~max_bytes:(total - 1));
          Alcotest.(check bool) "oldest gone" true
            (Store.find ~dir ~key:"old" ~decode:Option.some = None);
          Alcotest.(check bool) "newer survive" true
            (Store.find ~dir ~key:"middle" ~decode:Option.some <> None
            && Store.find ~dir ~key:"new" ~decode:Option.some <> None);
          Alcotest.(check int) "zero bound empties the store" 2
            (Store.prune ~dir ~max_bytes:0);
          Alcotest.(check int) "empty store is a no-op" 0
            (Store.prune ~dir ~max_bytes:0);
          Alcotest.(check int) "evictions counted" 3
            (Metrics.find_counter "provider.store.evicted" - evicted0)))

let test_store_concurrent_writers () =
  (* Two domains race 50 atomic saves each onto one key: the survivor
     must be one of the two payloads in full, never a splice. *)
  let dir = fresh_store_dir "race" in
  Fun.protect
    ~finally:(fun () -> drop_store_dir dir)
    (fun () ->
      let key = "contended" in
      let payload tag = String.init 4096 (fun i -> if i mod 2 = 0 then tag else 'x') in
      let writer tag () =
        for _ = 1 to 50 do
          Store.save ~dir ~key (payload tag)
        done
      in
      let d = Domain.spawn (writer 'a') in
      writer 'b' ();
      Domain.join d;
      match Store.find ~dir ~key ~decode:Option.some with
      | None -> Alcotest.fail "artifact missing after racing writers"
      | Some p ->
        Alcotest.(check bool)
          "payload is one writer's, intact" true
          (p = payload 'a' || p = payload 'b'))

let test_store_reader_during_prune () =
  (* A domain prunes and refills while the main domain reads: every
     read is either a miss (pruned) or the exact payload — unlink is
     atomic, so no torn reads. *)
  let dir = fresh_store_dir "prune_race" in
  Fun.protect
    ~finally:(fun () -> drop_store_dir dir)
    (fun () ->
      let n = 16 in
      let key i = Printf.sprintf "artifact-%d" i in
      let payload i = Printf.sprintf "payload-%d-%s" i (String.make 300 'x') in
      for i = 0 to n - 1 do
        Store.save ~dir ~key:(key i) (payload i)
      done;
      let stop = Atomic.make false in
      let pruner =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              ignore (Store.prune ~dir ~max_bytes:1500 : int);
              for i = 0 to n - 1 do
                Store.save ~dir ~key:(key i) (payload i)
              done
            done)
      in
      let ok = ref true in
      for _ = 1 to 100 do
        for i = 0 to n - 1 do
          match Store.find ~dir ~key:(key i) ~decode:Option.some with
          | None -> ()
          | Some p -> if p <> payload i then ok := false
        done
      done;
      Atomic.set stop true;
      Domain.join pruner;
      Alcotest.(check bool) "reads are all-or-nothing under prune" true !ok)

let () =
  Alcotest.run "nsigma_liberty"
    [
      ( "cell",
        [
          Alcotest.test_case "name roundtrip" `Quick test_name_roundtrip;
          Alcotest.test_case "paper aliases" `Quick test_of_name_paper_aliases;
          Alcotest.test_case "of_name rejects" `Quick test_of_name_rejects;
          Alcotest.test_case "truth tables" `Quick test_eval_truth_tables;
          Alcotest.test_case "arity check" `Quick test_eval_arity_check;
          Alcotest.test_case "stack counts" `Quick test_stack_counts;
          Alcotest.test_case "input cap scaling" `Quick test_input_cap_scales_with_strength;
          Alcotest.test_case "fo4 load" `Quick test_fo4_load;
          Alcotest.test_case "arc construction" `Quick test_arc_construction;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "loads_for grid" `Quick test_loads_for_contains_fo4;
          Alcotest.test_case "grid shape" `Slow test_characterize_grid_shape;
          Alcotest.test_case "fig4 trends" `Slow test_fig4_trends;
          Alcotest.test_case "quantiles ordered" `Slow test_quantiles_ordered;
          Alcotest.test_case "interp at nodes" `Slow test_moments_at_matches_grid_point;
          Alcotest.test_case "deterministic" `Quick test_characterize_deterministic;
          Alcotest.test_case "make_table shape check" `Slow
            test_make_table_rejects_bad_shapes;
        ] );
      ( "lookup",
        [
          QCheck_alcotest.to_alcotest test_lookup_bitwise;
          Alcotest.test_case "allocation budgets" `Slow test_lookup_allocation;
        ] );
      ( "library",
        [
          Alcotest.test_case "add/find" `Slow test_library_add_find;
          Alcotest.test_case "save/load" `Slow test_library_save_load_roundtrip;
          Alcotest.test_case "kernel roundtrip" `Slow test_library_roundtrip_keeps_kernel;
          Alcotest.test_case "kernel mismatch" `Slow test_library_load_rejects_kernel_mismatch;
          Alcotest.test_case "v2 cache stale" `Quick test_library_load_rejects_v2;
          Alcotest.test_case "v3 cache stale" `Quick test_library_load_rejects_v3;
          Alcotest.test_case "sampling roundtrip" `Slow test_library_sampling_roundtrip;
          Alcotest.test_case "sampling mismatch" `Slow test_library_load_rejects_sampling_mismatch;
          Alcotest.test_case "vdd check" `Slow test_library_load_rejects_wrong_vdd;
          Alcotest.test_case "bad table rejected at load" `Slow
            test_library_load_rejects_bad_table;
        ] );
      ( "store",
        [
          Alcotest.test_case "prune oldest first" `Quick
            test_store_prune_oldest_first;
          Alcotest.test_case "racing writers" `Quick
            test_store_concurrent_writers;
          Alcotest.test_case "reader during prune" `Quick
            test_store_reader_during_prune;
        ] );
    ]
