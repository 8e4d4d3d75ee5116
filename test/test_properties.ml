(* Cross-module property tests: serialisation round-trips on random
   structures, STA invariants on random designs, statistical identities. *)

module T = Nsigma_process.Technology
module Rng = Nsigma_stats.Rng
module Moments = Nsigma_stats.Moments
module Quantile = Nsigma_stats.Quantile
module Cell = Nsigma_liberty.Cell
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Spef = Nsigma_rcnet.Spef
module Wire_gen = Nsigma_rcnet.Wire_gen
module Ceff = Nsigma_rcnet.Ceff
module N = Nsigma_netlist.Netlist
module G = Nsigma_netlist.Generators
module V = Nsigma_netlist.Verilog_lite
module Design = Nsigma_sta.Design
module Engine = Nsigma_sta.Engine
module Provider = Nsigma_sta.Provider
module Path = Nsigma_sta.Path
module Ssta = Nsigma_sta.Ssta
module Incremental = Nsigma_sta.Incremental
module Edit = Nsigma_netlist.Edit
module Library = Nsigma_liberty.Library
module Executor = Nsigma_exec.Executor

let tech = T.with_vdd T.default_28nm 0.6

(* Random structure generators driven by a seed, so shrinking works on
   the seed. *)
let tree_of_seed seed =
  let g = Rng.create ~seed in
  let spec =
    {
      Wire_gen.min_length_um = 2.0;
      max_length_um = 80.0;
      segments = 1 + Rng.int g 15;
      branch_prob = Rng.uniform g *. 0.5;
    }
  in
  Wire_gen.random_tree tech spec g

(* [random_logic] needs at least one gate per level, so the depth is
   capped at the gate count (only 8 gates at depth 9 ever hit the cap).
   The draws stay in the order the arguments used to be evaluated in
   (depth, gates, inputs), so every other seed keeps its netlist. *)
let netlist_of_seed seed =
  let g = Rng.create ~seed in
  let depth = 2 + Rng.int g 8 in
  let n_gates = 8 + Rng.int g 60 in
  let n_inputs = 2 + Rng.int g 10 in
  G.random_logic
    ~name:(Printf.sprintf "p%d" seed)
    ~n_inputs ~n_gates ~depth:(min depth n_gates) ~seed

let seed_arb = QCheck.int_bound 100_000

let prop_spef_roundtrip =
  QCheck.Test.make ~count:60 ~name:"SPEF round-trip preserves Elmore"
    seed_arb
    (fun seed ->
      let tree = tree_of_seed seed in
      match Spef.of_string (Spef.to_string ~name:"n" tree) with
      | [ (_, tree2) ] ->
        (* %.12g text carries ~1e-12 relative error per segment; sums
           over segments accumulate it. *)
        let close a b = Float.abs (a -. b) <= 1e-8 *. (1.0 +. Float.abs a) in
        close (Rctree.total_cap tree) (Rctree.total_cap tree2)
        && close (Rctree.total_res tree) (Rctree.total_res tree2)
        && Array.length tree.Rctree.taps = Array.length tree2.Rctree.taps
        && (let e1 = Elmore.delays tree and e2 = Elmore.delays tree2 in
            (* Same multiset of tap Elmore delays (node order may differ). *)
            let taps d (t : Rctree.t) =
              Array.to_list (Array.map (fun i -> d.(i)) t.Rctree.taps)
              |> List.sort Float.compare
            in
            List.for_all2 close (taps e1 tree) (taps e2 tree2))
      | _ -> false)

let prop_verilog_roundtrip =
  QCheck.Test.make ~count:40 ~name:"Verilog round-trip preserves function"
    seed_arb
    (fun seed ->
      let nl = netlist_of_seed seed in
      let nl2 = V.of_string (V.to_string nl) in
      let g = Rng.create ~seed:(seed + 1) in
      let ok = ref (N.n_cells nl = N.n_cells nl2) in
      for _ = 1 to 5 do
        let ins =
          Array.init (Array.length nl.N.primary_inputs) (fun _ -> Rng.uniform g < 0.5)
        in
        if N.eval nl ins <> N.eval nl2 ins then ok := false
      done;
      !ok)

let prop_elmore_additive_along_path =
  QCheck.Test.make ~count:60 ~name:"Elmore grows along any root-to-leaf path"
    seed_arb
    (fun seed ->
      let tree = tree_of_seed seed in
      let delays = Elmore.delays tree in
      Array.for_all
        (fun tap ->
          let path = Rctree.path_to_root tree tap in
          let rec decreasing = function
            | a :: (b :: _ as rest) -> delays.(a) >= delays.(b) && decreasing rest
            | _ -> true
          in
          decreasing path)
        tree.Rctree.taps)

let prop_ceff_bounded =
  QCheck.Test.make ~count:60 ~name:"Ceff within (0, total]" seed_arb
    (fun seed ->
      let tree = tree_of_seed seed in
      let total = Rctree.total_cap tree in
      let ceff = Ceff.effective ~driver_resistance:800.0 tree in
      ceff > 0.0 && ceff <= total +. 1e-21)

let prop_scale_linearity =
  QCheck.Test.make ~count:40 ~name:"Elmore scales linearly with R and C"
    seed_arb
    (fun seed ->
      let tree = tree_of_seed seed in
      let tap = tree.Rctree.taps.(0) in
      let base = Elmore.delay_at tree tap in
      let doubled =
        Elmore.delay_at (Rctree.scale tree ~res_factor:2.0 ~cap_factor:1.0) tap
      in
      Float.abs (doubled -. (2.0 *. base)) < 1e-9 *. (1.0 +. doubled))

(* Engine invariants under a positive random-delay provider. *)
let random_provider seed =
  let delay_of gate ~edge ~input_slew ~load_cap =
    (* Deterministic pseudo-random positive delay per lookup context. *)
    let h =
      Hashtbl.hash
        (gate.N.g_name, edge = Provider.Rise, int_of_float (input_slew *. 1e15),
         int_of_float (load_cap *. 1e18), seed)
    in
    1e-12 *. (1.0 +. float_of_int (h mod 50))
  in
  {
    Provider.label = "random";
    cell_delay = delay_of;
    cell_out_slew = (fun _ ~edge:_ ~input_slew ~load_cap:_ -> input_slew);
    wire_delay =
      (fun ~net ~driver:_ ~sink:_ ~tree:_ ~tap ->
        1e-13 *. float_of_int (1 + ((net + tap) mod 7)));
    wire_slew_degrade = (fun ~wire_delay:_ ~slew_at_root -> slew_at_root);
  }

let prop_critical_path_consistent =
  QCheck.Test.make ~count:30 ~name:"critical path total = circuit delay"
    seed_arb
    (fun seed ->
      let nl = netlist_of_seed seed in
      let design = Design.attach_parasitics tech nl in
      let report = Engine.analyze tech (random_provider seed) design in
      let delay = Engine.circuit_delay report in
      let path = Engine.critical_path report in
      Float.abs (path.Path.total -. delay) < 1e-15 +. (1e-9 *. delay))

let prop_path_sums_to_total =
  QCheck.Test.make ~count:30 ~name:"hop delays sum to the path total"
    seed_arb
    (fun seed ->
      let nl = netlist_of_seed seed in
      let design = Design.attach_parasitics tech nl in
      let report = Engine.analyze tech (random_provider seed) design in
      let path = Engine.critical_path report in
      let total =
        List.fold_left
          (fun acc (h : Path.hop) -> acc +. h.Path.wire_delay +. h.Path.cell_delay)
          path.Path.end_wire_delay path.Path.hops
      in
      Float.abs (total -. path.Path.total) < 1e-15 +. (1e-9 *. path.Path.total))

let prop_arrivals_nonnegative =
  QCheck.Test.make ~count:30 ~name:"all arrivals are non-negative" seed_arb
    (fun seed ->
      let nl = netlist_of_seed seed in
      let design = Design.attach_parasitics tech nl in
      let report = Engine.analyze tech (random_provider seed) design in
      let ok = ref true in
      for net = 0 to nl.N.n_nets - 1 do
        List.iter
          (fun edge ->
            match Engine.arrival report ~net ~edge with
            | Some a -> if a.Engine.time < 0.0 then ok := false
            | None -> ())
          [ Provider.Rise; Provider.Fall ]
      done;
      !ok)

let prop_moments_merge_commutative =
  QCheck.Test.make ~count:100 ~name:"moment merge is commutative"
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_range (-5.) 5.))
              (list_of_size (Gen.int_range 1 30) (float_range (-5.) 5.)))
    (fun (xs, ys) ->
      let a = Moments.of_array (Array.of_list xs) in
      let b = Moments.of_array (Array.of_list ys) in
      let m1 = Moments.summary (Moments.merge a b) in
      let m2 = Moments.summary (Moments.merge b a) in
      Float.abs (m1.Moments.mean -. m2.Moments.mean) < 1e-9
      && Float.abs (m1.Moments.std -. m2.Moments.std) < 1e-9)

let floats_arb lo hi =
  QCheck.(list_of_size (Gen.int_range 1 30) (float_range lo hi))

let prop_moments_merge_associative =
  QCheck.Test.make ~count:100 ~name:"moment merge is associative"
    QCheck.(triple (floats_arb (-5.) 5.) (floats_arb (-5.) 5.)
              (floats_arb (-5.) 5.))
    (fun (xs, ys, zs) ->
      let acc l = Moments.of_array (Array.of_list l) in
      let a = acc xs and b = acc ys and c = acc zs in
      let l = Moments.summary (Moments.merge (Moments.merge a b) c) in
      let r = Moments.summary (Moments.merge a (Moments.merge b c)) in
      let close x y = Float.abs (x -. y) <= 1e-9 *. (1.0 +. Float.abs x) in
      close l.Moments.mean r.Moments.mean
      && close l.Moments.std r.Moments.std
      && Float.abs (l.Moments.skewness -. r.Moments.skewness) < 1e-6
      && Float.abs (l.Moments.kurtosis -. r.Moments.kurtosis) < 1e-6)

let prop_moments_split_merge =
  QCheck.Test.make ~count:200
    ~name:"merge of a split sample reproduces of_array (bitwise at the \
           empty-split boundary)"
    QCheck.(pair (floats_arb (-50.) 50.) QCheck.small_nat)
    (fun (xs, k0) ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let k = k0 mod (n + 1) in
      let merged =
        Moments.merge
          (Moments.of_array (Array.sub a 0 k))
          (Moments.of_array (Array.sub a k (n - k)))
      in
      let m = Moments.summary merged in
      let d = Moments.summary (Moments.of_array a) in
      if k = 0 || k = n then begin
        (* One side is [empty]: the merge must be a physical identity,
           so all four moments agree bit for bit. *)
        let bit x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
        bit m.Moments.mean d.Moments.mean
        && bit m.Moments.std d.Moments.std
        && bit m.Moments.skewness d.Moments.skewness
        && bit m.Moments.kurtosis d.Moments.kurtosis
      end
      else begin
        (* Interior splits take the pairwise Pébay path: numerically
           equal, not bitwise. *)
        let close x y = Float.abs (x -. y) <= 1e-9 *. (1.0 +. Float.abs x) in
        close m.Moments.mean d.Moments.mean
        && close m.Moments.std d.Moments.std
        && Float.abs (m.Moments.skewness -. d.Moments.skewness) < 1e-6
        && Float.abs (m.Moments.kurtosis -. d.Moments.kurtosis) < 1e-6
      end)

let prop_quantile_bounds =
  QCheck.Test.make ~count:100 ~name:"quantiles stay within sample range"
    QCheck.(pair (list_of_size (Gen.int_range 2 50) (float_range (-100.) 100.))
              (float_range 0.0 1.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let q = Quantile.of_sample a p in
      let lo = Array.fold_left Float.min a.(0) a in
      let hi = Array.fold_left Float.max a.(0) a in
      q >= lo -. 1e-12 && q <= hi +. 1e-12)

let prop_fanout_sizing_monotone =
  QCheck.Test.make ~count:30 ~name:"fanout sizing never shrinks a driver"
    seed_arb
    (fun seed ->
      let nl = netlist_of_seed seed in
      let sized = G.size_for_fanout nl in
      Array.for_all2
        (fun (a : N.gate) (b : N.gate) ->
          b.N.cell.Cell.strength >= a.N.cell.Cell.strength)
        nl.N.gates sized.N.gates)

(* ---- incremental re-timing ---- *)

(* Same path and knobs as test_incremental, so the two binaries share
   one characterisation cache. *)
let ssta_library =
  lazy
    (let cells =
       List.concat_map
         (fun k ->
           [ Cell.make k ~strength:1; Cell.make k ~strength:2;
             Cell.make k ~strength:4; Cell.make k ~strength:8 ])
         Cell.all_kinds
     in
     Library.load_or_characterize ~n_mc:250
       ~slews:[| 10e-12; 50e-12; 150e-12; 300e-12 |]
       ~path:
         (Filename.concat (Filename.get_temp_dir_name ())
            "nsigma_test_ssta.lvf")
       tech cells)

let pool2 = lazy (Executor.domain_pool ~jobs:2 ())

(* One edit of each kind, derived from the pristine netlist (generated
   before any apply, so the same sequence is legal on both copies). *)
let edits_of_seed (nl : N.t) seed =
  let g = Rng.create ~seed:(seed + 7919) in
  let fanouts = N.fanouts_of nl in
  let n_gates = Array.length nl.N.gates in
  let swap () =
    let gi = Rng.int g n_gates in
    let cur = nl.N.gates.(gi).N.cell in
    let choices =
      List.filter (fun s -> s <> cur.Cell.strength) Cell.standard_strengths
    in
    Edit.Swap_cell
      {
        gate = gi;
        cell =
          Cell.make cur.Cell.kind
            ~strength:(List.nth choices (Rng.int g (List.length choices)));
      }
  in
  let scale () =
    let net = Rng.int g nl.N.n_nets in
    Edit.Scale_wire
      {
        net;
        r_scale = 0.8 +. (0.7 *. Rng.uniform g);
        c_scale = 0.8 +. (0.7 *. Rng.uniform g);
      }
  in
  let rec bump () =
    let net = Rng.int g nl.N.n_nets in
    match List.length fanouts.(net) with
    | 0 -> bump ()
    | k ->
      Edit.Bump_sink_load
        {
          net;
          sink = Rng.int g k;
          delta_cap = (0.2 +. (1.8 *. Rng.uniform g)) *. 1e-15;
        }
  in
  [ swap (); scale (); bump () ]

let prop_incremental_matches_scratch =
  QCheck.Test.make ~count:4
    ~name:"incremental re-timing = from-scratch (both operators x executors)"
    seed_arb
    (fun seed ->
      let lib = Lazy.force ssta_library in
      let execs = [ Executor.sequential; Lazy.force pool2 ] in
      let ops = [ Nsigma_stats.Stat_max.Clark; Nsigma_stats.Stat_max.Moment ] in
      List.for_all
        (fun exec ->
          List.for_all
            (fun op ->
              let config = { Ssta.op; corr = Ssta.Tracked } in
              let nl = netlist_of_seed seed in
              let nl_ref = netlist_of_seed seed in
              let design = Design.attach_parasitics tech nl in
              let design_ref = Design.attach_parasitics tech nl_ref in
              let edits = edits_of_seed nl seed in
              let handle =
                Ssta.lvf_handle ~frac_samples:16 ~exec ~store_dir:None tech
                  lib design
              in
              let inc = Incremental.init ~config tech handle design in
              List.for_all
                (fun edit ->
                  ignore (Incremental.apply inc edit);
                  ignore (Design.apply_edit design_ref edit);
                  let provider =
                    Ssta.lvf_provider ~frac_samples:16 ~exec ~store_dir:None
                      tech lib design_ref
                  in
                  let scratch =
                    Ssta.analyze ~config tech provider design_ref
                  in
                  Incremental.reports_bit_identical (Incremental.report inc)
                    scratch)
                edits)
            ops)
        execs)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "nsigma_properties"
    [
      ( "serialisation",
        [ qt prop_spef_roundtrip; qt prop_verilog_roundtrip ] );
      ( "interconnect",
        [
          qt prop_elmore_additive_along_path;
          qt prop_ceff_bounded;
          qt prop_scale_linearity;
        ] );
      ( "sta",
        [
          qt prop_critical_path_consistent;
          qt prop_path_sums_to_total;
          qt prop_arrivals_nonnegative;
        ] );
      ( "stats",
        [
          qt prop_moments_merge_commutative;
          qt prop_moments_merge_associative;
          qt prop_moments_split_merge;
          qt prop_quantile_bounds;
        ] );
      ( "netlist", [ qt prop_fanout_sizing_monotone ] );
      ( "incremental", [ qt prop_incremental_matches_scratch ] );
    ]
