(* Tests for the incremental re-timing layer: the typed edit API and its
   JSON-lines codec, fan-out-cone invalidation with bitwise cutoff
   (incremental reports bit-identical to from-scratch analyses of the
   edited design, on synthetic providers and on the real LVF provider),
   and the on-disk provider store (cold populate, warm hit, bitwise
   round-trip). *)

module T = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Store = Nsigma_liberty.Store
module N = Nsigma_netlist.Netlist
module B = Nsigma_netlist.Builder
module G = Nsigma_netlist.Generators
module Edit = Nsigma_netlist.Edit
module Rctree = Nsigma_rcnet.Rctree
module Design = Nsigma_sta.Design
module Engine_core = Nsigma_sta.Engine_core
module Ssta = Nsigma_sta.Ssta
module Incremental = Nsigma_sta.Incremental
module Metrics = Nsigma_obs.Metrics

let tech = T.with_vdd T.default_28nm 0.6
let ng = Variation.global_deviate_dim

let local_dist m s =
  {
    Ssta.d_mean = m;
    d_a = Array.make ng 0.0;
    d_b = Array.make ng 0.0;
    d_var_l = s *. s;
    d_m3_l = 0.0;
    d_m4_l = 3.0 *. (s ** 4.0);
  }

(* Constant provider: edits that only change loads/wires are invisible,
   so cutoff fires immediately at the frontier. *)
let const_provider d =
  {
    Engine_core.m_label = "const-dist";
    m_cell_delay =
      (fun _ ~edge:_ ~in_net:_ ~in_edge:_ ~input_slew:_ ~load_cap:_ ->
        { Ssta.dd = d; d_slew_tc = 0.0 });
    m_cell_out_slew =
      (fun _ ~edge:_ ~in_net:_ ~in_edge:_ ~input_slew ~load_cap:_ -> input_slew);
    m_wire_delay =
      (fun ~net:_ ~driver:_ ~sink:_ ~tree:_ ~tap:_ ->
        { Ssta.dd = Ssta.zero_dist; d_slew_tc = 0.0 });
    m_wire_slew_degrade = (fun ~wire_delay:_ ~slew_at_root -> slew_at_root);
  }

(* Load/slew/wire-sensitive provider: every edit kind moves real
   arrivals, so bitwise incremental-vs-scratch agreement is a strong
   check while staying deterministic and cheap. *)
let load_provider =
  {
    Engine_core.m_label = "load-dep";
    m_cell_delay =
      (fun (g : N.gate) ~edge:_ ~in_net:_ ~in_edge:_ ~input_slew ~load_cap ->
        let r = 1e3 *. float_of_int (4 / g.N.cell.Cell.strength + 1) in
        {
          Ssta.dd =
            local_dist
              (1e-12 +. (r *. load_cap) +. (0.1 *. input_slew))
              (0.05 *. (1e-12 +. (r *. load_cap)));
          d_slew_tc = 0.0;
        });
    m_cell_out_slew =
      (fun _ ~edge:_ ~in_net:_ ~in_edge:_ ~input_slew ~load_cap ->
        (0.4 *. input_slew) +. (5e2 *. load_cap) +. 1e-12);
    m_wire_delay =
      (fun ~net:_ ~driver:_ ~sink:_ ~tree ~tap:_ ->
        let d = 0.5 *. Rctree.total_res tree *. Rctree.total_cap tree in
        { Ssta.dd = local_dist d (0.02 *. d); d_slew_tc = d });
    m_wire_slew_degrade =
      (fun ~wire_delay ~slew_at_root ->
        slew_at_root +. (0.3 *. wire_delay.Ssta.d_slew_tc));
  }

let chain n =
  let b = B.create ~name:"chain" in
  let a = B.input b "a" in
  let net = ref a in
  for _ = 1 to n do
    net := B.inv b !net
  done;
  B.output b !net;
  B.finish b

let expect_edit_error name f =
  match f () with
  | exception Edit.Edit_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Edit_error" name

(* ---- edit API and JSON codec ---- *)

let test_edit_json_roundtrip () =
  let nl = chain 4 in
  let edits =
    [
      Edit.Swap_cell { gate = 1; cell = Cell.make Cell.Inv ~strength:4 };
      Edit.Scale_wire { net = 2; r_scale = 1.25; c_scale = 0.8 };
      Edit.Bump_sink_load { net = 1; sink = 0; delta_cap = 1.5e-15 };
    ]
  in
  (* The fF<->F unit conversion can cost one ulp, so load deltas
     round-trip within tolerance, everything else exactly. *)
  let same a b =
    match (a, b) with
    | ( Edit.Bump_sink_load { net; sink; delta_cap },
        Edit.Bump_sink_load { net = n'; sink = s'; delta_cap = d' } ) ->
      net = n' && sink = s'
      && Float.abs (delta_cap -. d') <= 1e-9 *. Float.abs delta_cap
    | _ -> a = b
  in
  List.iter
    (fun e ->
      let line = Edit.to_json nl e in
      let back = Edit.of_json nl line in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Edit.describe nl e))
        true (same back e))
    edits;
  (* Numeric net/gate references parse too. *)
  let e = Edit.of_json nl {|{"op": "swap_cell", "gate": 0, "cell": "INVX2"}|} in
  Alcotest.(check bool) "numeric gate ref" true
    (e = Edit.Swap_cell { gate = 0; cell = Cell.make Cell.Inv ~strength:2 })

let test_edit_errors () =
  let nl = chain 4 in
  expect_edit_error "unknown op" (fun () ->
      Edit.of_json nl {|{"op": "delete_gate", "gate": 0}|});
  expect_edit_error "unknown net" (fun () ->
      Edit.of_json nl {|{"op": "scale_wire", "net": "bogus", "r": 1.1}|});
  expect_edit_error "unknown gate" (fun () ->
      Edit.of_json nl {|{"op": "swap_cell", "gate": "bogus", "cell": "INVX2"}|});
  expect_edit_error "unknown cell" (fun () ->
      Edit.of_json nl {|{"op": "swap_cell", "gate": 0, "cell": "FOO9"}|});
  expect_edit_error "footprint mismatch" (fun () ->
      Edit.of_json nl {|{"op": "swap_cell", "gate": 0, "cell": "NAND2X2"}|});
  expect_edit_error "malformed json" (fun () ->
      Edit.of_json nl {|{"op": "scale_wire", "net"|});
  expect_edit_error "trailing garbage" (fun () ->
      Edit.of_json nl {|{"op": "scale_wire", "net": 1} extra|});
  expect_edit_error "negative r scale" (fun () ->
      Edit.of_json nl {|{"op": "scale_wire", "net": 1, "r": -1.0}|});
  expect_edit_error "missing field" (fun () ->
      Edit.of_json nl {|{"op": "bump_sink_load", "net": 1}|})

let test_edit_invalidated () =
  let nl = chain 3 in
  let g1 = nl.N.gates.(1) in
  let inv =
    Edit.invalidated nl
      (Edit.Swap_cell { gate = 1; cell = Cell.make Cell.Inv ~strength:8 })
  in
  Alcotest.(check bool) "swap invalidates output and inputs" true
    (List.sort_uniq compare (g1.N.output :: Array.to_list g1.N.inputs) = inv);
  Alcotest.(check (list int)) "wire edit invalidates its net" [ 2 ]
    (Edit.invalidated nl (Edit.Scale_wire { net = 2; r_scale = 2.0; c_scale = 1.0 }))

(* ---- incremental vs from-scratch, synthetic providers ---- *)

let scratch_report ?config provider design =
  Ssta.analyze ?config tech provider design

(* Two identical designs from the same deterministic generation; edits
   are applied to both (incrementally vs via Design.apply_edit +
   re-analysis) and the reports must stay bit-identical. *)
let check_sequence ?config ~make_netlist edits =
  let design_inc = Design.attach_parasitics tech (make_netlist ()) in
  let design_ref = Design.attach_parasitics tech (make_netlist ()) in
  let inc =
    Incremental.init ?config tech
      (Ssta.handle_of_provider load_provider)
      design_inc
  in
  List.iteri
    (fun i e ->
      let stats = Incremental.apply inc e in
      ignore (Design.apply_edit design_ref e);
      let reference = scratch_report ?config load_provider design_ref in
      if not (Incremental.reports_bit_identical (Incremental.report inc) reference)
      then
        Alcotest.failf "edit %d (%s): incremental diverged from scratch" i
          (Edit.describe design_inc.Design.netlist e);
      Alcotest.(check bool) "some gate re-evaluated" true (stats.Incremental.st_dirty > 0))
    edits

let test_incremental_chain () =
  check_sequence
    ~make_netlist:(fun () -> chain 12)
    [
      Edit.Swap_cell { gate = 5; cell = Cell.make Cell.Inv ~strength:4 };
      Edit.Scale_wire { net = 3; r_scale = 1.5; c_scale = 1.2 };
      Edit.Bump_sink_load { net = 7; sink = 0; delta_cap = 2e-15 };
      Edit.Swap_cell { gate = 5; cell = Cell.make Cell.Inv ~strength:1 };
      Edit.Bump_sink_load { net = 7; sink = 0; delta_cap = -2e-15 };
    ]

let test_incremental_random () =
  let make_netlist () =
    G.random_logic ~name:"r" ~n_inputs:6 ~n_gates:60 ~depth:6 ~seed:11
  in
  let nl = make_netlist () in
  let pick_gate i = (7 * i) mod Array.length nl.N.gates in
  let edits =
    List.concat_map
      (fun i ->
        let gi = pick_gate i in
        let g = nl.N.gates.(gi) in
        [
          Edit.Swap_cell
            {
              gate = gi;
              cell = Cell.make g.N.cell.Cell.kind ~strength:(if i mod 2 = 0 then 4 else 2);
            };
          Edit.Scale_wire
            { net = g.N.output; r_scale = 1.0 +. (0.1 *. float_of_int (i + 1)); c_scale = 0.9 };
          Edit.Bump_sink_load { net = g.N.inputs.(0); sink = 0; delta_cap = 1e-15 };
        ])
      [ 0; 1; 2 ]
  in
  check_sequence ~make_netlist edits;
  check_sequence
    ~config:{ Ssta.op = Nsigma_stats.Stat_max.Moment; corr = Ssta.Tracked }
    ~make_netlist edits

let test_cutoff_on_invisible_edit () =
  (* Constant provider: a load bump changes nothing the provider reads,
     so the frontier gates recompute bitwise-equal slots and propagation
     stops right there — dirty stays O(frontier) on a deep chain. *)
  let n = 40 in
  let design = Design.attach_parasitics tech (chain n) in
  let d = local_dist 10e-12 1e-12 in
  let inc =
    Incremental.init tech (Ssta.handle_of_provider (const_provider d)) design
  in
  let before = Incremental.report inc in
  let stats =
    Incremental.apply inc
      (Edit.Bump_sink_load { net = 3; sink = 0; delta_cap = 1e-15 })
  in
  Alcotest.(check bool) "dirty stays at the frontier" true
    (stats.Incremental.st_dirty <= 3);
  Alcotest.(check bool) "cutoffs recorded" true (stats.Incremental.st_cutoffs >= 1);
  Alcotest.(check bool) "report unchanged" true
    (Incremental.reports_bit_identical before (Incremental.report inc))

let test_cone_smaller_than_circuit () =
  (* Load-sensitive provider on a deep chain: an edit near the output
     re-times only the downstream cone. *)
  let n = 60 in
  let design = Design.attach_parasitics tech (chain n) in
  let inc =
    Incremental.init tech (Ssta.handle_of_provider load_provider) design
  in
  (* Gate n-5's output net sits 5 stages from the PO. *)
  let gi = n - 5 in
  let stats =
    Incremental.apply inc
      (Edit.Swap_cell { gate = gi; cell = Cell.make Cell.Inv ~strength:8 })
  in
  Alcotest.(check bool)
    (Printf.sprintf "dirty %d < half the chain" stats.Incremental.st_dirty)
    true
    (stats.Incremental.st_dirty < n / 2)

let test_edit_error_leaves_state () =
  let design = Design.attach_parasitics tech (chain 6) in
  let inc =
    Incremental.init tech (Ssta.handle_of_provider load_provider) design
  in
  let before = Incremental.report inc in
  expect_edit_error "bad sink" (fun () ->
      Incremental.apply inc
        (Edit.Bump_sink_load { net = 2; sink = 99; delta_cap = 1e-15 }));
  Alcotest.(check bool) "state unchanged after failed edit" true
    (Incremental.reports_bit_identical before (Incremental.report inc))

(* ---- real provider + on-disk store ---- *)

let library =
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
       ~path:(Filename.concat (Filename.get_temp_dir_name ()) "nsigma_test_ssta.lvf")
       tech cells)

let fresh_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nsigma_test_%s" name)
  in
  (* best-effort clean slate *)
  if Sys.file_exists dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
  dir

let test_incremental_real_provider () =
  let lib = Lazy.force library in
  let make_netlist () =
    G.random_logic ~name:"real" ~n_inputs:5 ~n_gates:40 ~depth:5 ~seed:3
  in
  let design_inc = Design.attach_parasitics tech (make_netlist ()) in
  let design_ref = Design.attach_parasitics tech (make_netlist ()) in
  (* A small sample count keeps the cell mini-MC cheap; both sides
     share the knob so determinism, not accuracy, is under test. *)
  let handle =
    Ssta.lvf_handle ~frac_samples:32 ~store_dir:None tech lib design_inc
  in
  let inc = Incremental.init tech handle design_inc in
  let nl = design_inc.Design.netlist in
  let g7 = nl.N.gates.(7) in
  let edits =
    [
      Edit.Swap_cell
        { gate = 7; cell = Cell.make g7.N.cell.Cell.kind ~strength:4 };
      Edit.Scale_wire { net = g7.N.output; r_scale = 1.4; c_scale = 1.1 };
      Edit.Bump_sink_load { net = g7.N.inputs.(0); sink = 0; delta_cap = 2e-15 };
    ]
  in
  List.iteri
    (fun i e ->
      ignore (Incremental.apply inc e);
      ignore (Design.apply_edit design_ref e);
      let provider_ref =
        Ssta.lvf_provider ~frac_samples:32 ~store_dir:None tech lib design_ref
      in
      let reference = Ssta.analyze tech provider_ref design_ref in
      if not (Incremental.reports_bit_identical (Incremental.report inc) reference)
      then Alcotest.failf "edit %d: real-provider incremental diverged" i)
    edits

let test_store_roundtrip () =
  let lib = Lazy.force library in
  let design =
    Design.attach_parasitics tech
      (G.random_logic ~name:"st" ~n_inputs:4 ~n_gates:25 ~depth:4 ~seed:5)
  in
  let dir = fresh_dir "store_test" in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let hits0 = Metrics.find_counter "provider.store.hit" in
  let misses0 = Metrics.find_counter "provider.store.miss" in
  (* Cold: every regression misses the store, computes and saves. *)
  let h_cold =
    Ssta.lvf_handle ~frac_samples:16 ~store_dir:(Some dir) tech lib design
  in
  h_cold.Ssta.h_prewarm ();
  let misses = Metrics.find_counter "provider.store.miss" - misses0 in
  Alcotest.(check bool) "cold pass misses" true (misses > 0);
  Alcotest.(check bool) "store populated" true
    (Array.length (Sys.readdir dir) > 0);
  (* Warm: a fresh provider loads every regression from disk. *)
  let h_warm =
    Ssta.lvf_handle ~frac_samples:16 ~store_dir:(Some dir) tech lib design
  in
  h_warm.Ssta.h_prewarm ();
  let hits = Metrics.find_counter "provider.store.hit" - hits0 in
  Alcotest.(check int) "warm pass hits everything the cold pass missed"
    misses hits;
  (* And the store round-trip is bitwise: warm analysis = cold analysis. *)
  let r_cold = Ssta.analyze tech h_cold.Ssta.h_provider design in
  let r_warm = Ssta.analyze tech h_warm.Ssta.h_provider design in
  Metrics.set_enabled was;
  Alcotest.(check bool) "warm bitwise equal to cold" true
    (Incremental.reports_bit_identical r_cold r_warm)

let test_store_stale_heals () =
  let dir = fresh_dir "store_stale" in
  let key = "unit-test|k1" in
  Store.save ~dir ~key "payload-v1";
  (* Corrupt the artifact body so decode fails -> stale, then recompute
     path heals it with a fresh save. *)
  let path = Store.path_of ~dir ~key in
  let oc = open_out path in
  output_string oc "garbage";
  close_out oc;
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let stale0 = Metrics.find_counter "provider.store.stale" in
  let got = Store.find ~dir ~key ~decode:(fun s -> Some s) in
  Alcotest.(check bool) "stale artifact rejected" true (got = None);
  Alcotest.(check int) "stale counted" (stale0 + 1)
    (Metrics.find_counter "provider.store.stale");
  Store.save ~dir ~key "payload-v2";
  Alcotest.(check (option string)) "healed" (Some "payload-v2")
    (Store.find ~dir ~key ~decode:(fun s -> Some s));
  Metrics.set_enabled was

let () =
  Alcotest.run "nsigma_incremental"
    [
      ( "edits",
        [
          Alcotest.test_case "json roundtrip" `Quick test_edit_json_roundtrip;
          Alcotest.test_case "edit errors" `Quick test_edit_errors;
          Alcotest.test_case "invalidated nets" `Quick test_edit_invalidated;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "chain sequence = scratch" `Quick
            test_incremental_chain;
          Alcotest.test_case "random sequence = scratch (both ops)" `Quick
            test_incremental_random;
          Alcotest.test_case "cutoff on invisible edit" `Quick
            test_cutoff_on_invisible_edit;
          Alcotest.test_case "cone < circuit" `Quick
            test_cone_smaller_than_circuit;
          Alcotest.test_case "failed edit leaves state" `Quick
            test_edit_error_leaves_state;
        ] );
      ( "store",
        [
          Alcotest.test_case "stale artifact heals" `Quick
            test_store_stale_heals;
          Alcotest.test_case "cold/warm roundtrip" `Slow test_store_roundtrip;
          Alcotest.test_case "real provider incremental" `Slow
            test_incremental_real_provider;
        ] );
    ]
