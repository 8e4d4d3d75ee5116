(* Tests for the block-based SSTA engine: the distribution algebra on
   hand-analysable circuits (chain sums, diamond reconvergence against
   Clark's closed form), degenerate agreement with the scalar engine,
   report rendering, and a validate smoke against per-path MC on a real
   characterised library. *)

module T = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module N = Nsigma_netlist.Netlist
module B = Nsigma_netlist.Builder
module Bm = Nsigma_netlist.Benchmarks
module Design = Nsigma_sta.Design
module Provider = Nsigma_sta.Provider
module Engine = Nsigma_sta.Engine
module Engine_core = Nsigma_sta.Engine_core
module Ssta = Nsigma_sta.Ssta
module Timing_report = Nsigma_sta.Timing_report
module Moments = Nsigma_stats.Moments
module Stat_max = Nsigma_stats.Stat_max
module Rng = Nsigma_stats.Rng
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Wire_gen = Nsigma_rcnet.Wire_gen

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let tech = T.with_vdd T.default_28nm 0.6
let ng = Variation.global_deviate_dim

(* A Gaussian delay distribution with purely local (independent)
   variance: mean [m], standard deviation [s]. *)
let local_dist m s =
  {
    Ssta.d_mean = m;
    d_a = Array.make ng 0.0;
    d_b = Array.make ng 0.0;
    d_var_l = s *. s;
    d_m3_l = 0.0;
    d_m4_l = 3.0 *. (s ** 4.0);
  }

(* Constant-distribution provider: every cell arc contributes [d], wires
   are free, slews pass through — the SSTA counterpart of test_sta's
   unit provider. *)
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

let chain n =
  let b = B.create ~name:"chain" in
  let a = B.input b "a" in
  let net = ref a in
  for _ = 1 to n do
    net := B.inv b !net
  done;
  B.output b !net;
  B.finish b

(* a fans out to two inverters whose outputs reconverge on a NAND. *)
let diamond () =
  let b = B.create ~name:"diamond" in
  let a = B.input b "a" in
  let n1 = B.inv b a in
  let n2 = B.inv b a in
  B.output b (B.nand2 b n1 n2);
  B.finish b

(* ---- algebra on hand-analysable circuits ---- *)

let test_chain_sums_moments () =
  let nl = chain 4 in
  let design = Design.attach_parasitics tech nl in
  let d = local_dist 10e-12 1e-12 in
  let report = Ssta.analyze tech (const_provider d) design in
  let out = Ssta.circuit_dist report in
  (* 4 independent Gaussian stages: means and variances add, no joins on
     a chain so the result is exact. *)
  check_close "chain mean" 40e-12 out.Ssta.d_mean;
  check_close "chain var" 4e-24 (Ssta.variance out);
  let s = Ssta.to_summary out in
  check_close ~eps:1e-9 "chain skew 0" 1.0 (1.0 +. s.Moments.skewness);
  check_close ~eps:1e-9 "chain kurt 3" 3.0 s.Moments.kurtosis;
  (* Cornish-Fisher quantile of a Gaussian is mu + n*sigma exactly. *)
  check_close "chain +3s" (40e-12 +. (3.0 *. 2e-12))
    (Ssta.quantile out ~sigma:3.0)

let test_diamond_clark_join () =
  let nl = diamond () in
  let design = Design.attach_parasitics tech nl in
  let d = local_dist 10e-12 1e-12 in
  let report = Ssta.analyze tech (const_provider d) design in
  let out = Ssta.circuit_dist report in
  (* The two NAND input candidates are iid Gaussians (inv + nand, mean
     20 ps, var 2 ps^2, all variance local so Tracked correlation sees
     rho = 0).  Clark: E[max] = mu + sigma_delta * phi(0)
     = mu + sqrt(2 var) / sqrt(2 pi) = mu + sigma / sqrt(pi). *)
  let mu = 20e-12 and var = 2e-24 in
  let expected = mu +. (sqrt var /. sqrt Float.pi) in
  check_close ~eps:1e-9 "diamond mean = Clark closed form" expected
    out.Ssta.d_mean;
  (* Var(max) = mu^2 + var - E[max]^2 for iid zero-rho inputs:
     E[max^2] = mu^2 + var (even power symmetry). *)
  let evar = (mu *. mu) +. var -. (expected *. expected) in
  check_close ~eps:1e-6 "diamond variance" evar (Ssta.variance out)

let test_degenerate_matches_scalar () =
  (* With sigma = 0 every max is a plain max: the statistical engine
     must reproduce the scalar engine's arrival exactly. *)
  let scalar_provider =
    {
      Provider.label = "unit";
      cell_delay = (fun _ ~edge:_ ~input_slew:_ ~load_cap:_ -> 10e-12);
      cell_out_slew = (fun _ ~edge:_ ~input_slew ~load_cap:_ -> input_slew);
      wire_delay = (fun ~net:_ ~driver:_ ~sink:_ ~tree:_ ~tap:_ -> 0.0);
      wire_slew_degrade = (fun ~wire_delay:_ ~slew_at_root -> slew_at_root);
    }
  in
  List.iter
    (fun nl ->
      let design = Design.attach_parasitics tech nl in
      let scalar = Engine.analyze tech scalar_provider design in
      let d = local_dist 10e-12 0.0 in
      let stat = Ssta.analyze tech (const_provider d) design in
      let out = Ssta.circuit_dist stat in
      check_close ~eps:1e-12 "degenerate mean = scalar delay"
        (Engine.circuit_delay scalar) out.Ssta.d_mean;
      check_close ~eps:1e-12 "degenerate std 0" 1.0 (1.0 +. Ssta.std out))
    [ chain 5; diamond () ]

let test_dist_summary_roundtrip () =
  let s =
    {
      Moments.n = 1000;
      mean = 50e-12;
      std = 8e-12;
      skewness = 0.45;
      kurtosis = 3.6;
    }
  in
  List.iter
    (fun frac ->
      let d = Ssta.of_summary ~global_frac:frac s in
      let back = Ssta.to_summary d in
      check_close ~eps:1e-9 "roundtrip mean" s.Moments.mean back.Moments.mean;
      check_close ~eps:1e-9 "roundtrip std" s.Moments.std back.Moments.std)
    [ 0.0; 0.35; 1.0 ]

let test_max_op_counters () =
  let was = Nsigma_obs.Metrics.enabled () in
  Nsigma_obs.Metrics.set_enabled true;
  let before = Nsigma_obs.Metrics.find_counter "sta.ssta.max_ops" in
  let clark_before = Nsigma_obs.Metrics.find_counter "sta.ssta.max.clark" in
  let design = Design.attach_parasitics tech (diamond ()) in
  let d = local_dist 10e-12 1e-12 in
  ignore (Ssta.analyze tech (const_provider d) design);
  let ops = Nsigma_obs.Metrics.find_counter "sta.ssta.max_ops" - before in
  let clark =
    Nsigma_obs.Metrics.find_counter "sta.ssta.max.clark" - clark_before
  in
  Nsigma_obs.Metrics.set_enabled was;
  (* One reconvergence per output edge of the NAND. *)
  Alcotest.(check bool) "max ops ticked" true (ops >= 1);
  Alcotest.(check int) "default operator is clark" ops clark

(* ---- statistical timing report ---- *)

let test_stat_report () =
  let nl = diamond () in
  let design = Design.attach_parasitics tech nl in
  let d = local_dist 10e-12 1e-12 in
  let report = Ssta.analyze tech (const_provider d) design in
  let q3 = Ssta.quantile (Ssta.circuit_dist report) ~sigma:3.0 in
  let tr = Timing_report.of_ssta ~period:q3 report in
  (* Period pinned at the worst +3s arrival: worst slack is exactly 0
     and nothing is violated. *)
  check_close ~eps:1e-9 "wns 0 at q3 period" 1.0
    (1.0 +. (tr.Timing_report.s_wns /. 1e-12));
  Alcotest.(check int) "no violations" 0
    (List.length (Timing_report.stat_violations tr));
  let tight =
    Timing_report.of_ssta ~period:(q3 *. 0.5) report
  in
  Alcotest.(check bool) "violations at half period" true
    (List.length (Timing_report.stat_violations tight) > 0);
  Alcotest.(check bool) "tns negative" true (tight.Timing_report.s_tns < 0.0);
  let rendered = Format.asprintf "%a" (Timing_report.pp_ssta nl) tr in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report mentions WNS" true (contains rendered "WNS")

(* ---- validate smoke on a real library ---- *)

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

let test_validate_smoke () =
  let lib = Lazy.force library in
  let bm = List.hd Bm.small_variants in
  let design = Design.attach_parasitics tech (bm.Bm.generate ()) in
  let v = Ssta.validate ~n:120 ~k:4 tech lib design in
  Alcotest.(check bool) "covers paths" true (v.Ssta.va_n_paths >= 1);
  Alcotest.(check int) "mc samples" 120 v.Ssta.va_mc_n;
  (* Loose smoke bars: the full-accuracy gate lives in bench ssta. *)
  Alcotest.(check bool) "mean within 15%" true
    (Float.abs v.Ssta.va_err_mean < 0.15);
  Alcotest.(check bool) "+3s within 25%" true
    (Float.abs v.Ssta.va_err_p3 < 0.25);
  Alcotest.(check bool) "ssta worst PO covers validated subset" true
    (Ssta.quantile v.Ssta.va_ssta_full ~sigma:3.0
     >= Ssta.quantile v.Ssta.va_ssta ~sigma:3.0 -. 1e-15)

let test_lvf_provider_sanity () =
  let lib = Lazy.force library in
  let bm = List.hd Bm.small_variants in
  let design = Design.attach_parasitics tech (bm.Bm.generate ()) in
  let provider = Ssta.lvf_provider tech lib design in
  let report = Ssta.analyze tech provider design in
  let out = Ssta.circuit_dist report in
  Alcotest.(check bool) "positive mean" true (out.Ssta.d_mean > 0.0);
  Alcotest.(check bool) "positive sigma" true (Ssta.std out > 0.0);
  (* The global corners must explain part of the variance (shared vth /
     beta response), but local mismatch must survive too. *)
  let vg = Ssta.variance out -. out.Ssta.d_var_l in
  Alcotest.(check bool) "global share positive" true (vg > 0.0);
  Alcotest.(check bool) "local share positive" true (out.Ssta.d_var_l > 0.0);
  (* Scalar nominal arrival should sit near the SSTA mean (the
     statistical pass re-centres arcs on the same tables). *)
  let scalar = Engine.analyze tech (Provider.nominal lib) design in
  let rel =
    Float.abs (out.Ssta.d_mean -. Engine.circuit_delay scalar)
    /. Engine.circuit_delay scalar
  in
  Alcotest.(check bool) "mean near nominal (20%)" true (rel < 0.20)

(* ---- golden bits: the provider's output pinned across refactors ---- *)

(* The library as read back from an .lvf file.  The text format keeps 9
   significant digits, so a freshly characterized library and its
   loaded copy give different SSTA bits; a round trip through a private
   file makes the golden independent of whether the shared cache
   existed. *)
let loaded_library =
  lazy
    (let path = Filename.temp_file "nsigma_test_ssta_golden" ".lvf" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         Library.save (Lazy.force library) path;
         Library.load tech path))

let dist_hex (d : Ssta.dist) =
  let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  Printf.sprintf "%h|%s|%s|%h|%h|%h" d.Ssta.d_mean (floats d.Ssta.d_a)
    (floats d.Ssta.d_b) d.Ssta.d_var_l d.Ssta.d_m3_l d.Ssta.d_m4_l

(* MD5 of every PO arrival distribution of a cold Clark SSTA on c432,
   in report order, and of the (tap, dist, mean Elmore) wire entries of
   its highest-fanout net (net 497: 8 taps, 17 nodes).  Any change to
   either digest is a change in reported numbers.  Re-recorded when the
   96-sample wire mini-MC gave way to closed-form wire moments, which
   changes the wire model by design: PO b2167f366ec48648ff411c685da3a2f6
   -> 7d6d03e04a4dc971f1b901c82b6fd4bb, wire
   07fdf12d07dae3dc1294070d0b165c7a -> 3ab9ef782284025af03e6b269195a4e3.
   Both executors must reproduce the same digests. *)
let golden_pos = "7d6d03e04a4dc971f1b901c82b6fd4bb"
let golden_wire_net = 497
let golden_wire = "3ab9ef782284025af03e6b269195a4e3"

let test_golden_bits () =
  let lib = Lazy.force loaded_library in
  let design = Design.attach_parasitics tech ((Bm.find "c432").Bm.generate ()) in
  List.iter
    (fun (ename, exec) ->
      let provider = Ssta.lvf_provider ~exec ~store_dir:None tech lib design in
      let report = Ssta.analyze tech provider design in
      let pos =
        Ssta.pos report
        |> List.map (fun (net, edge, d) ->
               Printf.sprintf "%d %s %s\n" net
                 (match edge with Provider.Rise -> "r" | Provider.Fall -> "f")
                 (dist_hex d))
        |> String.concat ""
      in
      Alcotest.(check string)
        (Printf.sprintf "PO dists digest (%s)" ename)
        golden_pos
        (Digest.to_hex (Digest.string pos));
      let net = golden_wire_net in
      let tree = design.Design.parasitics.(net) in
      let wires =
        Array.to_list tree.Nsigma_rcnet.Rctree.taps
        |> List.map (fun tap ->
               let w =
                 provider.Engine_core.m_wire_delay ~net ~driver:None ~sink:None
                   ~tree ~tap
               in
               Printf.sprintf "%d:%s:%h;" tap (dist_hex w.Ssta.dd) w.Ssta.d_slew_tc)
        |> String.concat ""
      in
      Alcotest.(check string)
        (Printf.sprintf "wire entries digest (%s)" ename)
        golden_wire
        (Digest.to_hex (Digest.string wires)))
    [ ("seq", Nsigma_exec.Executor.sequential);
      ("pool2", Nsigma_exec.Executor.domain_pool ~jobs:2 ()) ]

(* ---- closed-form wire moments against the sampled truth ---- *)

(* The provider's wire entry for every tap of [net]. *)
let provider_wires provider (design : Design.t) net =
  let tree = design.Design.parasitics.(net) in
  Array.map
    (fun tap ->
      provider.Engine_core.m_wire_delay ~net ~driver:None ~sink:None ~tree ~tap)
    tree.Rctree.taps

(* Per-tap D2M summary of [n] sampled outcomes of the net's loaded RC
   tree — the wire model of Path_mc's fast hop, sampled the way
   Wire_gen.vary perturbs a net. *)
let sampled_wire ~n ~seed (design : Design.t) net =
  let base = design.Design.parasitics.(net) in
  let loads = Design.sink_caps tech design ~net in
  let taps = base.Rctree.taps in
  let n_nodes = Rctree.n_nodes base in
  let tree = Rctree.copy base in
  let scratch () = Array.make n_nodes 0.0 in
  let res = scratch () and cap = scratch () in
  let down = scratch () and m1 = scratch () and m2 = scratch () in
  let accs = Array.map (fun _ -> Moments.empty) taps in
  let rng = Rng.derive (Rng.create ~seed) ~index:net in
  for i = 0 to n - 1 do
    let v = Variation.draw tech (Rng.derive rng ~index:i) in
    Wire_gen.vary_into tech v ~base ~into:tree ~res ~cap;
    List.iter (fun (node, c) -> Rctree.bump_cap tree node c) loads;
    Elmore.moments_into tree ~down ~m1 ~m2;
    Array.iteri
      (fun j tap ->
        accs.(j) <- Moments.add accs.(j) (Elmore.d2m ~m1:m1.(tap) ~m2:m2.(tap)))
      taps
  done;
  Array.map Moments.summary accs

(* Every tap of ~32 evenly spread c432 nets plus net 497 (the highest
   fanout) and the four highest-fanout c5315 nets, against a 20,000-
   sample reference.  At that size the reference's own standard error is
   about 0.5% on σ.  The closed form's worst errors here are 0.11% on
   the mean, 1.4% on σ and 0.63% at +3σ; the 96-sample mini-MC it
   replaced missed σ by up to 22% and +3σ by up to 6.3%. *)
let test_wire_closed_form_vs_mc () =
  let lib = Lazy.force loaded_library in
  let rel a b = Float.abs (a -. b) /. Float.abs b in
  let worst = Array.make 3 0.0 and taps = ref 0 in
  let check_net design provider ~circuit net =
    let wires = provider_wires provider design net in
    taps := !taps + Array.length wires;
    let ref_ = sampled_wire ~n:20_000 ~seed:2024 design net in
    Array.iteri
      (fun j (w : Ssta.delay) ->
        let d = w.Ssta.dd and r = ref_.(j) in
        let rq = Ssta.quantile (Ssta.of_summary ~global_frac:0.0 r) ~sigma:3.0 in
        let errs =
          [| rel d.Ssta.d_mean r.Moments.mean; rel (Ssta.std d) r.Moments.std;
             rel (Ssta.quantile d ~sigma:3.0) rq |]
        in
        Array.iteri (fun k e -> worst.(k) <- Float.max worst.(k) e) errs;
        List.iteri
          (fun k (what, bound) ->
            if errs.(k) > bound then
              Alcotest.failf "%s net %d tap %d: %s off by %.2f%% (bound %.1f%%)"
                circuit net j what (100.0 *. errs.(k)) (100.0 *. bound))
          [ ("mean", 0.005); ("sigma", 0.03); ("+3 sigma", 0.02) ])
      wires
  in
  let c432 = Design.attach_parasitics tech ((Bm.find "c432").Bm.generate ()) in
  let p432 = Ssta.lvf_provider ~store_dir:None tech lib c432 in
  let n432 = Array.length c432.Design.parasitics in
  let stride = max 1 (n432 / 32) in
  let nets =
    golden_wire_net
    :: List.filter (fun i -> i mod stride = 0 && i <> golden_wire_net)
         (List.init n432 Fun.id)
  in
  Alcotest.(check bool) "at least 30 c432 nets" true (List.length nets >= 30);
  List.iter (check_net c432 p432 ~circuit:"c432") nets;
  let c5315 = Design.attach_parasitics tech ((Bm.find "c5315").Bm.generate ()) in
  let p5315 = Ssta.lvf_provider ~store_dir:None tech lib c5315 in
  let by_size =
    List.init (Array.length c5315.Design.parasitics) (fun i ->
        (-Rctree.n_nodes c5315.Design.parasitics.(i), i))
    |> List.sort compare
  in
  List.iteri
    (fun k (_, net) -> if k < 4 then check_net c5315 p5315 ~circuit:"c5315" net)
    by_size;
  Printf.printf "%d nets, %d taps; worst: mean %.3f%%, sigma %.3f%%, +3 sigma %.3f%%\n"
    (List.length nets + 4) !taps (100.0 *. worst.(0)) (100.0 *. worst.(1))
    (100.0 *. worst.(2))

(* One segment of resistance R and capacitance C feeding a pin load L:
   m2 = m1², so D2M = ln2·R·(C+L), linear in each deviate.  The
   expansion is then exact per deviate: mean ln2·R(C+L), variance
   ln2²R²(σ_R²(C+L)² + σ_C²C²), no skew. *)
let test_wire_one_segment () =
  let lib = Lazy.force loaded_library in
  let design = Design.attach_parasitics tech ((Bm.find "c432").Bm.generate ()) in
  let nl = design.Design.netlist in
  let net =
    let rec first i =
      if List.length design.Design.fanouts.(i) = 1 then i else first (i + 1)
    in
    first 0
  in
  let r = 150.0 and c = 2e-15 in
  let seg =
    Rctree.create
      ~nodes:
        [| { Rctree.name = "root"; parent = -1; res = 0.0; cap = 0.0 };
           { Rctree.name = "s"; parent = 0; res = r; cap = c } |]
      ~taps:[| 1 |]
  in
  let design =
    Design.of_parasitics nl
      (Array.mapi (fun i t -> if i = net then seg else t) design.Design.parasitics)
  in
  let l = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 (Design.sink_caps tech design ~net) in
  let provider = Ssta.lvf_provider ~store_dir:None tech lib design in
  let w = (provider_wires provider design net).(0) in
  let sr = tech.T.sigma_wire_res and sc = tech.T.sigma_wire_cap in
  let ln2 = Float.log 2.0 in
  let check_rel msg expected actual =
    if Float.abs (actual -. expected) > 1e-9 *. Float.abs expected then
      Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual
  in
  check_rel "mean" (ln2 *. r *. (c +. l)) w.Ssta.dd.Ssta.d_mean;
  check_rel "slew constant" (r *. (c +. l)) w.Ssta.d_slew_tc;
  check_rel "variance"
    (ln2 *. ln2 *. r *. r
    *. ((sr *. sr *. (c +. l) *. (c +. l)) +. (sc *. sc *. c *. c)))
    (Ssta.variance w.Ssta.dd)

(* ---- warm-walk allocation: what one graph walk costs per gate ---- *)

(* Words a warm Clark walk of c432 allocates per gate, with every
   provider cache full, so the walk does only table lookups, max ops
   and slew propagation.  Measured at 3,492 words/gate once LUT lookups
   bracketed (slew, load) once instead of rebuilding four grids per
   call; 17,252 before.  The bound is 1.5x the measured value. *)
let warm_walk_words_per_gate = 5250.0

let test_warm_walk_allocation () =
  let lib = Lazy.force loaded_library in
  let design = Design.attach_parasitics tech ((Bm.find "c432").Bm.generate ()) in
  let gates = Array.length design.Design.netlist.Nsigma_netlist.Netlist.gates in
  let provider =
    Ssta.lvf_provider ~exec:Nsigma_exec.Executor.sequential ~store_dir:None tech
      lib design
  in
  ignore (Ssta.analyze tech provider design);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Ssta.analyze tech provider design));
  let per_gate = (Gc.minor_words () -. before) /. float_of_int gates in
  if per_gate > warm_walk_words_per_gate then
    Alcotest.failf "warm walk allocates %.0f words/gate (bound %.0f)" per_gate
      warm_walk_words_per_gate

let () =
  Alcotest.run "nsigma_ssta"
    [
      ( "algebra",
        [
          Alcotest.test_case "chain sums moments" `Quick test_chain_sums_moments;
          Alcotest.test_case "diamond clark join" `Quick test_diamond_clark_join;
          Alcotest.test_case "degenerate = scalar" `Quick
            test_degenerate_matches_scalar;
          Alcotest.test_case "summary roundtrip" `Quick test_dist_summary_roundtrip;
          Alcotest.test_case "max-op counters" `Quick test_max_op_counters;
        ] );
      ("report", [ Alcotest.test_case "stat report" `Quick test_stat_report ]);
      ( "validate",
        [
          Alcotest.test_case "lvf provider sanity" `Slow test_lvf_provider_sanity;
          Alcotest.test_case "validate smoke" `Slow test_validate_smoke;
        ] );
      ( "golden",
        [ Alcotest.test_case "c432 PO + wire bits" `Slow test_golden_bits ] );
      ( "wire",
        [
          Alcotest.test_case "closed form vs 20k-sample MC" `Slow
            test_wire_closed_form_vs_mc;
          Alcotest.test_case "one-segment known answer" `Slow
            test_wire_one_segment;
        ] );
      ( "allocation",
        [ Alcotest.test_case "c432 warm walk words/gate" `Slow
            test_warm_walk_allocation ] );
    ]
