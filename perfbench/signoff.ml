(* signoff: a user's first sign-off runs, one design after another, in
   one batch process at jobs=1 with the provider store off.  Each op
   builds a design, runs the scalar flow (nominal walk plus N-sigma
   path calibration) and a cold SSTA pass (fresh provider, Clark max).
   The SSTA provider (wire mini-MC, cell regressions), the graph walk
   and the model carry the work; the server, the incremental engine and
   the domain pool do none. *)

open Common
module N = Nsigma_netlist.Netlist
module Gen = Nsigma_netlist.Generators
module Incremental = Nsigma_sta.Incremental

type cfg = {
  seconds : float;
  min_gates : int;  (** design sizes are drawn from [min_gates, max_gates] *)
  max_gates : int;
  setup_reps : int;  (** set-ups before the first op, and again after the last *)
  accuracy : accuracy;
  corrupt : bool;  (** self-check: corrupt the first report compared *)
}

(* The ISCAS85 shapes of the registry (inputs, gates, depth) and the
   PULPino arithmetic units. *)
type family =
  | Iscas of { name : string; inputs : int; gates : int; depth : int }
  | Add
  | Sub
  | Mul
  | Div

let families =
  [|
    Iscas { name = "c432"; inputs = 36; gates = 655; depth = 28 };
    Iscas { name = "c1355"; inputs = 41; gates = 977; depth = 25 };
    Iscas { name = "c1908"; inputs = 33; gates = 1093; depth = 34 };
    Iscas { name = "c2670"; inputs = 233; gates = 1810; depth = 32 };
    Iscas { name = "c3540"; inputs = 50; gates = 2168; depth = 12 };
    Iscas { name = "c6288"; inputs = 32; gates = 3246; depth = 24 };
    Iscas { name = "c5315"; inputs = 178; gates = 5275; depth = 42 };
    Iscas { name = "c7552"; inputs = 207; gates = 4041; depth = 37 };
    Add;
    Sub;
    Mul;
    Div;
  |]

type spec = {
  family : family;
  gates : int;  (** requested size *)
  width : int;  (** word width of an arithmetic unit *)
  nl_seed : int;
  par_seed : int;
}

let arith_netlist family w =
  match family with
  | Add -> Gen.kogge_stone_adder ~bits:w
  | Sub -> Gen.subtractor ~bits:w
  | Mul -> Gen.array_multiplier ~bits:w
  | Div -> Gen.array_divider ~dividend_bits:w ~divisor_bits:(max 3 (w * 85 / 100))
  | Iscas _ -> invalid_arg "arith_netlist"

(* The word width of an arithmetic unit: the smallest whose netlist has
   at least the requested gates.  Found when the cycle is drawn, outside
   the timed op; gate counts are memoized per (unit, width). *)
let widths = Hashtbl.create 64

let width_for family gates =
  let count w =
    match Hashtbl.find_opt widths (family, w) with
    | Some c -> c
    | None ->
      let c = Array.length (Gen.size_for_fanout (arith_netlist family w)).N.gates in
      Hashtbl.replace widths (family, w) c;
      c
  in
  let rec go w = if count w >= gates then w else go (w + 1) in
  match family with Iscas _ -> 0 | _ -> go 3

(* Random logic needs at least one gate per level, which only toy sizes
   run into. *)
let generate s =
  let nl =
    match s.family with
    | Iscas f ->
      Gen.random_logic ~name:f.name
        ~n_inputs:(max 8 (f.inputs * s.gates / f.gates))
        ~n_gates:s.gates
        ~depth:(min f.depth (max 1 (s.gates / 2)))
        ~seed:s.nl_seed
    | family -> arith_netlist family s.width
  in
  Gen.size_for_fanout nl

(* One cycle visits every family once, in seeded order.  Sizes are
   stratified: the range [min_gates, max_gates] is cut into one
   log-uniform stratum per family, each design draws its size inside
   one stratum, and the seed deals the strata out to the families.
   Netlist and parasitic seeds are drawn too.  Every cycle thus carries
   nearly the same multiset of sizes, so throughput and the op-time
   percentiles stay comparable across seeds. *)
let cycle (cfg : cfg) st =
  let n = Array.length families in
  let strata = shuffle st (Array.init n Fun.id) in
  let lo = float_of_int cfg.min_gates in
  let span = log (float_of_int cfg.max_gates /. lo) in
  shuffle st
    (Array.mapi
       (fun i family ->
         let u = (float_of_int strata.(i) +. Random.State.float st 1.0) /. float_of_int n in
         let gates = int_of_float (lo *. exp (u *. span)) in
         {
           family;
           gates;
           width = width_for family gates;
           nl_seed = Random.State.int st 1_000_000;
           par_seed = Random.State.int st 1_000_000;
         })
       families)

let scalar_analyze lib model design =
  let report = Engine.analyze tech (Provider.nominal lib) design in
  let path = Engine.critical_path report in
  List.map
    (fun sigma -> Model.path_quantile_of_path model design path ~sigma)
    [ -3; 0; 3 ]

type result = {
  r_gates : int;
  r_design : Design.t;
  r_handle : Ssta.handle;
  r_cold : Ssta.report;
}

let op lib model s =
  let nl = layer "netlist.generate" (fun () -> generate s) in
  let design =
    layer "rcnet.parasitics" (fun () ->
        Design.attach_parasitics ~seed:s.par_seed tech nl)
  in
  ignore (layer "sta.scalar.analyze" (fun () -> scalar_analyze lib model design));
  let handle =
    Ssta.lvf_handle ~exec:Executor.sequential ~store_dir:None tech lib design
  in
  layer "sta.ssta.prewarm" handle.Ssta.h_prewarm;
  let cold =
    layer "sta.ssta.cold" (fun () ->
        Ssta.analyze ~config:clark tech handle.Ssta.h_provider design)
  in
  { r_gates = Array.length nl.N.gates; r_design = design; r_handle = handle; r_cold = cold }

(* The warm re-analyze (provider caches full) must reproduce the cold
   report bit for bit.  [corrupt] compares instead against a re-analyze
   of the design with its parasitics re-drawn. *)
let check ~corrupt s r =
  let design =
    if corrupt then Design.attach_parasitics ~seed:(s.par_seed + 1) tech
        r.r_design.Design.netlist
    else r.r_design
  in
  let a0 = alloc_words () in
  let warm =
    layer "sta.ssta.walk" (fun () ->
        Ssta.analyze ~config:clark tech r.r_handle.Ssta.h_provider design)
  in
  let a1 = alloc_words () in
  (Incremental.reports_bit_identical r.r_cold warm, a1 -. a0)

let setup () =
  let lib = layer "liberty.load" load_library in
  let model = layer "core.model_build" (fun () -> Model.build lib) in
  (lib, model)

let run ~traced cfg ~seed =
  reset_layers ();
  instrument false;
  let st = Random.State.make [| seed; 0x51 |] in
  (* The machine's speed drifts over seconds (NOTES.md), so set-up is
     timed in two batches: before the first op, and again after the
     last one (and after the memory peak is read).  The ops use the
     first batch's library and model.  Each set-up sits between two
     speed probes. *)
  let setups = ref [] in
  let setup_batch () =
    for _ = 1 to cfg.setup_reps do
      let p0 = speed_probe () in
      let v, dt = timed "setup" setup in
      setups := (v, dt, speed_scale_of [ p0; speed_probe () ]) :: !setups
    done
  in
  setup_batch ();
  let lib, model = (fun (v, _, _) -> v) (List.hd !setups) in
  let corrupt = ref cfg.corrupt in
  let walk_alloc = ref 0.0 in
  let sizes = ref [||] in
  let d =
    drive ~traced ~seconds:cfg.seconds
      ~next_cycle:(fun () -> cycle cfg st)
      (fun s ->
        let r = op lib model s in
        if not (Trace.enabled ()) then sizes := Array.append !sizes [| float_of_int r.r_gates |];
        ( float_of_int r.r_gates,
          fun () ->
            let ok, alloc = check ~corrupt:!corrupt s r in
            corrupt := false;
            if not (Trace.enabled ()) then walk_alloc := !walk_alloc +. alloc;
            ok ))
  in
  let peak_rss = peak_rss_mb 0 in
  setup_batch ();
  let n_ops = float_of_int (max 1 (Array.length d.d_ops)) in
  let detail =
    [
      ("jobs", Json.Int 1);
      ("store", Json.Str "off");
      ("throughput_unit", Json.Str "gates/s");
      ("gates_per_op_mean", Json.Num (d.d_work /. n_ops));
      ( "gates_per_op_quartiles",
        Json.Arr (List.map (fun q -> Json.Num (quantile !sizes q)) [ 0.0; 0.25; 0.5; 0.75; 1.0 ]) );
      ("setup_reps", Json.Int (List.length !setups));
      ("setup_s_raw", Json.Num (median (Array.of_list (List.map (fun (_, dt, _) -> dt) !setups))));
    ]
  in
  if not traced then begin
    let attempted, failed, metrics, e2e_detail =
      batch_metrics ~seconds:cfg.seconds
        ~setup_s:(median (Array.of_list (List.map (fun (_, dt, k) -> dt *. k) !setups)))
        ~peak_rss ~drive:d ~extra_attempted:0 ~extra_failed:0
    in
    let acc, acc_detail = accuracy_metrics lib model cfg.accuracy in
    { attempted; failed; metrics = metrics @ acc; detail = detail @ e2e_detail @ acc_detail }
  end
  else begin
    (* Layer times from the uninstrumented pass of each pair; counters
       from the instrumented one. *)
    let cold = layer_mean "sta.ssta.cold" in
    let walk = layer_mean "sta.ssta.walk" in
    let prewarm = layer_mean "sta.ssta.prewarm" in
    {
      attempted = d.d_attempted;
      failed = d.d_failed;
      metrics =
        [
          m "liberty.load_s" "s" (median (durations "liberty.load"));
          m "core.model_build_s" "s" (median (durations "core.model_build"));
          m "netlist.generate_s" "s" (layer_mean "netlist.generate");
          m "rcnet.parasitics_s" "s" (layer_mean "rcnet.parasitics");
          m "sta.scalar.analyze_s" "s" (layer_mean "sta.scalar.analyze");
          m "sta.ssta.prewarm_s" "s" prewarm;
          m "sta.ssta.wire_s" "s" (cold -. walk);
          m "sta.ssta.walk_s" "s" walk;
          m "sta.ssta.walk_alloc_mwords" "Mwords" (!walk_alloc /. n_ops /. 1e6);
          (* Counters tick in the instrumented pass only: its cold and
             warm walks. *)
          m "sta.ssta.max_ops" "count"
            (float_of_int (counter "sta.ssta.max_ops") /. (2.0 *. n_ops));
          m "sta.ssta.wire_mc_samples" "count"
            (float_of_int (counter "sta.ssta.wire_mc_samples") /. n_ops);
          m "spice.kernel_calls" "count" (kernel_calls () /. n_ops);
          m "spice.plan_fills" "count" (float_of_int (counter "plan.fills") /. n_ops);
          m "bench.trace_overhead_pct" "%" d.d_overhead_pct;
          m "bench.unattributed_frac" "1" (ratio (self_time "op") (total_time "op"));
        ];
      detail =
        detail
        @ [
            ( "bases",
              Json.Obj
                [
                  ("op_s_mean", Json.Num (layer_mean "op"));
                  ("cold_ssta_s_mean", Json.Num (prewarm +. cold));
                  ( "ssta_split",
                    Json.Str
                      "sta.ssta.prewarm_s + wire_s + walk_s = cold_ssta_s_mean \
                       (prewarm + cold walk, per op)" );
                  ("layers_of_op_s_mean", Json.Str "generate, parasitics, scalar, prewarm, cold walk");
                ] );
          ];
    }
  end
