(* pool: batch work on a 2-domain executor.  Characterizes (cell, edge)
   tables — Characterize.characterize with the per-table seeds
   Library.characterize_all uses — and runs cold SSTA among them.  The
   only workload where the domain pool (exec), the simulation kernel
   (spice) and liberty.Characterize carry the load; it mixes coarse
   tasks (one grid point per task) with fine ones (the 96-sample wire
   mini-MC of every net).  signoff runs the same SSTA code with the pool
   bypassed.  It runs at toy size only, inside the traced run of the
   gated workloads and in the self-check: at full size it is too noisy
   to gate (NOTES.md). *)

open Common
module Ch = Nsigma_liberty.Characterize
module Incremental = Nsigma_sta.Incremental

type cfg = {
  accuracy : accuracy;
  corrupt : bool;  (** self-check: corrupt one pool table before comparing *)
}

(* Toy size: both tables of two cells and one cold SSTA of c432 per
   cycle, for 0.2 s of op time; the first cell's tables are checked
   against a jobs=1 characterization. *)
let seconds = 0.2
let cells = List.filteri (fun i _ -> i < 2) all_cells
let circuit = "c432"
let check_cells = 1

let jobs = 2

type spec = Table of int * Cell.t * [ `Rise | `Fall ] | Analysis of string * int

let seed_of_cell i = 1 + (i * 17)

let characterize exec i cell edge =
  Ch.characterize ~n_mc:lib_mc ~seed:(seed_of_cell i) ~exec ~kernel:Cell_sim.Fast
    ~sampling:Sampler.Mc tech cell ~edge

(* A cycle is every table in seeded order, then the analysis. *)
let cycle st =
  let tables =
    List.concat (List.mapi (fun i c -> [ Table (i, c, `Rise); Table (i, c, `Fall) ]) cells)
  in
  Array.append
    (shuffle st (Array.of_list tables))
    [| Analysis (circuit, Random.State.int st 1_000_000) |]

(* Dispatch cost of an executor: one map_array of 96 trivial tasks,
   median of 50. *)
let dispatch_us exec =
  1e6
  *. median_time ~reps:50 "exec.dispatch" (fun () ->
         ignore (Executor.map_array exec (fun i -> i) ~n:96))

let run ~traced cfg ~seed =
  reset_layers ();
  instrument false;
  let st = Random.State.make [| seed; 0x9001 |] in
  let exec = Executor.domain_pool ~jobs () in
  let lib, setup_s = timed "setup" (fun () -> layer "liberty.load" load_library) in
  let kept = Hashtbl.create 16 in
  let table_alloc = ref 0.0 and walk_alloc = ref 0.0 in
  let d =
    drive ~traced ~seconds
      ~next_cycle:(fun () -> cycle st)
      (function
        | Table (i, cell, edge) ->
          let a0 = alloc_words () in
          let t = layer "liberty.table" (fun () -> characterize exec i cell edge) in
          if not (Trace.enabled ()) then table_alloc := !table_alloc +. (alloc_words () -. a0);
          if i < check_cells then Hashtbl.replace kept (i, edge) t;
          (1.0, fun () -> true)
        | Analysis (circuit, par_seed) ->
          let nl = layer "netlist.generate" (fun () -> (find_circuit circuit).Bm.generate ()) in
          let design =
            layer "rcnet.parasitics" (fun () ->
                Design.attach_parasitics ~seed:par_seed tech nl)
          in
          let handle = Ssta.lvf_handle ~exec ~store_dir:None tech lib design in
          layer "sta.ssta.prewarm" handle.Ssta.h_prewarm;
          let cold =
            layer "sta.ssta.cold" (fun () ->
                Ssta.analyze ~config:clark tech handle.Ssta.h_provider design)
          in
          ( 1.0,
            fun () ->
              let a0 = alloc_words () in
              let warm =
                layer "sta.ssta.walk" (fun () ->
                    Ssta.analyze ~config:clark tech handle.Ssta.h_provider design)
              in
              if not (Trace.enabled ()) then walk_alloc := !walk_alloc +. (alloc_words () -. a0);
              Incremental.reports_bit_identical cold warm ))
  in
  (* The pool's tables of the leading cells must equal, bit for bit, a
     jobs=1 characterization with the same seeds. *)
  let serialize t = Marshal.to_string t [ Marshal.No_sharing ] in
  let checked = ref 0 and mismatched = ref 0 in
  let corrupt = ref cfg.corrupt in
  List.iteri
    (fun i cell ->
      if i < check_cells then
        List.iter
          (fun edge ->
            match Hashtbl.find_opt kept (i, edge) with
            | None -> ()
            | Some (t : Ch.table) ->
              if !corrupt then begin
                let p = t.Ch.points.(0).(0) in
                t.Ch.points.(0).(0) <- { p with Ch.mean_out_slew = p.Ch.mean_out_slew *. (1.0 +. epsilon_float) };
                corrupt := false
              end;
              incr checked;
              let reference = characterize Executor.sequential i cell edge in
              if serialize t <> serialize reference then incr mismatched)
          [ `Rise; `Fall ])
    cells;
  let n_ops = float_of_int (max 1 (Array.length d.d_ops)) in
  let n_tables = Array.length (durations "liberty.table") in
  let n_an = Array.length (durations "sta.ssta.cold") in
  let detail =
    [
      ("jobs", Json.Int (Executor.jobs exec));
      ("store", Json.Str "off");
      ("throughput_unit", Json.Str "ops/s (one table or one SSTA analysis)");
      ("tables_per_cycle", Json.Int (2 * List.length cells));
      ("analyses_per_cycle", Json.Int 1);
      ("jobs1_tables_checked", Json.Int !checked);
    ]
  in
  if not traced then begin
    let attempted, failed, metrics, e2e_detail =
      batch_metrics ~seconds ~setup_s ~peak_rss:(peak_rss_mb 0) ~drive:d ~extra_attempted:!checked ~extra_failed:!mismatched
    in
    let acc, acc_detail = accuracy_metrics lib (Model.build lib) cfg.accuracy in
    { attempted; failed; metrics = metrics @ acc; detail = detail @ e2e_detail @ acc_detail }
  end
  else begin
    (* Layer times from the uninstrumented pass of each pair; counters
       from the instrumented one. *)
    let cold = layer_mean "sta.ssta.cold" in
    let walk = layer_mean "sta.ssta.walk" in
    let prewarm = layer_mean "sta.ssta.prewarm" in
    let busy = timer_seconds "exec.worker.busy" in
    let capacity = timer_seconds "exec.pool.capacity" in
    {
      attempted = d.d_attempted + !checked;
      failed = d.d_failed + !mismatched;
      metrics =
        [
          m "liberty.load_s" "s" (median (durations "liberty.load"));
          m "liberty.table_ms" "ms" (1e3 *. median (durations "liberty.table"));
          m "liberty.table_alloc_mwords" "Mwords"
            (!table_alloc /. float_of_int (max 1 n_tables) /. 1e6);
          m "spice.kernel_calls" "count" (kernel_calls () /. n_ops);
          m "spice.plan_fills" "count" (float_of_int (counter "plan.fills") /. n_ops);
          m "exec.dispatch_us" "us" (dispatch_us exec);
          m "exec.busy_frac" "1" (ratio busy capacity);
          m "netlist.generate_s" "s" (layer_mean "netlist.generate");
          m "rcnet.parasitics_s" "s" (layer_mean "rcnet.parasitics");
          m "sta.ssta.prewarm_s" "s" prewarm;
          m "sta.ssta.wire_s" "s" (cold -. walk);
          m "sta.ssta.walk_s" "s" walk;
          m "sta.ssta.walk_alloc_mwords" "Mwords" (!walk_alloc /. float_of_int (max 1 n_an) /. 1e6);
          (* Counters tick in the instrumented pass only: per walk (cold
             and warm), and per analysis for the wire samples. *)
          m "sta.ssta.max_ops" "count"
            (float_of_int (counter "sta.ssta.max_ops") /. float_of_int (2 * max 1 n_an));
          m "sta.ssta.wire_mc_samples" "count"
            (float_of_int (counter "sta.ssta.wire_mc_samples") /. float_of_int (max 1 n_an));
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
                  ("table_s_median", Json.Num (median (durations "liberty.table")));
                  ("cold_ssta_s_mean", Json.Num (prewarm +. cold));
                  ("exec_pool_runs", Json.Int (counter "exec.pool.runs"));
                  ("sequential_dispatch_us", Json.Num (dispatch_us Executor.sequential));
                ] );
          ];
    }
  end
