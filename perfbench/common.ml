(* Shared plumbing for the repository benchmark: the pinned technology
   and library, clocks and /proc probes, order statistics, the bench's
   own layer spans, the end-to-end accuracy figures and the result
   record. *)

module T = Nsigma_process.Technology
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Cell_sim = Nsigma_spice.Cell_sim
module Sampler = Nsigma_stats.Sampler
module Stat_max = Nsigma_stats.Stat_max
module Bm = Nsigma_netlist.Benchmarks
module Design = Nsigma_sta.Design
module Engine = Nsigma_sta.Engine
module Provider = Nsigma_sta.Provider
module Path_mc = Nsigma_sta.Path_mc
module Ssta = Nsigma_sta.Ssta
module Model = Nsigma.Model
module Executor = Nsigma_exec.Executor
module Metrics = Nsigma_obs.Metrics
module Trace = Nsigma_obs.Trace

let tech = T.with_vdd T.default_28nm 0.6

(* Library sample count: the figures in NOTES.md were taken on an
   mc=300 library, small enough to characterize once per checkout in a
   few seconds. *)
let lib_mc = 300

let work_dir = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let all_cells =
  List.concat_map
    (fun k -> List.map (fun s -> Cell.make k ~strength:s) Cell.standard_strengths)
    Cell.all_kinds

let library_path () =
  Filename.concat work_dir
    (Printf.sprintf "lib_%.2fV_mc%d.lvf" tech.T.vdd_nominal lib_mc)

(* The library is an input artifact, like the .lvf cache a user keeps:
   characterized once per checkout (outside every timed section) with
   the CLI's defaults, then only loaded. *)
let ensure_library () =
  let path = library_path () in
  if not (Sys.file_exists path) then begin
    mkdir_p work_dir;
    let lib =
      Library.characterize_all ~n_mc:lib_mc ~exec:Executor.sequential
        ~kernel:Cell_sim.Fast ~sampling:Sampler.Mc tech all_cells
    in
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    Library.save lib tmp;
    Sys.rename tmp path
  end;
  path

let load_library () = Library.load tech (library_path ())

(* A registry circuit, small variants included (as the server resolves
   names). *)
let find_circuit name =
  let l = String.lowercase_ascii name in
  List.find
    (fun b -> String.lowercase_ascii b.Bm.name = l)
    (Bm.all @ Bm.small_variants)

let clark = { Ssta.op = Stat_max.Clark; corr = Ssta.Tracked }

(* ---- clocks and process probes ---- *)

let now = Metrics.now

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of [pid] in seconds (fields 14 and 15 of
   /proc/<pid>/stat, in USER_HZ = 100 ticks). *)
let proc_cpu pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let r = String.rindex s ')' in
  let fields =
    String.split_on_char ' ' (String.sub s (r + 2) (String.length s - r - 2))
  in
  let f i = float_of_string (List.nth fields i) in
  (f 11 +. f 12) /. 100.0

(* Peak resident set (VmHWM) of [pid] in MB. *)
let peak_rss_mb pid =
  let s =
    read_file
      (if pid = 0 then "/proc/self/status"
       else Printf.sprintf "/proc/%d/status" pid)
  in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  let kb =
    Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
  in
  float_of_int kb /. 1024.0

(* ---- machine speed ----

   The host's speed drifts by up to 1.8x over seconds and minutes
   (NOTES.md), on CPU time as much as on wall time, so a run's raw
   timings move with the moment it ran in.  The benchmark therefore
   times three fixed reference loops of its own next to the work it
   measures (right before and after every op and set-up, and between
   serve segments) and divides each measured time by how much slower
   than the reference machine the loops ran.  The loops are the
   benchmark's code, not the program's, so no change to the program
   moves them.  The raw timings are kept in the detail record. *)

let mean_of l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Strided reads over 2 MB of floats, a sqrt and a dependent
   multiply-add each: work that leaves L1 and L2. *)
let strided_buf = Array.init (1 lsl 18) (fun i -> float_of_int (i land 1023) *. 1e-3)

let strided_loop () =
  let a = strided_buf in
  let mask = Array.length a - 1 in
  let acc = ref 0.0 and j = ref 0 in
  for _ = 1 to 200_000 do
    j := (!j + 4099) land mask;
    acc := (!acc *. 0.999) +. sqrt (Array.unsafe_get a !j +. 1.0)
  done;
  !acc

(* The same over 256 KB read in order: core-bound work that stays in
   L2. *)
let l2_buf = Array.sub strided_buf 0 (1 lsl 15)

let l2_loop () =
  let a = l2_buf in
  let mask = Array.length a - 1 in
  let acc = ref 0.0 in
  for i = 1 to 200_000 do
    acc := (!acc *. 0.999) +. sqrt (Array.unsafe_get a (i land mask) +. 1.0)
  done;
  !acc

(* Short-lived allocation, as the program's OCaml code does: a list of
   20,000 boxed floats, reversed and summed.  It dies young, so it costs
   minor collections only. *)
let alloc_loop () = List.fold_left ( +. ) 0.0 (List.rev (List.init 20_000 float_of_int))

(* Each loop with its nominal time (seconds): about its median on the
   2-core host of NOTES.md.  Constants, so that every run scales to the
   same reference machine. *)
let speed_loops = [ (strided_loop, 0.74e-3); (l2_loop, 0.57e-3); (alloc_loop, 1.30e-3) ]

(* How much slower than the reference machine the host runs now: per
   loop, the median of five back-to-back runs (so that a preemption or
   two do not count) over its nominal time, averaged over the loops.
   Of the loops tried against signoff's ops and serve's read queries,
   no single one followed both; the mean of these three did (NOTES.md). *)
let speed_probe () =
  mean_of
    (List.map
       (fun (loop, nominal) ->
         let t =
           Array.init 5 (fun _ ->
               let t0 = now () in
               ignore (Sys.opaque_identity (loop ()));
               now () -. t0)
         in
         Array.sort Float.compare t;
         t.(2) /. nominal)
       speed_loops)

(* The factor that scales a time measured between [probes] (taken
   before, during and after it) to the reference machine. *)
let speed_scale_of probes = 1.0 /. mean_of probes

(* Words allocated so far by the calling domain. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* ---- order statistics ---- *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* The highest percentile with at least ten samples beyond it: the
   11th-largest sample, at percentile (n - 10) / n.  Returns the value
   and the percentile; with ten samples or fewer it degrades to the
   minimum. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, 0.0)
  else
    let k = max 0 (n - 11) in
    (s.(k), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* Fisher-Yates, in place; returns [a]. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let sum a = Array.fold_left ( +. ) 0.0 a
let mean a = if Array.length a = 0 then 0.0 else sum a /. float_of_int (Array.length a)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- layer spans ----

   Every call into a layer that the benchmark attributes goes through
   [layer name f]: a bench-declared trace span (category "bench", so it
   shows in the Chrome trace and folded stacks beside the program's own
   spans) plus an accumulator of total and self time.  Self time is the
   span's duration minus the time of bench layers opened inside it, so
   the op span's self time is the unattributed share. *)

type acc = { mutable total : float; mutable self : float; mutable durs : float list }

(* Calls are accounted separately by whether the program's own
   instrumentation (metrics registry and tracing) was on: its overhead
   on the SSTA walk is large, so layer times are read from the
   uninstrumented calls wherever a workload makes both. *)
type layer = { st : Trace.span_type; off : acc; on : acc }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
let open_children : float ref list ref = ref []
let new_acc () = { total = 0.0; self = 0.0; durs = [] }

let find_layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l =
      { st = Trace.span_type ~cat:"bench" ("bench." ^ name); off = new_acc (); on = new_acc () }
    in
    Hashtbl.replace layers name l;
    l

let reset_layers () =
  let clear a =
    a.total <- 0.0;
    a.self <- 0.0;
    a.durs <- []
  in
  Hashtbl.iter
    (fun _ l ->
      clear l.off;
      clear l.on)
    layers

(* [timed name f] runs [f] under the layer span and returns its result
   with the elapsed seconds. *)
let timed name f =
  let l = find_layer name in
  let a = if Trace.enabled () then l.on else l.off in
  let children = ref 0.0 in
  open_children := children :: !open_children;
  let t0 = now () in
  let close () =
    let d = now () -. t0 in
    open_children := List.tl !open_children;
    (match !open_children with p :: _ -> p := !p +. d | [] -> ());
    a.total <- a.total +. d;
    a.self <- a.self +. (d -. !children);
    a.durs <- d :: a.durs;
    d
  in
  match Trace.with_span l.st f with
  | v -> (v, close ())
  | exception e ->
    ignore (close ());
    raise e

let layer name f = fst (timed name f)

(* The uninstrumented calls of a layer when there are any, else the
   instrumented ones. *)
let acc_of name =
  match Hashtbl.find_opt layers name with
  | Some l -> if l.off.durs <> [] then l.off else l.on
  | None -> new_acc ()

let durations name = Array.of_list (List.rev (acc_of name).durs)
let layer_mean name = mean (durations name)
let self_time name = (acc_of name).self
let total_time name = (acc_of name).total

(* Median run time of [reps] calls of [f]. *)
let median_time ?(reps = 5) name f =
  for _ = 1 to reps do
    ignore (timed name f)
  done;
  let d = durations name in
  median (Array.sub d (Array.length d - reps) reps)

let counter = Metrics.find_counter

let timer_seconds name =
  match List.assoc_opt name (Metrics.snapshot ()).Metrics.s_timers with
  | Some (_, s) -> s
  | None -> 0.0

(* Metrics and tracing on (the traced run) or both off (end-to-end). *)
let instrument on =
  Metrics.set_enabled on;
  Trace.set_enabled on;
  Metrics.reset ();
  Trace.reset ()

(* ---- results ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m name unit_ value = { m_name = name; m_value = value; m_unit = unit_ }

(* A finished workload run: its metrics, the op counts behind [ok_frac],
   and [detail] — per-metric bases, sample counts and percentiles —
   printed on the line before the result. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : (string * Json.t) list;
}

(* ---- accuracy (outside every timed section) ---- *)

type accuracy = {
  circuit : string;  (** SSTA validation circuit *)
  ssta_mc_n : int;
  path_circuits : string list;  (** N-sigma critical paths *)
  path_mc_n : int;
}

(* The paper-level accuracy kept beside the timings: the SSTA ±3σ error
   against matched-coverage per-path MC (Ssta.validate, k = 16 worst
   POs), and the scalar N-sigma +3σ critical-path delay against
   fast-kernel path MC (Table III), as the mean absolute error over a
   few circuits.  Fixed circuits and seeds, single domain: the figures
   are a pure function of the code. *)
let accuracy_metrics lib model acc =
  let design_of c = Design.attach_parasitics tech ((find_circuit c).Bm.generate ()) in
  let design = design_of acc.circuit in
  let provider =
    Ssta.lvf_provider ~exec:Executor.sequential ~store_dir:None tech lib design
  in
  let v =
    Ssta.validate ~n:acc.ssta_mc_n ~seed:1 ~config:clark ~provider tech lib
      design
  in
  let nsigma_err c =
    let design = design_of c in
    let report = Engine.analyze tech (Provider.nominal lib) design in
    let path = Engine.critical_path report in
    let nsigma = Model.path_quantile_of_path model design path ~sigma:3 in
    let mc =
      Path_mc.run ~kernel:Cell_sim.Fast ~n:acc.path_mc_n ~seed:1
        ~exec:Executor.sequential ~sampling:Sampler.Mc tech design path
    in
    let mc_p3 = mc.Path_mc.quantile 3 in
    (c, 100.0 *. (nsigma -. mc_p3) /. mc_p3)
  in
  let errs = List.map nsigma_err acc.path_circuits in
  let pct x = 100.0 *. Float.abs x in
  ( [
      m "ssta_err_p3_pct" "%" (pct v.Ssta.va_err_p3);
      m "ssta_err_m3_pct" "%" (pct v.Ssta.va_err_m3);
      m "nsigma_err_p3_pct" "%"
        (mean (Array.of_list (List.map (fun (_, e) -> Float.abs e) errs)));
    ],
    [
      ( "accuracy",
        Json.Obj
          [
            ("ssta_circuit", Json.Str acc.circuit);
            ("ssta_mc_paths", Json.Int v.Ssta.va_n_paths);
            ("ssta_mc_n", Json.Int acc.ssta_mc_n);
            ("ssta_err_p3_signed_pct", Json.Num (100.0 *. v.Ssta.va_err_p3));
            ("ssta_err_m3_signed_pct", Json.Num (100.0 *. v.Ssta.va_err_m3));
            ("path_mc_n", Json.Int acc.path_mc_n);
            ( "nsigma_err_p3_signed_pct",
              Json.Obj (List.map (fun (c, e) -> (c, Json.Num e)) errs) );
          ] );
    ] )

(* Fields common to every end-to-end record: op-time percentiles, on
   the times scaled to the reference machine, with their sample counts
   and the percentiles of the raw times beside them. *)
let op_time_metrics ~raw ops_s =
  let p50 = median ops_s in
  let tail_v, tail_pct = tail ops_s in
  ( [ m "op_p50_ms" "ms" (p50 *. 1e3); m "op_tail_ms" "ms" (tail_v *. 1e3) ],
    [
      ("ops_timed", Json.Int (Array.length ops_s));
      ("op_tail_percentile", Json.Num tail_pct);
      ("op_p50_ms_raw", Json.Num (1e3 *. median raw));
      ("op_tail_ms_raw", Json.Num (1e3 *. fst (tail raw)));
    ] )

(* Quartiles of the speed scales a run applied, for the detail
   record. *)
let scale_detail scales =
  ( "speed_scale_quartiles",
    Json.Arr (List.map (fun q -> Json.Num (quantile scales q)) [ 0.0; 0.25; 0.5; 0.75; 1.0 ]) )

(* Switch recording on or off without clearing what was recorded. *)
let instrument_toggle on =
  Metrics.set_enabled on;
  Trace.set_enabled on

(* Simulator kernel evaluations (fast + RK4; Auto dispatches to one of
   them and is not counted twice). *)
let kernel_calls () =
  float_of_int (counter "kernel.fast.calls" + counter "kernel.rk4.calls")

type span_times = { mutable s_durs : float list; mutable s_self : float }

(* Durations and self time (seconds) per span name, from the recorded
   trace: on each track a span's self time is its duration minus the
   durations of the spans directly inside it. *)
let trace_span_times () =
  let tbl : (string, span_times) Hashtbl.t = Hashtbl.create 64 in
  let stacks : (int, (int * int ref) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let stack =
        Option.value ~default:[] (Hashtbl.find_opt stacks ev.Trace.ev_tid)
      in
      match (ev.Trace.ev_kind, stack) with
      | Trace.Begin, _ ->
        Hashtbl.replace stacks ev.Trace.ev_tid ((ev.Trace.ev_ts_ns, ref 0) :: stack)
      | Trace.End, (t0, children) :: rest ->
        let d = ev.Trace.ev_ts_ns - t0 in
        (match rest with (_, p) :: _ -> p := !p + d | [] -> ());
        Hashtbl.replace stacks ev.Trace.ev_tid rest;
        let s =
          match Hashtbl.find_opt tbl ev.Trace.ev_name with
          | Some s -> s
          | None ->
            let s = { s_durs = []; s_self = 0.0 } in
            Hashtbl.replace tbl ev.Trace.ev_name s;
            s
        in
        s.s_durs <- (float_of_int d *. 1e-9) :: s.s_durs;
        s.s_self <- s.s_self +. (float_of_int (d - !children) *. 1e-9)
      | _ -> ())
    (Trace.events ());
  tbl

(* Write the Chrome trace and folded stacks of the traced run. *)
let write_trace workload =
  mkdir_p work_dir;
  let file = Filename.concat work_dir (Printf.sprintf "trace_%s.json" workload) in
  Trace.write file;
  let st = Trace.stats () in
  ( "trace",
    Json.Obj
      [
        ("chrome", Json.Str file);
        ("folded", Json.Str (file ^ ".folded"));
        ("recorded", Json.Int st.Trace.recorded);
        ("dropped", Json.Int st.Trace.dropped);
      ] )

(* ---- the timed op loop ---- *)

type drive = {
  d_ops : float array;  (** seconds of each recorded op, in order *)
  d_scale : float array;  (** each op's machine-speed scale ([speed_scale_of]) *)
  d_work : float;  (** work units done by the recorded ops *)
  d_cpu : float;  (** process CPU seconds inside the recorded ops *)
  d_attempted : int;
  d_failed : int;
  d_overhead_pct : float;  (** traced vs untraced time of the op pairs *)
  d_cycle_rates : float list;  (** work per scaled second of each cycle *)
}

(* Run whole cycles of ops until the op time reaches [seconds] (with a
   hard stop at three times that).  [op s] runs under
   the "op" layer and returns the op's work units and a check to run
   outside the timing; an exception or a failed check counts the op as
   failed.  With [traced], every op runs twice on identical work —
   instrumented and not, in alternating order — only the instrumented
   pass is recorded, and the pair totals give the tracing overhead.
   Every op sits between two speed probes, outside its timing. *)
let drive ~traced ~seconds ~next_cycle op =
  let ops = ref [] and scales = ref [] and work = ref 0.0 and cpu = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let on_s = ref 0.0 and off_s = ref 0.0 in
  let report e = prerr_endline ("perfbench: op failed: " ^ Printexc.to_string e) in
  let run_one s =
    let p0 = speed_probe () in
    let c0 = cpu_self () in
    match timed "op" (fun () -> op s) with
    | (w, check), d ->
      let c = cpu_self () -. c0 in
      let k = speed_scale_of [ p0; speed_probe () ] in
      let ok =
        try check ()
        with e ->
          report e;
          false
      in
      Some (w, d, k, c, ok)
    | exception e ->
      report e;
      None
  in
  let record = function
    | Some (w, d, k, c, ok) ->
      incr attempted;
      ops := d :: !ops;
      scales := k :: !scales;
      work := !work +. w;
      cpu := !cpu +. c;
      if not ok then incr failed
    | None ->
      incr attempted;
      incr failed
  in
  let deadline = now () +. (3.0 *. seconds) in
  let op_time = ref 0.0 in
  let i = ref 0 in
  let rates = ref [] in
  while (!attempted = 0 || !op_time < seconds) && now () < deadline do
    let scaled_sum () = List.fold_left2 (fun a d k -> a +. (d *. k)) 0.0 !ops !scales in
    let w0 = !work and t0 = scaled_sum () in
    Array.iter
      (fun s ->
        if traced then begin
          let pass on =
            instrument_toggle on;
            let r = run_one s in
            instrument_toggle false;
            (match r with
            | Some (_, d, _, _, _) ->
              op_time := !op_time +. d;
              if on then on_s := !on_s +. d else off_s := !off_s +. d
            | None -> ());
            if on then record r
          in
          if !i mod 2 = 0 then (pass false; pass true) else (pass true; pass false)
        end
        else begin
          let r = run_one s in
          record r;
          match r with Some (_, d, _, _, _) -> op_time := !op_time +. d | None -> ()
        end;
        incr i)
      (next_cycle ());
    rates := ((!work -. w0) /. (scaled_sum () -. t0)) :: !rates
  done;
  {
    d_ops = Array.of_list (List.rev !ops);
    d_scale = Array.of_list (List.rev !scales);
    d_work = !work;
    d_cpu = !cpu;
    d_attempted = !attempted;
    d_failed = !failed;
    d_overhead_pct = (if !off_s > 0.0 then 100.0 *. ((!on_s /. !off_s) -. 1.0) else 0.0);
    d_cycle_rates = List.rev !rates;
  }

(* The end-to-end record of a batch workload. *)
(* [cpu_s] is scaled to exactly [seconds] of op time, so whole-cycle
   overshoot does not move it: it reads as CPU per second of work times
   the run length. *)
let batch_metrics ~seconds ~setup_s ~peak_rss ~drive:d ~extra_attempted ~extra_failed =
  let attempted = d.d_attempted + extra_attempted in
  let failed = d.d_failed + extra_failed in
  let scaled = Array.map2 ( *. ) d.d_ops d.d_scale in
  let e2e, e2e_detail = op_time_metrics ~raw:d.d_ops scaled in
  ( attempted,
    failed,
    [ m "setup_s" "s" setup_s; m "throughput" "1/s" (d.d_work /. sum scaled) ]
    @ e2e
    @ [
        m "ok_frac" "1" (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
        m "cpu_s" "s" (d.d_cpu *. seconds /. sum d.d_ops);
        m "peak_rss_mb" "MB" peak_rss;
      ],
    e2e_detail
    @ [
        ("throughput_raw", Json.Num (d.d_work /. sum d.d_ops));
        scale_detail d.d_scale;
        ("cycle_throughputs", Json.Arr (List.map (fun r -> Json.Num r) d.d_cycle_rates));
      ] )
