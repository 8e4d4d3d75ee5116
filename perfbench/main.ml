(* The repository benchmark.

     python3 perfbench/run.py --workload signoff|serve --seed N \
       --seconds S --trace 0|1
     python3 perfbench/run.py --selfcheck

   run.py builds this executable and the CLI in the release profile,
   runs [main.exe --prepare] (characterizes the library once per
   checkout, in a process of its own, so no measured process carries
   its memory peak) and then this executable from the repository root.
   --trace 0 prints the end-to-end metrics (metrics registry and
   tracing off; times scaled to a reference machine by the speed
   probes of common.ml); --trace 1 runs the workload instrumented and
   prints the per-layer metrics.  The last line of standard output is the
   result object; the line before it is the detail record (provenance,
   bases, sample counts).  See NOTES.md for why each workload
   exists. *)

open Common

let end_to_end =
  [
    ("setup_s", "s"); ("throughput", "1/s"); ("op_p50_ms", "ms");
    ("op_tail_ms", "ms"); ("ok_frac", "1"); ("cpu_s", "s");
    ("peak_rss_mb", "MB"); ("ssta_err_p3_pct", "%"); ("ssta_err_m3_pct", "%");
    ("nsigma_err_p3_pct", "%");
  ]

let per_layer =
  [
    ("liberty.load_s", "s"); ("liberty.table_ms", "ms");
    ("liberty.table_alloc_mwords", "Mwords"); ("liberty.store_hit_ratio", "1");
    ("spice.kernel_calls", "count"); ("spice.plan_fills", "count");
    ("exec.dispatch_us", "us"); ("exec.busy_frac", "1");
    ("netlist.generate_s", "s"); ("rcnet.parasitics_s", "s");
    ("core.model_build_s", "s"); ("sta.scalar.analyze_s", "s");
    ("sta.ssta.prewarm_s", "s"); ("sta.ssta.wire_s", "s");
    ("sta.ssta.wire_mc_samples", "count"); ("sta.ssta.walk_s", "s");
    ("sta.ssta.walk_alloc_mwords", "Mwords"); ("sta.ssta.max_ops", "count");
    ("sta.incr.apply_p50_ms", "ms"); ("sta.incr.apply_tail_ms", "ms");
    ("sta.incr.dirty_gates", "count"); ("sta.incr.cutoff_ratio", "1");
    ("sta.path_mc_ms", "ms"); ("server.handle_ms.analyze", "ms");
    ("server.handle_ms.path_mc", "ms"); ("server.handle_ms.retime", "ms");
    ("server.transport_ms", "ms"); ("server.batched_frac", "1");
    ("server.context_hit_ratio", "1"); ("bench.trace_overhead_pct", "%");
    ("bench.unattributed_frac", "1");
  ]

(* The workloads BENCHMARK.json gates.  [pool] runs only at toy size:
   inside the traced run of the others and in the self-check (NOTES.md
   records why it is not gated). *)
let gated = [ "signoff"; "serve" ]
let workloads = gated @ [ "pool" ]

(* ---- sizes ---- *)

type size = Full | Toy

let accuracy = function
  | Full ->
    { circuit = "c432"; ssta_mc_n = 1000; path_circuits = [ "c432"; "c1908"; "c5315" ];
      path_mc_n = 2000 }
  | Toy ->
    { circuit = "c432-small"; ssta_mc_n = 100; path_circuits = [ "c432-small" ];
      path_mc_n = 100 }

let run_workload ?(corrupt = false) ~traced ~size ~seconds ~seed = function
  | "signoff" ->
    Signoff.run ~traced ~seed
      (match size with
      | Full ->
        { Signoff.seconds; min_gates = 655; max_gates = 1310;
          setup_reps = (if traced then 1 else 6);
          accuracy = accuracy Full; corrupt }
      | Toy ->
        { Signoff.seconds = 0.2; min_gates = 30; max_gates = 60; setup_reps = 1;
          accuracy = accuracy Toy; corrupt })
  | "serve" ->
    Serve.run ~traced ~seed
      (match size with
      | Full ->
        { Serve.seconds; reads = [ "c432"; "c5315" ]; write = "c5315"; path_n = 40;
          setup_reps = (if traced then 2 else 3);
          accuracy = accuracy Full; corrupt }
      | Toy ->
        { Serve.seconds = 0.3; reads = [ "c432-small" ]; write = "c432-small";
          path_n = 20; setup_reps = (if traced then 2 else 1); accuracy = accuracy Toy;
          corrupt })
  | "pool" ->
    Pool.run ~traced ~seed { Pool.accuracy = accuracy Toy; corrupt }
  | w -> invalid_arg (Printf.sprintf "unknown workload %S" w)

(* The traced run reports every per-layer metric.  A layer the workload
   bypasses (the server on signoff, say) is measured by a toy run of the
   workload that exercises it, and the detail record names the source. *)
let traced_run ~size ~seconds ~seed w =
  Trace.set_max_records (1 lsl 20);
  let own = run_workload ~traced:true ~size ~seconds ~seed w in
  let trace = write_trace w in
  let toys =
    List.map
      (fun o -> (o, run_workload ~traced:true ~size:Toy ~seconds ~seed o))
      (List.filter (( <> ) w) workloads)
  in
  let sources = ref [] in
  let metrics =
    List.filter_map
      (fun (name, _) ->
        match List.find_opt (fun x -> x.m_name = name) own.metrics with
        | Some x -> Some x
        | None ->
          List.find_map
            (fun (o, r) ->
              Option.map
                (fun x ->
                  sources := (name, Json.Str ("toy " ^ o)) :: !sources;
                  x)
                (List.find_opt (fun x -> x.m_name = name) r.metrics))
            toys)
      per_layer
  in
  {
    attempted = List.fold_left (fun n (_, r) -> n + r.attempted) own.attempted toys;
    failed = List.fold_left (fun n (_, r) -> n + r.failed) own.failed toys;
    metrics;
    detail =
      own.detail
      @ [ trace; ("measured_by_toy_run", Json.Obj (List.rev !sources)) ]
      @ List.map (fun (o, r) -> ("toy_" ^ o, Json.Obj r.detail)) toys;
  }

(* ---- provenance ---- *)

let git_rev () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let rev = try input_line ic with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  if rev = "" then "none (not a git checkout)" else rev

(* Digest of the program sources, for checkouts without git metadata. *)
let src_digest () =
  let rec files dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      List.concat_map
        (fun f -> files (Filename.concat dir f))
        (List.sort compare (Array.to_list (Sys.readdir dir)))
    else if Filename.check_suffix dir ".ml" || Filename.check_suffix dir ".mli" then [ dir ]
    else []
  in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map Digest.file (files "lib" @ files "bin"))))

let provenance ~workload ~seed ~trace lib =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Int seed);
      ("trace", Json.Bool trace);
      ("git_rev", Json.Str (git_rev ()));
      ("src_digest", Json.Str (src_digest ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("dune_profile", Json.Str Build_info.profile);
      ("jobs", Json.Int 1);
      ("lib_mc", Json.Int lib_mc);
      ("lib_fingerprint", Json.Str (Library.fingerprint lib));
    ]

(* ---- output ---- *)

let check_names declared metrics =
  List.iter
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.m_name = name) metrics with
      | None -> failwith (Printf.sprintf "metric %s missing" name)
      | Some x when x.m_unit <> unit_ ->
        failwith (Printf.sprintf "metric %s has unit %s, declared %s" name x.m_unit unit_)
      | Some x when not (Float.is_finite x.m_value) ->
        failwith (Printf.sprintf "metric %s is not finite" name)
      | Some _ -> ())
    declared;
  if List.length metrics <> List.length declared then
    failwith "undeclared metrics in the result"

let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.failed = 0));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x -> (x.m_name, Json.Obj [ ("value", Json.Num x.m_value); ("unit", Json.Str x.m_unit) ]))
                r.metrics) );
       ])

(* ---- self-check ---- *)

(* Seconds-long: every workload end to end at toy sizes, untraced and
   traced, with every declared metric and unit present and no failure;
   then each workload again with one response, report or table
   corrupted, which must count as a failure. *)
let selfcheck () =
  let ok = ref true in
  let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt in
  List.iter
    (fun w ->
      (try
         let r = run_workload ~traced:false ~size:Toy ~seconds:0.0 ~seed:1 w in
         check_names end_to_end r.metrics;
         if r.failed <> 0 then failwith (Printf.sprintf "%d of %d ops failed" r.failed r.attempted);
         let t = traced_run ~size:Toy ~seconds:0.0 ~seed:1 w in
         check_names per_layer t.metrics;
         if t.failed <> 0 then failwith (Printf.sprintf "traced: %d of %d ops failed" t.failed t.attempted);
         let c = run_workload ~corrupt:true ~traced:false ~size:Toy ~seconds:0.0 ~seed:1 w in
         if c.failed = 0 then failwith "a corrupted output passed the correctness check";
         say "selfcheck %s: ok (%d ops, %d per-layer metrics; corruption caught: %d failed)" w
           r.attempted (List.length t.metrics) c.failed
       with e ->
         ok := false;
         say "selfcheck %s: FAILED: %s" w (Printexc.to_string e)))
    workloads;
  exit (if !ok then 0 else 1)

(* ---- main ---- *)

let () =
  if Build_info.profile <> "release" then begin
    prerr_endline
      ("perfbench: refusing a " ^ Build_info.profile
     ^ "-profile build (dev builds compile -opaque); build with --profile release");
    exit 2
  end;
  (* A daemon that dies mid-write must surface as an error, not kill
     the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--prepare" args then begin
    ignore (ensure_library ());
    exit 0
  end;
  if not (Sys.file_exists (library_path ())) then begin
    prerr_endline ("perfbench: no library at " ^ library_path () ^ "; run with --prepare first");
    exit 2
  end;
  if List.mem "--selfcheck" args then selfcheck ();
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name =
    match opt name args with
    | Some v -> v
    | None ->
      prerr_endline ("perfbench: missing " ^ name);
      exit 2
  in
  let workload = get "--workload" in
  if not (List.mem workload gated) then begin
    prerr_endline ("perfbench: unknown workload " ^ workload);
    exit 2
  end;
  let seed = int_of_string (get "--seed") in
  let seconds = float_of_string (get "--seconds") in
  let trace = get "--trace" = "1" in
  let prov = provenance ~workload ~seed ~trace (load_library ()) in
  let r =
    if trace then traced_run ~size:Full ~seconds ~seed workload
    else run_workload ~traced:false ~size:Full ~seconds ~seed workload
  in
  check_names (if trace then per_layer else end_to_end) r.metrics;
  print_endline
    (Json.to_string (Json.Obj [ ("perfbench", prov); ("detail", Json.Obj r.detail) ]));
  print_endline (result_line r)
