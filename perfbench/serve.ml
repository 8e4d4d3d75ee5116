(* serve: the `nsigma serve` daemon on a Unix socket at jobs=1, driven
   by a closed loop from one process over two connections (two
   interactive users, each waiting for its reply before sending the
   next request).  Reads are analyze queries on hot contexts
   (ssta/scalar x clark/moment) and small path_mc runs; writes are
   ECO-shaped retime edits on a large design in per-connection
   sessions.  Protocol framing, dispatch, coalescing, the context LRU,
   Incremental.apply and Path_mc carry the work; characterization and
   cold provider warm-up happen in set-up only.  The context working
   set fits the LRU, so responses do not depend on how the two
   connections interleave. *)

open Common
module N = Nsigma_netlist.Netlist
module Edit = Nsigma_netlist.Edit
module P = Nsigma_server.Protocol
module Server = Nsigma_server.Server
module Incremental = Nsigma_sta.Incremental

type cfg = {
  seconds : float;
  reads : string list;  (** circuits of the read queries *)
  write : string;  (** circuit the sessions retime *)
  path_n : int;  (** path_mc samples per query *)
  setup_reps : int;
  accuracy : accuracy;
  corrupt : bool;  (** self-check: corrupt the first response compared *)
}

let cli_exe = Filename.concat "_build" (Filename.concat "default" "bin/nsigma_cli.exe")
let max_contexts = 16
let n_conns = 2

(* ---- requests ---- *)

type kind = Analyze | Path_mc | Retime

let kind_name = function
  | Analyze -> "analyze"
  | Path_mc -> "path_mc"
  | Retime -> "retime"

type edit_kind = Swap | Scale | Bump

type slot = Ssta_read | Scalar_read | Path_read | Edit of edit_kind * bool  (** endpoint? *)

(* One block of 60 requests in the proportions of the repository's
   `bench server` replay (bench/main.ml, server_workload): 50% ssta
   analyze (clark or moment), 15% scalar analyze, 20% path_mc and 15%
   retime.  The 9 retimes follow `bench incr`'s ECO shape, two thirds in
   the endpoint region and one third anywhere: each edit kind twice in
   the endpoint region, and three wire edits (re-route, load bump,
   re-route) anywhere.  Blocks are shuffled per connection from the
   seed; fixed counts keep the mix, and so throughput, the same across
   seeds.  A swap also re-times its input drivers' cones, so swaps
   anywhere were the costliest and most variable edits: they stay in
   the endpoint region, where their fan-in is shallow too. *)
let block =
  List.concat
    [
      List.init 30 (fun _ -> Ssta_read);
      List.init 9 (fun _ -> Scalar_read);
      List.init 12 (fun _ -> Path_read);
      List.concat_map (fun k -> [ Edit (k, true); Edit (k, true) ]) [ Swap; Scale; Bump ];
      [ Edit (Scale, false); Edit (Bump, false); Edit (Scale, false) ];
    ]

(* "Anywhere" edits cycle through 16 strata of gates ranked by the size
   of their fan-out cone (what an edit there can re-time), in a seeded
   order, so every run draws large and small cones in the same
   proportion: the deep edits dominate the daemon's time, and a random
   draw of them made throughput swing from seed to seed. *)
let n_strata = 16

(* Per-connection request source: its own RNG, and a twin of the
   session's netlist so every generated edit is valid against the
   session state it will meet (swaps read the current cell). *)
type gen = {
  st : Random.State.t;
  nl : N.t;
  endpoint : int array;  (** gates within 6 stages of a PO *)
  endpoint_swap : int array;  (** ... whose input drivers are too *)
  strata : int array array;  (** all gates by fan-out cone size rank *)
  fanouts : (int * int) list array;
  mutable slots : slot list;
  mutable strata_order : int list;
  mutable next_id : int;
}

(* Longest downstream distance (gate stages) from each gate to a PO. *)
let downstream_depth (nl : N.t) =
  let order = N.topo_order nl in
  let fanouts = N.fanouts_of nl in
  let depth = Array.make (Array.length nl.N.gates) 0 in
  for i = Array.length order - 1 downto 0 do
    let g = order.(i) in
    depth.(g) <-
      List.fold_left
        (fun acc (sg, _) -> if sg >= 0 then max acc (1 + depth.(sg)) else acc)
        0
        (fanouts.(nl.N.gates.(g).N.output))
  done;
  depth

(* Gates in each gate's fan-out cone, itself included. *)
let cone_sizes (nl : N.t) =
  let n = Array.length nl.N.gates in
  let words = (n + 62) / 63 in
  let order = N.topo_order nl in
  let fanouts = N.fanouts_of nl in
  let cones = Array.make n [||] in
  for i = Array.length order - 1 downto 0 do
    let g = order.(i) in
    let c = Array.make words 0 in
    c.(g / 63) <- 1 lsl (g mod 63);
    List.iter
      (fun (sg, _) ->
        if sg >= 0 then Array.iteri (fun w x -> c.(w) <- c.(w) lor x) cones.(sg))
      fanouts.(nl.N.gates.(g).N.output);
    cones.(g) <- c
  done;
  let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1)) in
  Array.map (Array.fold_left (fun acc x -> acc + popcount x) 0) cones

let make_gen cfg ~seed ~conn =
  let nl = layer "netlist.generate" (fun () -> (find_circuit cfg.write).Bm.generate ()) in
  let depth = downstream_depth nl in
  let drivers = N.driver_of nl in
  let gates = Array.init (Array.length nl.N.gates) Fun.id in
  let endpoint = Array.of_list (List.filter (fun g -> depth.(g) <= 6) (Array.to_list gates)) in
  let endpoint_swap =
    Array.of_list
      (List.filter
         (fun g ->
           Array.for_all
             (fun net -> drivers.(net) < 0 || depth.(drivers.(net)) <= 6)
             nl.N.gates.(g).N.inputs)
         (Array.to_list endpoint))
  in
  let cone = cone_sizes nl in
  let by_cone = Array.copy gates in
  Array.stable_sort (fun a b -> compare cone.(a) cone.(b)) by_cone;
  let n = Array.length by_cone in
  let strata =
    Array.init n_strata (fun k ->
        let lo = k * n / n_strata and hi = (k + 1) * n / n_strata in
        Array.sub by_cone (min lo (n - 1)) (max 1 (hi - lo)))
  in
  {
    st = Random.State.make [| seed; 0x5e; conn |];
    nl;
    endpoint;
    endpoint_swap;
    strata;
    fanouts = N.fanouts_of nl;
    slots = [];
    strata_order = [];
    next_id = 1;
  }

let shuffled g l = Array.to_list (shuffle g.st (Array.of_list l))

let next_slot g =
  if g.slots = [] then g.slots <- shuffled g block;
  match g.slots with
  | s :: rest ->
    g.slots <- rest;
    s
  | [] -> assert false

let anywhere_gate g =
  if g.strata_order = [] then g.strata_order <- shuffled g (List.init n_strata Fun.id);
  match g.strata_order with
  | k :: rest ->
    g.strata_order <- rest;
    let pool = g.strata.(k) in
    pool.(Random.State.int g.st (Array.length pool))
  | [] -> assert false

let str v = P.Jstr v

let with_id g fields =
  let id = g.next_id in
  g.next_id <- id + 1;
  P.to_line (("id", P.Jnum (float_of_int id)) :: fields)

(* An ECO-shaped edit: a cell swap, a wire re-route or a sink-load
   bump, on a gate in the endpoint region or anywhere. *)
let edit g ~kind ~endpoint =
  let pick pool =
    if endpoint && Array.length pool > 0 then
      pool.(Random.State.int g.st (Array.length pool))
    else anywhere_gate g
  in
  let e =
    match kind with
    | Swap ->
      let gate = pick g.endpoint_swap in
      let cur = g.nl.N.gates.(gate).N.cell in
      let choices =
        List.filter (fun s -> s <> cur.Cell.strength) Cell.standard_strengths
      in
      let strength = List.nth choices (Random.State.int g.st (List.length choices)) in
      Edit.Swap_cell { gate; cell = Cell.make cur.Cell.kind ~strength }
    | Scale ->
      Edit.Scale_wire
        {
          net = g.nl.N.gates.(pick g.endpoint).N.output;
          r_scale = 0.8 +. Random.State.float g.st 0.7;
          c_scale = 0.8 +. Random.State.float g.st 0.7;
        }
    | Bump ->
      let rec bump () =
        let net = g.nl.N.gates.(pick g.endpoint).N.output in
        match List.length g.fanouts.(net) with
        | 0 -> bump ()
        | k ->
          Edit.Bump_sink_load
            {
              net;
              sink = Random.State.int g.st k;
              delta_cap = (0.2 +. Random.State.float g.st 1.8) *. 1e-15;
            }
      in
      bump ()
  in
  let json = Edit.to_json g.nl e in
  Edit.apply_netlist g.nl e;
  json

let retime cfg g ~kind ~endpoint =
  ( Retime,
    with_id g
      [ ("op", str "retime"); ("circuit", str cfg.write); ("max", str "clark");
        ("edit", str (edit g ~kind ~endpoint)) ] )

let next_request cfg g =
  let circuit () = str (List.nth cfg.reads (Random.State.int g.st (List.length cfg.reads))) in
  match next_slot g with
  | Ssta_read ->
    let circuit = circuit () in
    let op = if Random.State.bool g.st then "clark" else "moment" in
    (Analyze, with_id g [ ("op", str "analyze"); ("circuit", circuit); ("max", str op) ])
  | Scalar_read ->
    (Analyze, with_id g [ ("op", str "analyze"); ("circuit", circuit ()); ("engine", str "scalar") ])
  | Path_read ->
    ( Path_mc,
      with_id g
        [ ("op", str "path_mc"); ("circuit", circuit ());
          ("n", P.Jnum (float_of_int cfg.path_n)) ] )
  | Edit (kind, endpoint) -> retime cfg g ~kind ~endpoint

(* Set-up traffic: every shared read context on connection 0, then the
   first retime of each session (which builds its incremental
   context). *)
let warmup cfg gens =
  let g0 = gens.(0) in
  List.concat_map
    (fun c ->
      [
        (0, (Analyze, with_id g0 [ ("op", str "analyze"); ("circuit", str c); ("max", str "clark") ]));
        (0, (Analyze, with_id g0 [ ("op", str "analyze"); ("circuit", str c); ("max", str "moment") ]));
        (0, (Analyze, with_id g0 [ ("op", str "analyze"); ("circuit", str c); ("engine", str "scalar") ]));
      ])
    cfg.reads
  @ List.init n_conns (fun c -> (c, retime cfg gens.(c) ~kind:Scale ~endpoint:true))

(* ---- socket client ---- *)

type conn = { fd : Unix.file_descr; dec : P.decoder; buf : Bytes.t }

let connect socket ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; dec = P.decoder P.Jsonl; buf = Bytes.create 65536 }
    | exception (Unix.Unix_error _ as e) ->
      Unix.close fd;
      if now () > deadline then raise e;
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let send c l =
  let s = P.encode P.Jsonl l in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Read once from the socket into the decoder; false at end of stream. *)
let fill c =
  let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
  if n > 0 then P.feed c.dec c.buf n;
  n > 0

let rec recv c =
  match P.next c.dec with
  | Some l -> l
  | None -> if fill c then recv c else failwith "server closed the connection"

let request c l =
  send c l;
  recv c

(* ---- daemon ---- *)

type daemon = { pid : int; conns : conn array }

(* The child gets the environment minus the NSIGMA_* knobs, so only
   the flags below configure it.  With [report], the daemon keeps its
   metrics registry on and writes its run report there on exit. *)
let spawn ?report ~store ~tag () =
  mkdir_p work_dir;
  let socket =
    Filename.concat work_dir (Printf.sprintf "serve-%d-%s.sock" (Unix.getpid ()) tag)
  in
  let log =
    Unix.openfile (Filename.concat work_dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.length kv >= 7 && String.sub kv 0 7 = "NSIGMA_"))
         (Array.to_list (Unix.environment ())))
  in
  let pid =
    Unix.create_process_env cli_exe
      (Array.append
         [|
           cli_exe; "serve"; "--library"; library_path (); "--socket"; socket;
           "--jobs"; "1"; "--max-contexts"; string_of_int max_contexts;
           "--provider-cache"; store;
         |]
         (match report with Some f -> [| "--metrics"; f |] | None -> [||]))
      env Unix.stdin log log
  in
  Unix.close log;
  let conns =
    try Array.init n_conns (fun _ -> connect socket ~timeout:60.0)
    with e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e
  in
  { pid; conns }

(* SIGTERM, then wait: true when the daemon drained and exited 0. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
  status = Unix.WEXITED 0

(* ---- one exchange record per request ---- *)

type exchange = {
  x_conn : int;
  x_kind : kind;
  x_line : string;
  mutable x_resp : string;
  x_sent : float;
  mutable x_latency : float;
  mutable x_handle : float;  (** in-process Server.handle seconds (replay) *)
  mutable x_scale : float;  (** machine-speed scale of its segment *)
  x_timed : bool;
}

(* One segment of the closed loop: both connections send until
   [seconds] have passed, then wait for their last replies. *)
let segment cfg d gens ~seconds =
  let pending = Array.make n_conns None in
  let done_ = ref [] in
  let t0 = now () in
  let issue c =
    let kind, l = next_request cfg gens.(c) in
    let x =
      { x_conn = c; x_kind = kind; x_line = l; x_resp = ""; x_sent = now (); x_latency = 0.0; x_handle = 0.0; x_scale = 1.0; x_timed = true }
    in
    send d.conns.(c) l;
    pending.(c) <- Some x
  in
  for c = 0 to n_conns - 1 do
    issue c
  done;
  let open_count () = Array.fold_left (fun n p -> if p = None then n else n + 1) 0 pending in
  while open_count () > 0 do
    let fds =
      List.filter_map
        (fun c -> if pending.(c) = None then None else Some d.conns.(c).fd)
        (List.init n_conns Fun.id)
    in
    let ready, _, _ = Unix.select fds [] [] 5.0 in
    if ready = [] && now () -. t0 > seconds +. 120.0 then failwith "server stopped answering";
    for c = 0 to n_conns - 1 do
      let conn = d.conns.(c) in
      if List.mem conn.fd ready then begin
        if not (fill conn) then failwith "server closed the connection";
        let rec drain () =
          match (pending.(c), P.next conn.dec) with
          | Some x, Some resp ->
            x.x_latency <- now () -. x.x_sent;
            x.x_resp <- resp;
            done_ := x :: !done_;
            pending.(c) <- None;
            if now () -. t0 < seconds then issue c;
            drain ()
          | _ -> ()
        in
        drain ()
      end
    done
  done;
  (List.rev !done_, now () -. t0)

(* The timed closed loop, in segments of about half a second with a
   speed probe between each two (the daemon idle, the client alone on
   the core).  Returns the exchanges, each carrying its segment's
   scale, and each segment's wall time and scale. *)
let segment_s = 0.5

let closed_loop cfg d gens ~seconds =
  let done_ = ref [] and segs = ref [] and wall = ref 0.0 in
  let probe = ref (speed_probe ()) in
  while !wall < seconds do
    let p0 = !probe in
    let xs, dt = segment cfg d gens ~seconds:(Float.min segment_s (seconds -. !wall)) in
    probe := speed_probe ();
    let k = speed_scale_of [ p0; !probe ] in
    List.iter (fun x -> x.x_scale <- k) xs;
    done_ := List.rev_append xs !done_;
    segs := (dt, k) :: !segs;
    wall := !wall +. dt
  done;
  (List.rev !done_, List.rev !segs)

let stats_fields d =
  let fields = P.parse_line (request d.conns.(0) {|{"id": 0, "op": "stats"}|}) in
  fun name -> P.num_field fields name

let response_ok resp =
  match P.find (P.parse_line resp) "ok" with
  | Some (P.Jbool true) -> true
  | _ -> false
  | exception _ -> false

(* Path_mc.run as a path_mc query calls it (fast kernel, [path_n]
   samples on the nominal critical path), per read circuit; ms. *)
let path_mc_ms cfg lib =
  1e3
  *. mean
       (Array.of_list
          (List.map
             (fun c ->
               let design = Design.attach_parasitics tech ((find_circuit c).Bm.generate ()) in
               let path =
                 Engine.critical_path (Engine.analyze tech (Provider.nominal lib) design)
               in
               median_time "sta.path_mc" (fun () ->
                   ignore
                     (Path_mc.run ~kernel:Cell_sim.Fast ~n:cfg.path_n ~seed:1
                        ~exec:Executor.sequential ~sampling:Sampler.Mc tech design path)))
             cfg.reads))

(* Incremental.apply on connection 0's edit sequence, uninstrumented,
   against a fresh retained context built as the server builds a
   session's: per-edit seconds, and total dirty gates and cutoffs. *)
let incr_replica cfg lib store exchanges =
  let nl = (find_circuit cfg.write).Bm.generate () in
  let design = Design.attach_parasitics tech nl in
  let handle =
    Ssta.lvf_handle ~exec:Executor.sequential ~store_dir:(Some store) tech lib design
  in
  let inc = Incremental.init ~config:clark tech handle design in
  let stats =
    List.filter_map
      (fun x ->
        if x.x_conn = 0 && x.x_kind = Retime then
          let e = Edit.of_json nl (P.str_field (P.parse_line x.x_line) "edit") in
          Some (Incremental.apply inc e)
        else None)
      exchanges
  in
  let total f = float_of_int (List.fold_left (fun n s -> n + f s) 0 stats) in
  ( Array.of_list (List.map (fun s -> s.Incremental.st_seconds) stats),
    total (fun s -> s.Incremental.st_dirty),
    total (fun s -> s.Incremental.st_cutoffs) )

(* ---- the run ---- *)

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* A counter from a daemon's run report (0 when absent). *)
let report_counter file name =
  let s = read_file file in
  let key = Printf.sprintf "\"%s\": " name in
  let n = String.length s and k = String.length key in
  let rec find i =
    if i + k > n then 0
    else if String.sub s i k = key then Scanf.sscanf (String.sub s (i + k) (n - i - k)) "%d" Fun.id
    else find (i + 1)
  in
  find 0

let run ~traced cfg ~seed =
  reset_layers ();
  instrument false;
  mkdir_p work_dir;
  (* The daemons' output of this run only. *)
  Out_channel.with_open_bin (Filename.concat work_dir "serve.log") ignore;
  let store rep =
    Filename.concat work_dir (Printf.sprintf "store-%d-%d" (Unix.getpid ()) rep)
  in
  let report = Filename.concat work_dir (Printf.sprintf "serve-%d-report.json" (Unix.getpid ())) in
  let cleanup () =
    for rep = 0 to cfg.setup_reps - 1 do
      remove_tree (store rep)
    done;
    if Sys.file_exists report then Sys.remove report
  in
  cleanup ();
  let daemon = ref None in
  Fun.protect
    ~finally:(fun () ->
      (match !daemon with
      | Some d -> ( try ignore (stop d) with _ -> ())
      | None -> ());
      try cleanup () with _ -> ())
    (fun () ->
      (* Set-up: spawn, connect and warm every context; repeated, and
         every daemon but the last stopped again.  Each repetition has a
         fresh store, so each measures a first start: the provider's
         cell regressions are computed in the first context that needs
         them and read back from the store by the later ones.  In the
         traced run the first repetition keeps the daemon's metrics on
         (its store counters give liberty.store_hit_ratio) and the
         second, uninstrumented, serves the timed loop. *)
      let setups =
        Array.init cfg.setup_reps (fun rep ->
            let gens = Array.init n_conns (fun conn -> make_gen cfg ~seed ~conn) in
            let probes = ref [ speed_probe () ] in
            let t0 = now () in
            let report = if traced && rep = 0 then Some report else None in
            let d = spawn ?report ~store:(store rep) ~tag:(string_of_int rep) () in
            daemon := Some d;
            (* A speed probe after each warm-up reply, outside the
               timing, while the daemon waits for the next request. *)
            let paused = ref 0.0 in
            let warm =
              List.map
                (fun (c, (kind, l)) ->
                  let s = now () in
                  let resp = request d.conns.(c) l in
                  let x =
                    { x_conn = c; x_kind = kind; x_line = l; x_resp = resp; x_sent = s;
                      x_latency = now () -. s; x_handle = 0.0; x_scale = 1.0; x_timed = false }
                  in
                  let p0 = now () in
                  probes := speed_probe () :: !probes;
                  paused := !paused +. (now () -. p0);
                  x)
                (warmup cfg gens)
            in
            let dt = now () -. t0 -. !paused in
            if rep < cfg.setup_reps - 1 then begin
              daemon := None;
              ignore (stop d)
            end;
            (d, gens, warm, dt, speed_scale_of !probes))
      in
      let last = cfg.setup_reps - 1 in
      let store = store last in
      let d, gens, warm, _, _ = setups.(last) in
      let setup_s = median (Array.map (fun (_, _, _, dt, k) -> dt *. k) setups) in
      let setup_raw = median (Array.map (fun (_, _, _, dt, _) -> dt) setups) in
      let cpu0 = proc_cpu d.pid in
      let timed_x, segs = closed_loop cfg d gens ~seconds:cfg.seconds in
      let wall = List.fold_left (fun a (dt, _) -> a +. dt) 0.0 segs in
      let wall_scaled = List.fold_left (fun a (dt, k) -> a +. (dt *. k)) 0.0 segs in
      let cpu = proc_cpu d.pid -. cpu0 in
      let stat = stats_fields d in
      let rss = peak_rss_mb d.pid in
      daemon := None;
      let clean = stop d in
      (* Replay each connection's sequence through an in-process server
         with the same configuration; every response must match byte
         for byte. *)
      let lib = layer "liberty.load" load_library in
      let replay_srv =
        Server.create
          {
            (Server.default_config tech lib) with
            Server.max_contexts;
            store_dir = Some (Some store);
          }
      in
      let all = warm @ timed_x in
      if cfg.corrupt then (
        let x = List.hd timed_x in
        x.x_resp <- x.x_resp ^ " ");
      (* In the traced run connection 1 replays first with the program's
         instrumentation on (counters, trace) and connection 0 after it
         with it off (handle times, transport). *)
      let kernel = ref 0.0 and fills = ref 0 and counted = ref 0 in
      let failed = ref 0 in
      List.iter
        (fun c ->
          let instrumented = traced && c = 1 in
          if instrumented then instrument true;
          List.iter
            (fun x ->
              if x.x_conn = c then begin
                let k0 = kernel_calls () and f0 = counter "plan.fills" in
                let local, dt =
                  timed ("server.handle." ^ kind_name x.x_kind) (fun () ->
                      Server.handle replay_srv ~session:c x.x_line)
                in
                if instrumented && x.x_timed then begin
                  kernel := !kernel +. (kernel_calls () -. k0);
                  fills := !fills + (counter "plan.fills" - f0);
                  incr counted
                end;
                x.x_handle <- dt;
                if local <> x.x_resp || not (response_ok x.x_resp) then incr failed
              end)
            all;
          if instrumented then instrument_toggle false)
        (if traced then [ 1; 0 ] else [ 0; 1 ]);
      let attempted = List.length all + 1 in
      if not clean then incr failed;
      let lat = Array.of_list (List.map (fun x -> x.x_latency) timed_x) in
      let n_timed = Array.length lat in
      let e2e, e2e_detail =
        op_time_metrics ~raw:lat (Array.of_list (List.map (fun x -> x.x_latency *. x.x_scale) timed_x))
      in
      let common_detail =
        [
          ("jobs", Json.Int 1);
          ("connections", Json.Int n_conns);
          ("loop", Json.Str "closed");
          ("reads", Json.Arr (List.map (fun s -> Json.Str s) cfg.reads));
          ("write", Json.Str cfg.write);
          ("path_mc_n", Json.Int cfg.path_n);
          ("warmup_queries", Json.Int (List.length warm));
          ("clean_drain", Json.Bool clean);
          ("setup_reps", Json.Int cfg.setup_reps);
          ("setup_s_raw", Json.Num setup_raw);
          ("segments", Json.Int (List.length segs));
          ("throughput_raw", Json.Num (float_of_int n_timed /. wall));
          scale_detail (Array.of_list (List.map snd segs));
        ]
        @ e2e_detail
      in
      if not traced then begin
        let acc, acc_detail = accuracy_metrics lib (Model.build lib) cfg.accuracy in
        {
          attempted;
          failed = !failed;
          metrics =
            [ m "setup_s" "s" setup_s; m "throughput" "1/s" (float_of_int n_timed /. wall_scaled) ]
            @ e2e
            @ [
                m "ok_frac" "1" (1.0 -. (float_of_int !failed /. float_of_int attempted));
                (* scaled to exactly [seconds] of timed wall *)
                m "cpu_s" "s" (cpu *. cfg.seconds /. wall);
                m "peak_rss_mb" "MB" rss;
              ]
            @ acc;
          detail = (("throughput_unit", Json.Str "queries/s") :: common_detail) @ acc_detail;
        }
      end
      else begin
        let spans = trace_span_times () in
        let conn0 k =
          Array.of_list
            (List.filter_map
               (fun x -> if x.x_conn = 0 && k x then Some x else None)
               timed_x)
        in
        let handle_ms k =
          1e3 *. median (Array.map (fun x -> x.x_handle) (conn0 (fun x -> x.x_kind = k)))
        in
        let transport =
          Array.map (fun x -> x.x_latency -. x.x_handle) (conn0 (fun _ -> true))
        in
        let apply, dirty, cutoffs = incr_replica cfg lib store all in
        let apply_tail, apply_pct = tail apply in
        let srv_total, srv_self =
          Hashtbl.fold
            (fun name s (t, sf) ->
              if String.length name > 7 && String.sub name 0 7 = "server." then
                (t +. sum (Array.of_list s.s_durs), sf +. s.s_self)
              else (t, sf))
            spans (0.0, 0.0)
        in
        (* The metered set-up daemon's warm-up, from a fresh store. *)
        let hits = float_of_int (report_counter report "provider.store.hit") in
        let misses = float_of_int (report_counter report "provider.store.miss") in
        let ch = stat "cache_hits" and cm = stat "cache_misses" in
        (* Tracing overhead on identical work: the timed read queries
           replayed again on the now-warm server, off and on. *)
        let reads =
          List.filter (fun x -> x.x_kind <> Retime) timed_x
          |> List.filteri (fun i _ -> i < 300)
        in
        let replay_reads on =
          instrument_toggle on;
          let t0 = now () in
          List.iter (fun x -> ignore (Server.handle replay_srv ~session:x.x_conn x.x_line)) reads;
          let dt = now () -. t0 in
          instrument_toggle false;
          dt
        in
        let off1 = replay_reads false in
        let on1 = replay_reads true in
        let off2 = replay_reads false in
        let pm = path_mc_ms cfg lib in
        let n = float_of_int (max 1 !counted) in
        {
          attempted;
          failed = !failed;
          metrics =
            [
              m "liberty.load_s" "s" (median (durations "liberty.load"));
              m "liberty.store_hit_ratio" "1" (ratio hits (hits +. misses));
              m "spice.kernel_calls" "count" (!kernel /. n);
              m "spice.plan_fills" "count" (float_of_int !fills /. n);
              m "netlist.generate_s" "s" (median (durations "netlist.generate"));
              m "sta.incr.apply_p50_ms" "ms" (1e3 *. median apply);
              m "sta.incr.apply_tail_ms" "ms" (1e3 *. apply_tail);
              m "sta.incr.dirty_gates" "count" (dirty /. float_of_int (max 1 (Array.length apply)));
              m "sta.incr.cutoff_ratio" "1" (ratio cutoffs dirty);
              m "sta.path_mc_ms" "ms" pm;
              m "server.handle_ms.analyze" "ms" (handle_ms Analyze);
              m "server.handle_ms.path_mc" "ms" (handle_ms Path_mc);
              m "server.handle_ms.retime" "ms" (handle_ms Retime);
              m "server.transport_ms" "ms" (1e3 *. median transport);
              m "server.batched_frac" "1" (ratio (stat "batched") (stat "requests"));
              m "server.context_hit_ratio" "1" (ratio ch (ch +. cm));
              m "bench.trace_overhead_pct" "%" (100.0 *. ((on1 /. (0.5 *. (off1 +. off2))) -. 1.0));
              m "bench.unattributed_frac" "1" (ratio srv_self srv_total);
            ];
          detail =
            common_detail
            @ [
                ( "bases",
                  Json.Obj
                    [
                      ("query_latency_p50_ms", Json.Num (1e3 *. median lat));
                      ("incr_edits", Json.Int (Array.length apply));
                      ("incr_apply_tail_percentile", Json.Num apply_pct);
                      ("overhead_reads", Json.Int (List.length reads));
                      ( "unattributed",
                        Json.Str "self time of server.* request spans / their total" );
                    ] );
              ];
        }
      end)
