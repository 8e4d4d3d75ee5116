let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let now () = Monotonic.now ()

(* Guards metric creation and shard registration — never held while
   recording, and a domain-local-storage initialiser never runs while
   the caller holds it (recording functions take no lock at all). *)
let registry_mutex = Mutex.create ()

(* ---- counters ---- *)

type counter = { c_key : int ref Domain.DLS.key; c_cells : int ref list ref }

let counter_table : (string, counter) Hashtbl.t = Hashtbl.create 64

(* Register-or-reuse under the mutex, but create the metric (and its DLS
   key) outside it: a losing racer leaves an orphan key behind, which is
   harmless — its shards are never reached again. *)
let intern table make name =
  match Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt table name) with
  | Some m -> m
  | None ->
    let m = make name in
    Mutex.protect registry_mutex (fun () ->
        match Hashtbl.find_opt table name with
        | Some winner -> winner
        | None ->
          Hashtbl.add table name m;
          m)

let counter =
  intern counter_table (fun (_ : string) ->
      let cells = ref [] in
      let key =
        Domain.DLS.new_key (fun () ->
            let r = ref 0 in
            Mutex.protect registry_mutex (fun () -> cells := r :: !cells);
            r)
      in
      { c_key = key; c_cells = cells })

let incr ?(by = 1) c =
  if enabled () then begin
    let r = Domain.DLS.get c.c_key in
    r := !r + by
  end

let counter_value c =
  Mutex.protect registry_mutex (fun () ->
      List.fold_left (fun acc r -> acc + !r) 0 !(c.c_cells))

(* ---- gauges ---- *)

type gauge = { g_cell : float Atomic.t }

let gauge_table : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge =
  intern gauge_table (fun (_ : string) -> { g_cell = Atomic.make 0.0 })

let set_gauge g v = if enabled () then Atomic.set g.g_cell v

let max_gauge g v =
  if enabled () then begin
    let rec loop () =
      let cur = Atomic.get g.g_cell in
      if v > cur && not (Atomic.compare_and_set g.g_cell cur v) then loop ()
    in
    loop ()
  end

let gauge_value g = Atomic.get g.g_cell

(* ---- timers ---- *)

type tcell = { mutable t_sum : float; mutable t_count : int }

type timer = { t_key : tcell Domain.DLS.key; t_cells : tcell list ref }

let timer_table : (string, timer) Hashtbl.t = Hashtbl.create 32

let timer =
  intern timer_table (fun (_ : string) ->
      let cells = ref [] in
      let key =
        Domain.DLS.new_key (fun () ->
            let c = { t_sum = 0.0; t_count = 0 } in
            Mutex.protect registry_mutex (fun () -> cells := c :: !cells);
            c)
      in
      { t_key = key; t_cells = cells })

let add_time t seconds =
  if enabled () then begin
    let c = Domain.DLS.get t.t_key in
    c.t_sum <- c.t_sum +. seconds;
    c.t_count <- c.t_count + 1
  end

let timer_value t =
  Mutex.protect registry_mutex (fun () ->
      List.fold_left
        (fun (n, s) c -> (n + c.t_count, s +. c.t_sum))
        (0, 0.0) !(t.t_cells))

let span name f =
  let timed f =
    if not (enabled ()) then f ()
    else begin
      let t = timer ("stage." ^ name) in
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          let dt = now () -. t0 in
          add_time t dt;
          (* Guarded: the arguments are built before Log.debug can
             discard them, and a short span costs little more. *)
          if Log.enabled Log.Debug then
            Log.debug "stage %s done%s" name
              (Log.kv [ ("seconds", Printf.sprintf "%.3f" dt) ]))
        f
    end
  in
  (* Stage spans also land on the trace (with a GC probe each), so the
     flamegraph and the timer table describe the same tree. *)
  if Trace.enabled () then
    Trace.with_span
      (Trace.span_type ~cat:"stage" ~gc:true ("stage." ^ name))
      (fun () -> timed f)
  else timed f

(* ---- log-scale latency histograms ---- *)

(* Bucket i covers (2^(i-1), 2^i] nanoseconds; 48 buckets span 1 ns to
   about 3.2 days, enough for any per-sample or per-stage latency. *)
let n_buckets = 48
let bucket_upper_bound i = 1e-9 *. Float.pow 2.0 (float_of_int i)

let bucket_of_seconds s =
  if s <= 1e-9 then 0
  else
    let b = int_of_float (Float.ceil (Float.log2 (s /. 1e-9))) in
    if b < 0 then 0 else if b >= n_buckets then n_buckets - 1 else b

type hcell = { h_counts : int array; mutable hc_sum : float; mutable hc_n : int }

type histogram = { h_key : hcell Domain.DLS.key; h_cells : hcell list ref }

let histogram_table : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram =
  intern histogram_table (fun (_ : string) ->
      let cells = ref [] in
      let key =
        Domain.DLS.new_key (fun () ->
            let c = { h_counts = Array.make n_buckets 0; hc_sum = 0.0; hc_n = 0 } in
            Mutex.protect registry_mutex (fun () -> cells := c :: !cells);
            c)
      in
      { h_key = key; h_cells = cells })

let observe h seconds =
  if enabled () then begin
    let c = Domain.DLS.get h.h_key in
    let b = bucket_of_seconds seconds in
    c.h_counts.(b) <- c.h_counts.(b) + 1;
    c.hc_sum <- c.hc_sum +. seconds;
    c.hc_n <- c.hc_n + 1
  end

(* ---- reading ---- *)

type histogram_view = {
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
}

(* Percentile estimate from the merged bucket counts: find the bucket
   holding the target rank and interpolate linearly inside it (bucket i
   spans (2^(i-1), 2^i] ns; bucket 0 starts at 0).  Log-scale buckets
   bound the relative error of the estimate by the bucket width (a
   factor of 2), which is plenty for latency reporting. *)
let percentile_of_counts counts total q =
  if total = 0 then 0.0
  else begin
    let rank = q *. float_of_int total in
    let result = ref 0.0 in
    let cum = ref 0 and found = ref false in
    for i = 0 to n_buckets - 1 do
      if not !found && counts.(i) > 0 then begin
        let below = !cum in
        cum := !cum + counts.(i);
        if float_of_int !cum >= rank then begin
          found := true;
          let upper = bucket_upper_bound i in
          let lower = if i = 0 then 0.0 else upper /. 2.0 in
          let frac =
            (rank -. float_of_int below) /. float_of_int counts.(i)
          in
          result := lower +. ((upper -. lower) *. Float.max 0.0 (Float.min 1.0 frac))
        end
      end
      else if not !found then cum := !cum + counts.(i)
    done;
    if !found then !result else bucket_upper_bound (n_buckets - 1)
  end

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_timers : (string * (int * float)) list;
  s_histograms : (string * histogram_view) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  Mutex.protect registry_mutex (fun () ->
      let counters =
        Hashtbl.fold
          (fun name c acc ->
            (name, List.fold_left (fun s r -> s + !r) 0 !(c.c_cells)) :: acc)
          counter_table []
        |> List.sort by_name
      in
      let gauges =
        Hashtbl.fold
          (fun name g acc -> (name, Atomic.get g.g_cell) :: acc)
          gauge_table []
        |> List.sort by_name
      in
      let timers =
        Hashtbl.fold
          (fun name t acc ->
            let v =
              List.fold_left
                (fun (n, s) c -> (n + c.t_count, s +. c.t_sum))
                (0, 0.0) !(t.t_cells)
            in
            (name, v) :: acc)
          timer_table []
        |> List.sort by_name
      in
      let histograms =
        Hashtbl.fold
          (fun name h acc ->
            let merged = Array.make n_buckets 0 in
            let sum = ref 0.0 and count = ref 0 in
            List.iter
              (fun c ->
                Array.iteri (fun i v -> merged.(i) <- merged.(i) + v) c.h_counts;
                sum := !sum +. c.hc_sum;
                count := !count + c.hc_n)
              !(h.h_cells);
            let buckets = ref [] in
            for i = n_buckets - 1 downto 0 do
              if merged.(i) > 0 then
                buckets := (bucket_upper_bound i, merged.(i)) :: !buckets
            done;
            ( name,
              {
                h_count = !count;
                h_sum = !sum;
                h_buckets = !buckets;
                h_p50 = percentile_of_counts merged !count 0.50;
                h_p95 = percentile_of_counts merged !count 0.95;
                h_p99 = percentile_of_counts merged !count 0.99;
              } )
            :: acc)
          histogram_table []
        |> List.sort by_name
      in
      {
        s_counters = counters;
        s_gauges = gauges;
        s_timers = timers;
        s_histograms = histograms;
      })

let find_counter name =
  match Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt counter_table name) with
  | None -> 0
  | Some c -> counter_value c

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter
        (fun _ c -> List.iter (fun r -> r := 0) !(c.c_cells))
        counter_table;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0.0) gauge_table;
      Hashtbl.iter
        (fun _ t ->
          List.iter
            (fun c ->
              c.t_sum <- 0.0;
              c.t_count <- 0)
            !(t.t_cells))
        timer_table;
      Hashtbl.iter
        (fun _ h ->
          List.iter
            (fun c ->
              Array.fill c.h_counts 0 n_buckets 0;
              c.hc_sum <- 0.0;
              c.hc_n <- 0)
            !(h.h_cells))
        histogram_table)
