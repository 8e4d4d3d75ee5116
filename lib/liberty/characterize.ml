module Technology = Nsigma_process.Technology
module Moments = Nsigma_stats.Moments
module Quantile = Nsigma_stats.Quantile
module Rng = Nsigma_stats.Rng
module Interpolate = Nsigma_stats.Interpolate
module Sampler = Nsigma_stats.Sampler
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Executor = Nsigma_exec.Executor
module Metrics = Nsigma_obs.Metrics
module Progress = Nsigma_obs.Progress
module Trace = Nsigma_obs.Trace

let m_points = Metrics.counter "characterize.points"
let h_point_seconds = Metrics.histogram "characterize.point.seconds"

(* One trace span per LVF grid point, on the worker's own track, with a
   GC probe so allocation spikes are attributable to the exact
   (slew, load) corner that caused them. *)
let st_point =
  Trace.span_type ~cat:"characterize" ~gc:true ~args:[ "slew"; "load" ]
    "characterize.point"

type point = {
  slew : float;
  load : float;
  moments : Moments.summary;
  quantiles : float array;
  mean_out_slew : float;
}

type table = {
  cell : Cell.t;
  edge : [ `Rise | `Fall ];
  vdd : float;
  n_mc : int;
  kernel : Cell_sim.kernel;
  sampling : Sampler.backend;
  rtol : float option;
  slews : float array;
  loads : float array;
  points : point array array;
}

let make_table ~cell ~edge ~vdd ~n_mc ~kernel ~sampling ~rtol ~slews ~loads
    points =
  Interpolate.check_grid ~x_name:"slew" ~y_name:"load" ~xs:slews ~ys:loads
    points;
  { cell; edge; vdd; n_mc; kernel; sampling; rtol; slews; loads; points }

let reference_slew = 10e-12
let reference_load = 0.4e-15

let default_slews = [| 10e-12; 25e-12; 50e-12; 100e-12; 200e-12; 300e-12 |]
let default_loads = [| 0.1e-15; 0.4e-15; 1.0e-15; 2.0e-15; 4.0e-15; 6.0e-15 |]

(* Relative load axis: fractions of the cell's own FO4 load, so strong
   cells are characterised over the loads they actually see.  The 1.0
   entry keeps the exact FO4 point on the grid (Table II's constraint);
   the reference load C_ref is inserted if it falls inside the span. *)
let fo4_fractions = [| 0.05; 0.25; 0.5; 1.0; 2.0; 3.5 |]

let loads_for tech cell =
  let fo4 = Cell.fo4_load tech cell in
  let base = Array.map (fun f -> f *. fo4) fo4_fractions in
  if reference_load > base.(0) && reference_load < base.(Array.length base - 1)
     && not (Array.exists (fun l -> Float.abs (l -. reference_load) < 1e-18) base)
  then begin
    let all = Array.append base [| reference_load |] in
    Array.sort Float.compare all;
    all
  end
  else base

let sigma_probs =
  List.map (fun n -> Quantile.probability_of_sigma (float_of_int n)) Quantile.sigma_levels
  |> Array.of_list

let characterize ?(n_mc = 2000) ?(seed = 1) ?(slews = default_slews) ?loads
    ?(exec = Executor.default ()) ?kernel ?sampling ?rtol tech cell ~edge =
  let loads = match loads with Some l -> l | None -> loads_for tech cell in
  let kernel =
    match kernel with Some k -> k | None -> Cell_sim.default_kernel ()
  in
  let sampling =
    match sampling with Some b -> b | None -> Sampler.default_backend ()
  in
  let g = Rng.create ~seed in
  let measure_point ~index slew load =
    (* Each grid point derives its own stream from its grid index, so
       neither adding grid points nor the scheduling order of the
       executor perturbs other points' samples. *)
    let gp = Rng.derive g ~index in
    (* Sampling goes through the plan layer: the arc skeleton is compiled
       once per (cell, edge, operating point) and refreshed in place per
       sample — bit-identical to rebuilding the arc every sample (the
       unplanned [Monte_carlo.arc_results] path), as test_plan asserts.
       Grid points are the parallel unit; the inner sampling loop runs
       sequentially to keep one level of domain spawning.  Deviates come
       from the requested [sampling] backend; with the Mc default and no
       [rtol] this is exactly the legacy planned loop. *)
    let sampled =
      Monte_carlo.arc_delays_sampled ~exec:Executor.sequential ~kernel
        ~sampling ?rtol tech gp ~n:n_mc
        ~plan:(fun () -> Cell.plan tech cell ~output_edge:edge)
        ~input_slew:slew ~load_cap:load
    in
    let delays_all = sampled.Monte_carlo.s_delays in
    let slews_all = sampled.Monte_carlo.s_out_slews in
    let delays = Monte_carlo.compact_nan delays_all in
    if Array.length delays < 8 then
      failwith
        (Printf.sprintf "Characterize: %s produced too few valid samples"
           (Cell.name cell));
    (* Single ascending pass: the addition order matches the list fold
       this replaces, keeping the mean bit-identical. *)
    let sum_slew = ref 0.0 and n_ok = ref 0 in
    Array.iteri
      (fun i d ->
        if not (Float.is_nan d) then begin
          sum_slew := !sum_slew +. slews_all.(i);
          incr n_ok
        end)
      delays_all;
    let mean_out_slew = !sum_slew /. float_of_int !n_ok in
    Array.sort Float.compare delays;
    let moments = Moments.summary_of_array delays in
    let quantiles = Array.map (Quantile.of_sorted delays) sigma_probs in
    { slew; load; moments; quantiles; mean_out_slew }
  in
  let n_loads = Array.length loads in
  let n_points = Array.length slews * n_loads in
  let label =
    Printf.sprintf "characterize %s/%s" (Cell.name cell)
      (match edge with `Rise -> "rise" | `Fall -> "fall")
  in
  let flat =
    Progress.with_bar ~label ~total:n_points (fun tick ->
        Metrics.span "characterize" (fun () ->
            Executor.map_array exec
              (fun idx ->
                (* Per-point timing is measured on the worker but recorded
                   into its own domain shard, so it adds no contention and
                   cannot perturb the samples. *)
                let slew = slews.(idx / n_loads)
                and load = loads.(idx mod n_loads) in
                let measure () =
                  let measuring = Metrics.enabled () in
                  let t0 = if measuring then Metrics.now () else 0.0 in
                  let p = measure_point ~index:idx slew load in
                  if measuring then begin
                    Metrics.incr m_points;
                    Metrics.observe h_point_seconds (Metrics.now () -. t0)
                  end;
                  p
                in
                let p = Trace.with_span st_point ~a:slew ~b:load measure in
                tick ();
                p)
              ~n:n_points))
  in
  make_table ~cell ~edge ~vdd:tech.Technology.vdd_nominal ~n_mc ~kernel
    ~sampling ~rtol ~slews ~loads
    (Array.init (Array.length slews) (fun si ->
         Array.sub flat (si * n_loads) n_loads))

let grid_signature =
  let axis name a =
    name ^ ":"
    ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") a))
  in
  String.concat ";"
    [
      axis "slews" default_slews;
      axis "loads" default_loads;
      axis "fo4_fractions" fo4_fractions;
      Printf.sprintf "ref:%.17g,%.17g" reference_slew reference_load;
      Printf.sprintf "sigma_levels:%s"
        (String.concat "," (List.map string_of_int Quantile.sigma_levels));
    ]

let nearest axis v =
  let best = ref 0 in
  Array.iteri
    (fun i x -> if Float.abs (x -. v) < Float.abs (axis.(!best) -. v) then best := i)
    axis;
  !best

let point_at table ~slew ~load =
  table.points.(nearest table.slews slew).(nearest table.loads load)

(* Lookups bracket (slew, load) once and read the fields straight from
   the grid points; the table's shape was checked when it was built. *)
let mean_of p = p.moments.Moments.mean
let out_slew_of p = p.mean_out_slew

let mean_at table ~slew ~load =
  Interpolate.bilinear ~xs:table.slews ~ys:table.loads table.points mean_of
    slew load

let out_slew_at table ~slew ~load =
  Interpolate.bilinear ~xs:table.slews ~ys:table.loads table.points
    out_slew_of slew load

let moments_at table ~slew ~load : Moments.summary =
  let xs = table.slews and ys = table.loads in
  let i = Interpolate.segment xs slew and j = Interpolate.segment ys load in
  let fx = Interpolate.frac xs i slew and fy = Interpolate.frac ys j load in
  let i1 = Interpolate.upper xs i and j1 = Interpolate.upper ys j in
  let m00 = table.points.(i).(j).moments
  and m01 = table.points.(i).(j1).moments
  and m10 = table.points.(i1).(j).moments
  and m11 = table.points.(i1).(j1).moments in
  {
    n = table.n_mc;
    mean = Interpolate.blend ~fx ~fy m00.mean m01.mean m10.mean m11.mean;
    std = Interpolate.blend ~fx ~fy m00.std m01.std m10.std m11.std;
    skewness =
      Interpolate.blend ~fx ~fy m00.skewness m01.skewness m10.skewness
        m11.skewness;
    kurtosis =
      Interpolate.blend ~fx ~fy m00.kurtosis m01.kurtosis m10.kurtosis
        m11.kurtosis;
  }

let quantile_at table ~slew ~load ~sigma =
  let idx =
    match List.find_index (fun n -> n = sigma) Quantile.sigma_levels with
    | Some i -> i
    | None -> invalid_arg "Characterize.quantile_at: sigma outside -3..3"
  in
  Interpolate.bilinear ~xs:table.slews ~ys:table.loads table.points
    (fun p -> p.quantiles.(idx))
    slew load

let reference_point table =
  let close a b = Float.abs (a -. b) < 1e-18 in
  let si = nearest table.slews reference_slew in
  let li = nearest table.loads reference_load in
  if not (close table.slews.(si) reference_slew && close table.loads.(li) reference_load)
  then
    invalid_arg
      "Characterize.reference_point: grid does not contain the reference condition";
  table.points.(si).(li)
