(* Per-(cell, edge) global/local regression at the reference point,
   the statistical SSTA provider's cell model.  It reads the technology,
   the cell and the sampling settings only — never a table or a design —
   so one regression serves every net, design and provider handle that
   uses the arc; {!Library} memoizes it per library value. *)

module Technology = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Moments = Nsigma_stats.Moments
module Rng = Nsigma_stats.Rng
module Arc = Nsigma_spice.Arc
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Executor = Nsigma_exec.Executor
module Metrics = Nsigma_obs.Metrics

let m_frac_mc = Metrics.counter "sta.ssta.cell_frac_samples"

let ng = Variation.global_deviate_dim

(* Linear and quadratic sensitivities of the arc delay AND output slew
   to each global deviate, the fraction of total delay variance the
   corners explain, and the local component of the output slew.  Slew
   responses are what couples consecutive stages: a slow corner slows
   every upstream edge, which further slows every downstream cell — the
   cell–wire/stage interaction a fixed-slew table lookup misses. *)
type t = {
  ar_a : float array;  (* delay linear sensitivities (s) *)
  ar_b : float array;  (* delay quadratic sensitivities (s) *)
  ar_frac : float;  (* global share of delay variance *)
  ar_sa : float array;  (* out-slew linear sensitivities (s) *)
  ar_sb : float array;  (* out-slew quadratic sensitivities (s) *)
  ar_sl : float;  (* out-slew local (mismatch) sigma (s) *)
  ar_slew_mean : float;  (* mean out-slew at the reference point (s) *)
}

type settings = {
  tech : Technology.t;
  seed : int;
  frac_samples : int;
  approx : bool;
}

let edge_index = function `Rise -> 0 | `Fall -> 1

(* Exact round-trip serialisation for the on-disk store: hex float
   literals ("%h") survive printf/float_of_string bit-for-bit, so a warm
   load reproduces the cold computation exactly. *)
let to_string (r : t) =
  let b = Buffer.create 256 in
  let add f = Buffer.add_string b (Printf.sprintf "%h " f) in
  Array.iter add r.ar_a;
  Array.iter add r.ar_b;
  add r.ar_frac;
  Array.iter add r.ar_sa;
  Array.iter add r.ar_sb;
  add r.ar_sl;
  add r.ar_slew_mean;
  Buffer.contents b

let of_string s =
  let toks =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim s))
  in
  let opts = List.map float_of_string_opt toks in
  if List.length opts <> (4 * ng) + 3 || List.exists Option.is_none opts then
    None
  else begin
    let a = Array.of_list (List.map Option.get opts) in
    Some
      {
        ar_a = Array.sub a 0 ng;
        ar_b = Array.sub a ng ng;
        ar_frac = a.(2 * ng);
        ar_sa = Array.sub a ((2 * ng) + 1) ng;
        ar_sb = Array.sub a ((3 * ng) + 1) ng;
        ar_sl = a.((4 * ng) + 1);
        ar_slew_mean = a.((4 * ng) + 2);
      }
  end

(* The key pins everything the regression depends on: the library
   fingerprint covers technology, grid, kernel and sampling; the
   remaining knobs are the provider's own.  The executor and the batched
   kernel do not enter because they don't change the result. *)
let store_key ~fingerprint s cell ~edge =
  Printf.sprintf "frac-v1|%s|%s|e%d|n%d|s%d|approx=%b" fingerprint
    (Cell.name cell) (edge_index edge) s.frac_samples s.seed s.approx

(* Paired mini-MC: the same deviate vectors with and without local
   mismatch (local_scale = 0), fast kernel both times, at the fixed
   reference operating point (Characterize.reference_slew / FO4 load).
   The per-net operating point only enters later, through the
   provider's table rescale. *)
let compute ?(exec = Executor.default ()) ?(batch = false) s cell ~edge =
  Metrics.span "sta.ssta.cell_frac" @@ fun () ->
  let tech = s.tech and frac_samples = s.frac_samples and approx = s.approx in
  let sk = Cell.plan tech cell ~output_edge:edge in
  let slew = Characterize.reference_slew in
  let load = Cell.fo4_load tech cell in
  let dim = ng + Arc.skeleton_local_dim sk in
  (* Stream index 2 is historical (index 1 once fed a wire mini-MC), and
     the per-arc stream is derived from the (name, edge index) pair;
     keeping both keeps the regressions' bits and every store entry
     valid. *)
  let rng =
    Rng.derive
      (Rng.derive (Rng.create ~seed:s.seed) ~index:2)
      ~index:(Hashtbl.hash (Cell.name cell, edge_index edge))
  in
  let nf = float_of_int frac_samples in
  (* Per-sample results land in index-addressed arrays (each worker
     writes disjoint slots), and the moment accumulators fold over them
     in index order on this domain afterwards — so any executor backend,
     and the batched kernel, reproduce the sequential population bit for
     bit. *)
  let d_fulls = Array.make frac_samples 0.0 in
  let s_fulls = Array.make frac_samples 0.0 in
  let d_globs = Array.make frac_samples 0.0 in
  let s_globs = Array.make frac_samples 0.0 in
  let zs = Array.make_matrix frac_samples ng 0.0 in
  let draw i =
    let g = Rng.derive rng ~index:i in
    let z = Array.init dim (fun _ -> Rng.gaussian g) in
    Array.blit z 0 zs.(i) 0 ng;
    z
  in
  if batch || approx then
    (* Two SoA batches per chunk — one for the full draws, one for the
       globals-only twins — so both populations evaluate as fused
       loops. *)
    let chunk = Monte_carlo.batch_chunk in
    Executor.map_ranges exec ~chunk
      ~init:(fun () ->
        ( Cell.plan tech cell ~output_edge:edge,
          Cell_sim.Batch.create chunk,
          Cell_sim.Batch.create chunk ))
      (fun (sk, bf, bg) ~lo ~hi ->
        for i = lo to hi - 1 do
          let z = draw i in
          let t = i - lo in
          Arc.fill tech sk (Variation.of_deviates tech z);
          Cell_sim.Batch.load bf t (Arc.skeleton_compiled sk)
            ~input_slew:slew ~load_cap:load;
          Arc.fill tech sk
            { (Variation.of_deviates tech z) with Variation.local_scale = 0.0 };
          Cell_sim.Batch.load bg t (Arc.skeleton_compiled sk)
            ~input_slew:slew ~load_cap:load
        done;
        let m = hi - lo in
        Cell_sim.Batch.eval ~approx tech bf ~n:m;
        Cell_sim.Batch.eval ~approx tech bg ~n:m;
        for i = lo to hi - 1 do
          let t = i - lo in
          if Cell_sim.Batch.failed bf t || Cell_sim.Batch.failed bg t then
            failwith
              "Regression.compute: fast kernel failed at the reference point";
          d_fulls.(i) <- Cell_sim.Batch.delay bf t;
          s_fulls.(i) <- Cell_sim.Batch.output_slew bf t;
          d_globs.(i) <- Cell_sim.Batch.delay bg t;
          s_globs.(i) <- Cell_sim.Batch.output_slew bg t
        done)
      ~n:frac_samples
  else
    ignore
      (Executor.map_scratch exec
         ~init:(fun () -> Cell.plan tech cell ~output_edge:edge)
         (fun sk i ->
           let z = draw i in
           let run v =
             Arc.fill tech sk v;
             Cell_sim.run ~kernel:Cell_sim.Fast tech (Arc.skeleton_arc sk)
               ~input_slew:slew ~load_cap:load
           in
           let r_full = run (Variation.of_deviates tech z) in
           let r_glob =
             run { (Variation.of_deviates tech z) with Variation.local_scale = 0.0 }
           in
           d_fulls.(i) <- r_full.Cell_sim.delay;
           s_fulls.(i) <- r_full.Cell_sim.output_slew;
           d_globs.(i) <- r_glob.Cell_sim.delay;
           s_globs.(i) <- r_glob.Cell_sim.output_slew)
         ~n:frac_samples);
  let full = ref Moments.empty and glob = ref Moments.empty in
  let sl_full = ref Moments.empty and sl_glob = ref Moments.empty in
  for i = 0 to frac_samples - 1 do
    full := Moments.add !full d_fulls.(i);
    glob := Moments.add !glob d_globs.(i);
    sl_full := Moments.add !sl_full s_fulls.(i);
    sl_glob := Moments.add !sl_glob s_globs.(i)
  done;
  (* iid standard regressors make the second-order least squares a
     moment average: a_j = E[y·z_j], b_j = E[y·(z_j²−1)]/2. *)
  let regress ys =
    let mean = Array.fold_left ( +. ) 0.0 ys /. nf in
    let a = Array.make ng 0.0 and b = Array.make ng 0.0 in
    for i = 0 to frac_samples - 1 do
      let yc = ys.(i) -. mean in
      for j = 0 to ng - 1 do
        let z = zs.(i).(j) in
        a.(j) <- a.(j) +. (yc *. z /. nf);
        b.(j) <- b.(j) +. (yc *. ((z *. z) -. 1.0) /. (2.0 *. nf))
      done
    done;
    (a, b)
  in
  let da, db = regress d_globs in
  let sa, sb = regress s_globs in
  Metrics.incr m_frac_mc ~by:(2 * frac_samples);
  let vf = Moments.variance !full and vg = Moments.variance !glob in
  let svf = Moments.variance !sl_full and svg = Moments.variance !sl_glob in
  {
    ar_a = da;
    ar_b = db;
    ar_frac = (if vf <= 0.0 then 0.0 else Float.min 1.0 (vg /. vf));
    ar_sa = sa;
    ar_sb = sb;
    ar_sl = sqrt (Float.max 0.0 (svf -. svg));
    ar_slew_mean = Moments.mean !sl_glob;
  }
