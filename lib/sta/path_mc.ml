module Netlist = Nsigma_netlist.Netlist
module Cell = Nsigma_liberty.Cell
module Wire_gen = Nsigma_rcnet.Wire_gen
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Arc = Nsigma_spice.Arc
module Rc_sim = Nsigma_spice.Rc_sim
module Cell_sim = Nsigma_spice.Cell_sim
module Monte_carlo = Nsigma_spice.Monte_carlo
module Variation = Nsigma_process.Variation
module Moments = Nsigma_stats.Moments
module Quantile = Nsigma_stats.Quantile
module Rng = Nsigma_stats.Rng
module Sampler = Nsigma_stats.Sampler
module Executor = Nsigma_exec.Executor
module Metrics = Nsigma_obs.Metrics
module Progress = Nsigma_obs.Progress

(* Registered at module init so run reports always carry the path-MC
   keys, zero-valued when no path study ran.  The sampling.* counters
   are shared with the characterisation layer (the registry is
   idempotent by name). *)
let m_samples = Metrics.counter "path_mc.samples"
let m_non_convergent = Metrics.counter "path_mc.non_convergent"
let m_sampling_batches = Metrics.counter "sampling.batches"
let m_sampling_saved = Metrics.counter "sampling.samples_saved"

type sampling_info = {
  si_backend : Sampler.backend;
  si_rtol : float option;
  si_requested : int;
  si_drawn : int;
  si_saved : int;
  si_non_convergent : int;
  si_batches : int;
}

type stats = {
  samples : float array;
  moments : Moments.summary;
  quantile : int -> float;
  sampling : sampling_info;
}

let edge_of = function Provider.Rise -> `Rise | Provider.Fall -> `Fall

(* The tap through which the path leaves each hop's output net: the next
   hop's tap, or the PO tap after the last gate. *)
let out_taps (path : Path.t) =
  let rec go = function
    | [] -> []
    | [ (_ : Path.hop) ] -> [ path.Path.end_tap ]
    | _ :: (next :: _ as rest) -> next.Path.tap :: go rest
  in
  go path.Path.hops

(* Full-swing-equivalent 20–80% slew of a single-pole response with time
   constant RC: (ln(0.8/0.2)·RC)/0.6 = 2.31·RC.  Used by the fast hop
   model to turn an Elmore time constant into the slew convention the
   next stage's cell simulation expects. *)
let peri_slew_factor = Float.log 4.0 /. 0.6

(* One hop of the fast path model: the driver cell is simulated with the
   analytic kernel into the net's total (lumped) capacitance, the wire
   adds its D2M delay at the exit tap, and the tap slew degrades the
   driver's output slew PERI-style (root-sum-square with the single-pole
   slew of the wire's Elmore constant).  The cell/wire interaction is
   thus approximated, not co-simulated — which is why [Auto] maps to the
   transient reference here. *)
let fast_hop tech arc ~tree ~load_caps ~tap ~input_slew =
  let loaded =
    List.fold_left (fun tr (node, c) -> Rctree.add_cap tr node c) tree load_caps
  in
  let r =
    Cell_sim.run ~kernel:Cell_sim.Fast tech arc ~input_slew
      ~load_cap:(Rctree.total_cap loaded)
  in
  let wire = Elmore.d2m_at loaded tap in
  let elmore = Elmore.delay_at loaded tap in
  let wire_slew = peri_slew_factor *. elmore in
  let out_slew =
    sqrt ((r.Cell_sim.output_slew *. r.Cell_sim.output_slew)
         +. (wire_slew *. wire_slew))
  in
  (r.Cell_sim.delay, wire, out_slew)

(* Simulate one sample; [record_wire i d] is called with each hop's
   outgoing wire delay. *)
let simulate_sample_record ?(steps = 200) ?(kernel = Cell_sim.Rk4) tech
    (design : Design.t) (path : Path.t) sample ~record_wire =
  let nl = design.Design.netlist in
  let taps = out_taps path in
  let slew = ref Provider.input_slew_default in
  let total = ref 0.0 in
  let fast = kernel = Cell_sim.Fast in
  List.iteri
    (fun i (hop, tap) ->
      let gate = nl.Netlist.gates.(hop.Path.gate) in
      let arc =
        Cell.arc tech sample gate.Netlist.cell ~output_edge:(edge_of hop.Path.out_edge)
      in
      let tree = Wire_gen.vary tech sample design.Design.parasitics.(hop.Path.out_net) in
      let load_caps = Design.sink_caps tech design ~net:hop.Path.out_net in
      let driver_delay, wire, out_slew =
        if fast then fast_hop tech arc ~tree ~load_caps ~tap ~input_slew:!slew
        else begin
          let r =
            Rc_sim.simulate ~steps tech ~driver:arc ~tree ~load_caps
              ~input_slew:!slew
          in
          let find_tap pairs =
            let _, v =
              Array.to_list pairs |> List.find (fun (node, _) -> node = tap)
            in
            v
          in
          let wire = find_tap r.Rc_sim.tap_delays in
          (r.Rc_sim.driver_delay, wire, find_tap r.Rc_sim.tap_slews)
        end
      in
      record_wire i wire;
      total := !total +. driver_delay +. wire;
      slew := Float.max 1e-12 out_slew)
    (List.combine path.Path.hops taps);
  !total

let simulate_sample ?steps ?kernel tech design path sample =
  simulate_sample_record ?steps ?kernel tech design path sample
    ~record_wire:(fun _ _ -> ())

(* ------------------------------------------------------------------ *)
(* Precompiled path plan: everything sample-independent — cell arc     *)
(* skeletons, private RC-tree copies with their refill scratch, sink   *)
(* loads, tap positions — resolved once per worker, so the per-sample  *)
(* loop only draws deviates and fills preallocated state in place.     *)
(* ------------------------------------------------------------------ *)

type hop_plan = {
  hp_sk : Arc.skeleton;  (* driver cell, refilled per sample *)
  hp_base : Rctree.t;  (* pristine parasitic tree (never mutated) *)
  hp_tree : Rctree.t;  (* private copy, refilled per sample *)
  hp_res : float array;  (* refill scratch, length n_nodes *)
  hp_cap : float array;
  hp_down : float array;
      (* [Elmore.moments_into] scratch, length n_nodes: the fast hop's
         D2M and Elmore come from the same fused pass the SSTA
         provider's wire moments run, bitwise the [d2m_at]/[delay_at]
         of [fast_hop] *)
  hp_m1 : float array;
  hp_m2 : float array;
  hp_load_caps : (int * float) list;  (* sink pin caps, attach order *)
  hp_tap : int;  (* exit tap node *)
  hp_tap_pos : int;  (* index of hp_tap in the tree's taps array *)
}

type plan = { hops : hop_plan array }

let plan_of tech (design : Design.t) (path : Path.t) =
  let nl = design.Design.netlist in
  let hops =
    List.map2
      (fun (hop : Path.hop) tap ->
        let gate = nl.Netlist.gates.(hop.Path.gate) in
        let base = design.Design.parasitics.(hop.Path.out_net) in
        let n_nodes = Rctree.n_nodes base in
        let tap_pos =
          match
            Array.find_index (fun t -> t = tap) base.Rctree.taps
          with
          | Some p -> p
          | None ->
            invalid_arg
              (Printf.sprintf "Path_mc.plan_of: tap %d is not a tap of net %s"
                 tap nl.Netlist.net_names.(hop.Path.out_net))
        in
        {
          hp_sk =
            Cell.plan tech gate.Netlist.cell
              ~output_edge:(edge_of hop.Path.out_edge);
          hp_base = base;
          hp_tree = Rctree.copy base;
          hp_res = Array.make n_nodes 0.0;
          hp_cap = Array.make n_nodes 0.0;
          hp_down = Array.make n_nodes 0.0;
          hp_m1 = Array.make n_nodes 0.0;
          hp_m2 = Array.make n_nodes 0.0;
          hp_load_caps = Design.sink_caps tech design ~net:hop.Path.out_net;
          hp_tap = tap;
          hp_tap_pos = tap_pos;
        })
      path.Path.hops (out_taps path)
    |> Array.of_list
  in
  { hops }

(* Standard-normal deviates one path sample consumes: the three global
   corners, then per hop the cell skeleton's locals ([Arc.fill] order)
   followed by two per non-root wire node ([Wire_gen.vary_into] order:
   dr before dc, nodes ascending).  This is the vector dimension a
   [Sampler] stream must produce for {!simulate_planned}. *)
let deviate_dim (p : plan) =
  Array.fold_left
    (fun acc hp ->
      acc
      + Arc.skeleton_local_dim hp.hp_sk
      + (2 * (Rctree.n_nodes hp.hp_base - 1)))
    Variation.global_deviate_dim p.hops

(* One sample through the plan.  Mirrors [simulate_sample_record] deviate
   for deviate: per hop the cell skeleton fills first (same draw order as
   [Cell.arc]), then the wire refills (same order as [Wire_gen.vary]),
   then the same hop arithmetic runs on the filled state — so the path
   delay is bit-identical to the rebuild-per-sample reference, as
   test_plan asserts. *)
let simulate_planned ?(steps = 200) ?(kernel = Cell_sim.Rk4) tech (p : plan)
    sample ~record_wire =
  let fast = kernel = Cell_sim.Fast in
  let slew = ref Provider.input_slew_default in
  let total = ref 0.0 in
  Array.iteri
    (fun i hp ->
      Arc.fill tech hp.hp_sk sample;
      Wire_gen.vary_into tech sample ~base:hp.hp_base ~into:hp.hp_tree
        ~res:hp.hp_res ~cap:hp.hp_cap;
      let driver_delay, wire, out_slew =
        if fast then begin
          List.iter
            (fun (node, c) -> Rctree.bump_cap hp.hp_tree node c)
            hp.hp_load_caps;
          let r =
            Cell_sim.run_compiled ~kernel:Cell_sim.Fast tech
              (Arc.skeleton_compiled hp.hp_sk)
              ~input_slew:!slew
              ~load_cap:(Rctree.total_cap hp.hp_tree)
          in
          Elmore.moments_into hp.hp_tree ~down:hp.hp_down ~m1:hp.hp_m1
            ~m2:hp.hp_m2;
          let elmore = hp.hp_m1.(hp.hp_tap) in
          let wire = Elmore.d2m ~m1:elmore ~m2:hp.hp_m2.(hp.hp_tap) in
          let wire_slew = peri_slew_factor *. elmore in
          let out_slew =
            sqrt ((r.Cell_sim.output_slew *. r.Cell_sim.output_slew)
                 +. (wire_slew *. wire_slew))
          in
          (r.Cell_sim.delay, wire, out_slew)
        end
        else begin
          let r =
            Rc_sim.simulate ~steps tech ~driver:(Arc.skeleton_arc hp.hp_sk)
              ~tree:hp.hp_tree ~load_caps:hp.hp_load_caps ~input_slew:!slew
          in
          let wire = snd r.Rc_sim.tap_delays.(hp.hp_tap_pos) in
          (r.Rc_sim.driver_delay, wire, snd r.Rc_sim.tap_slews.(hp.hp_tap_pos))
        end
      in
      record_wire i wire;
      total := !total +. driver_delay +. wire;
      slew := Float.max 1e-12 out_slew)
    p.hops;
  !total

(* ------------------------------------------------------------------ *)
(* Batched (SoA) path evaluation: one chunk of samples walks the plan  *)
(* hop-major, with every hop's cell simulations fused into one         *)
(* [Cell_sim.Batch.eval].  Each sample owns its [Variation.t] (its own *)
(* local-deviate cursor), so interleaving samples within a hop         *)
(* preserves every sample's draw order exactly — and since no FP state *)
(* is shared between samples, each one's value path is the scalar      *)
(* [simulate_planned] sequence expression for expression.  Failed      *)
(* samples (ramp/settled non-convergence) drop out of later hops,      *)
(* mirroring the scalar loop's [Failure] → NaN mapping.                *)
(* ------------------------------------------------------------------ *)

type batch_state = {
  bs_slews : float array;  (* running input slew per sample *)
  bs_totals : float array;  (* accumulated path delay per sample *)
  bs_failed : bool array;
  bs_wire : float array;  (* current hop's D2M wire delay per sample *)
  bs_wslew : float array;  (* current hop's single-pole wire slew *)
  bs_slot : int array;  (* sample → batch slot for the current hop *)
}

let batch_state_create capacity =
  {
    bs_slews = Array.make capacity 0.0;
    bs_totals = Array.make capacity 0.0;
    bs_failed = Array.make capacity false;
    bs_wire = Array.make capacity 0.0;
    bs_wslew = Array.make capacity 0.0;
    bs_slot = Array.make capacity 0;
  }

let simulate_batch_range ~approx tech (p : plan) (b : Cell_sim.Batch.t) st
    ~samples ~out ~lo ~tick =
  let m = Array.length samples in
  for s = 0 to m - 1 do
    st.bs_slews.(s) <- Provider.input_slew_default;
    st.bs_totals.(s) <- 0.0;
    st.bs_failed.(s) <- false
  done;
  Array.iter
    (fun hp ->
      (* Fill pass: per surviving sample, refresh the skeleton and the
         tree (same per-sample draw order as the scalar loop), snapshot
         the compiled constants into the next batch slot and record the
         wire-side quantities before the shared tree scratch is reused. *)
      let k = ref 0 in
      for s = 0 to m - 1 do
        if not st.bs_failed.(s) then begin
          let sample = samples.(s) in
          Arc.fill tech hp.hp_sk sample;
          Wire_gen.vary_into tech sample ~base:hp.hp_base ~into:hp.hp_tree
            ~res:hp.hp_res ~cap:hp.hp_cap;
          List.iter
            (fun (node, c) -> Rctree.bump_cap hp.hp_tree node c)
            hp.hp_load_caps;
          Cell_sim.Batch.load b !k (Arc.skeleton_compiled hp.hp_sk)
            ~input_slew:st.bs_slews.(s)
            ~load_cap:(Rctree.total_cap hp.hp_tree);
          Elmore.moments_into hp.hp_tree ~down:hp.hp_down ~m1:hp.hp_m1
            ~m2:hp.hp_m2;
          let elmore = hp.hp_m1.(hp.hp_tap) in
          st.bs_wire.(s) <- Elmore.d2m ~m1:elmore ~m2:hp.hp_m2.(hp.hp_tap);
          st.bs_wslew.(s) <- peri_slew_factor *. elmore;
          st.bs_slot.(s) <- !k;
          incr k
        end
      done;
      if !k > 0 then Cell_sim.Batch.eval ~approx tech b ~n:!k;
      (* Drain pass: the scalar hop arithmetic, sample by sample. *)
      for s = 0 to m - 1 do
        if not st.bs_failed.(s) then begin
          let t = st.bs_slot.(s) in
          if Cell_sim.Batch.failed b t then st.bs_failed.(s) <- true
          else begin
            let os = Cell_sim.Batch.output_slew b t in
            let ws = st.bs_wslew.(s) in
            let out_slew = sqrt ((os *. os) +. (ws *. ws)) in
            st.bs_totals.(s) <-
              st.bs_totals.(s) +. Cell_sim.Batch.delay b t +. st.bs_wire.(s);
            st.bs_slews.(s) <- Float.max 1e-12 out_slew
          end
        end
      done)
    p.hops;
  for s = 0 to m - 1 do
    out.(lo + s) <- (if st.bs_failed.(s) then Float.nan else st.bs_totals.(s));
    tick ()
  done

let end_net (path : Path.t) =
  match List.rev path.Path.hops with
  | last :: _ -> last.Path.out_net
  | [] -> invalid_arg "Path_mc: empty path"

let no_valid_samples design path ~n =
  let net = end_net path in
  Printf.sprintf
    "Path_mc: no convergent samples (0 of %d) on path ending at net %s" n
    design.Design.netlist.Netlist.net_names.(net)

let run ?steps ?kernel ?(n = 1000) ?(seed = 11) ?(exec = Executor.default ())
    ?sampling ?rtol ?(batch = false) ?(approx = false) tech design path =
  let backend =
    match sampling with Some b -> b | None -> Sampler.default_backend ()
  in
  (* The SoA path only covers the fast hop model with a fixed sample
     count; adaptive runs and the transient reference stay scalar. *)
  let use_batch =
    (batch || approx) && kernel = Some Cell_sim.Fast && rtol = None
  in
  (* The generator is consumed exactly as the pre-sampler loop did
     ([Rng.derive g ~index:i] per sample, no split), so the Mc backend
     replays the legacy population bit for bit. *)
  let g = Rng.create ~seed in
  let sampler =
    match backend with
    | Sampler.Mc -> None
    | _ ->
      (* One probe plan on the calling domain fixes the deviate
         dimension; workers build their own through [init]. *)
      let dim = deviate_dim (plan_of tech design path) in
      Some (Sampler.create backend g ~dim ~n)
  in
  let out = Array.make n Float.nan in
  let drawn, batches =
    Progress.with_bar ~label:"path-mc" ~total:n (fun tick ->
        Metrics.span "path_mc" (fun () ->
            let init () =
              let p = plan_of tech design path in
              let zbuf =
                match sampler with
                | None -> [||]
                | Some s -> Array.make (Sampler.dim s) 0.0
              in
              (p, zbuf)
            in
            let task (p, zbuf) i =
              let sample =
                match sampler with
                | None -> Variation.draw tech (Rng.derive g ~index:i)
                | Some s ->
                  Sampler.fill s ~index:i zbuf;
                  Variation.of_deviates tech zbuf
              in
              let r =
                match
                  simulate_planned ?steps ?kernel tech p sample
                    ~record_wire:(fun _ _ -> ())
                with
                | d -> d
                | exception Failure _ -> Float.nan
              in
              tick ();
              r
            in
            match rtol with
            | None when use_batch ->
              let chunk = Monte_carlo.batch_chunk in
              Executor.map_ranges exec ~chunk
                ~init:(fun () ->
                  ( plan_of tech design path,
                    Cell_sim.Batch.create chunk,
                    batch_state_create chunk ))
                (fun (p, b, st) ~lo ~hi ->
                  let samples =
                    Array.init (hi - lo) (fun s ->
                        let i = lo + s in
                        match sampler with
                        | None -> Variation.draw tech (Rng.derive g ~index:i)
                        | Some sm ->
                          (* Fresh buffer per sample: [of_deviates] keeps
                             a live cursor into it across the hops. *)
                          let z = Array.make (Sampler.dim sm) 0.0 in
                          Sampler.fill sm ~index:i z;
                          Variation.of_deviates tech z)
                  in
                  simulate_batch_range ~approx tech p b st ~samples ~out ~lo
                    ~tick)
                ~n;
              (n, 1)
            | None ->
              Executor.map_float_range exec ~init task ~out ~lo:0 ~hi:n;
              (n, 1)
            | Some rtol ->
              if rtol <= 0.0 then
                invalid_arg "Path_mc.run: rtol must be positive";
              let min_batch = max 2 Monte_carlo.min_adaptive_batch in
              (* Doubling batches, absolute sample indices: an
                 early-stopped population is a bitwise prefix of the full
                 run, and convergence is never tested below
                 [min_adaptive_batch] samples. *)
              let rec loop drawn batches =
                let target =
                  if drawn = 0 then min n min_batch else min n (2 * drawn)
                in
                Executor.map_float_range exec ~init task ~out ~lo:drawn
                  ~hi:target;
                let batches = batches + 1 in
                if target >= n then begin
                  Monte_carlo.trace_batch_event ~out ~target ~converged:false
                    ~capped:true;
                  (target, batches)
                end
                else begin
                  let sorted = Monte_carlo.compact_nan (Array.sub out 0 target) in
                  Array.sort Float.compare sorted;
                  let converged =
                    Array.length sorted >= min_batch
                    && Monte_carlo.quantiles_converged sorted ~rtol
                  in
                  Monte_carlo.trace_batch_event ~out ~target ~converged
                    ~capped:false;
                  if converged then (target, batches)
                  else loop target batches
                end
              in
              loop 0 0))
  in
  let measured = if drawn = n then out else Array.sub out 0 drawn in
  let samples = Monte_carlo.compact_nan measured in
  Metrics.incr m_samples ~by:drawn;
  let failed = drawn - Array.length samples in
  if failed > 0 then Metrics.incr m_non_convergent ~by:failed;
  (match rtol with
  | Some _ ->
    Metrics.incr m_sampling_batches ~by:batches;
    if n > drawn then Metrics.incr m_sampling_saved ~by:(n - drawn)
  | None -> ());
  if Array.length samples = 0 then
    failwith (no_valid_samples design path ~n:drawn);
  Array.sort Float.compare samples;
  let moments = Moments.summary_of_array samples in
  let quantile sigma =
    Quantile.of_sorted samples
      (Quantile.probability_of_sigma (float_of_int sigma))
  in
  let sampling =
    {
      si_backend = backend;
      si_rtol = rtol;
      si_requested = n;
      si_drawn = drawn;
      si_saved = n - drawn;
      si_non_convergent = failed;
      si_batches = batches;
    }
  in
  { samples; moments; quantile; sampling }

let per_wire_quantiles ?steps ?kernel ?(n = 1000) ?(seed = 11)
    ?(exec = Executor.default ()) tech design path ~sigma =
  let n_hops = Path.n_stages path in
  let g = Rng.create ~seed in
  let rows =
    Progress.with_bar ~label:"per-wire quantiles" ~total:n (fun tick ->
        Metrics.span "path_mc.per_wire" (fun () ->
            Executor.map_scratch exec
              ~init:(fun () -> plan_of tech design path)
              (fun p i ->
                let sample = Variation.draw tech (Rng.derive g ~index:i) in
                let wires = Array.make n_hops nan in
                let r =
                  match
                    simulate_planned ?steps ?kernel tech p sample
                      ~record_wire:(fun k d -> wires.(k) <- d)
                  with
                  | (_ : float) -> Some wires
                  | exception Failure _ -> None
                in
                tick ();
                r)
              ~n))
  in
  let rows = Array.to_list rows |> List.filter_map Fun.id in
  Metrics.incr m_samples ~by:n;
  let failed = n - List.length rows in
  if failed > 0 then Metrics.incr m_non_convergent ~by:failed;
  if rows = [] then failwith (no_valid_samples design path ~n);
  List.init n_hops (fun k ->
      let arr = Array.of_list (List.map (fun w -> w.(k)) rows) in
      Nsigma_stats.Quantile.of_sample arr
        (Quantile.probability_of_sigma (float_of_int sigma)))
