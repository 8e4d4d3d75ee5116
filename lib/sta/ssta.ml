(* Block-based statistical STA: the (delay dist, arrival dist)
   instantiation of Engine_core.

   Arrivals and delays are four-moment distributions decomposed into a
   globally-correlated response and an independent local remainder.
   The global response is a reduced second-order model in the three
   shared process corners z = (dvth_n, dvth_p, dbeta) deviates:

     G = sum_i a_i z_i + b_i (z_i^2 - 1)

   Linear and quadratic coefficients add along a path, so correlated
   variance AND correlated skewness compound exactly — near-threshold
   delay is strongly convex in the vth corners, and a linear
   ("sig_g"-only) model visibly under-predicts the +3 sigma tail.
   Locals add independently (variances and third moments add, fourth
   moments pick up the 6·v·v cross term).  Reconvergent fan-in merges
   through a statistical max (Clark or Cornish-Fisher moment matching,
   Stat_max) whose input correlation comes from the tracked global
   coefficients; the result is re-split by the Clark tightness
   probability.  One topological pass covers the whole netlist — the
   block-based alternative to per-path Monte Carlo (Path_mc). *)

module Netlist = Nsigma_netlist.Netlist
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Characterize = Nsigma_liberty.Characterize
module Store = Nsigma_liberty.Store
module Regression = Nsigma_liberty.Regression
module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Cell_sim = Nsigma_spice.Cell_sim
module Executor = Nsigma_exec.Executor
module Variation = Nsigma_process.Variation
module Moments = Nsigma_stats.Moments
module Stat_max = Nsigma_stats.Stat_max
module Quantile = Nsigma_stats.Quantile
module Rng = Nsigma_stats.Rng
module Metrics = Nsigma_obs.Metrics
module Trace = Nsigma_obs.Trace

(* Registered at module init so run reports always carry the sta.ssta.*
   keys, zero-valued when no statistical run happened. *)
let m_max_ops = Metrics.counter "sta.ssta.max_ops"
let m_max_clark = Metrics.counter "sta.ssta.max.clark"
let m_max_moment = Metrics.counter "sta.ssta.max.moment"
(* Counts the closed-form wire moments' RC-moment passes, 4n+1 per net
   of n segments; the name predates the closed form, when it counted
   wire mini-MC samples, and is kept for the readers keyed on it. *)
let m_wire_mc = Metrics.counter "sta.ssta.wire_mc_samples"

(* Per-reconvergence accuracy signals (arXiv:2401.03588 ablates the max
   operator exactly here).  [tightness] is Clark's P(first input wins) —
   dimensionless in [0,1], recorded through the seconds-bucketed
   histogram as-is, so bucket bounds read as plain numbers — on every
   max op.  [delta] is |mean(Clark max) − mean(moment max)| in seconds
   for the same inputs: the disagreement between the two operators, i.e.
   where the choice of max actually matters on this netlist.  It costs a
   second max evaluation, so it is sampled on one max op in
   [delta_every], counted across the process; a sampled op also emits
   the trace instant ([tightness], [delta_s], [rho]). *)
let h_max_tightness = Metrics.histogram "sta.ssta.max.tightness"
let h_max_delta = Metrics.histogram "sta.ssta.max.delta_seconds"
let delta_every = 64

(* Which max ops sample [delta]: a plain counter, unsynchronised across
   domains.  It only picks the ops that record, never what a max
   computes, so a lost update costs nothing but a sample. *)
let delta_tick = ref 0

let tr_max =
  Trace.instant_type ~cat:"ssta" ~args:[ "tightness"; "delta_s"; "rho" ]
    "ssta.max"

let ng = Variation.global_deviate_dim

(* ---------------------------------------------------------------- *)
(* Arrival / delay distributions.                                   *)
(* ---------------------------------------------------------------- *)

type dist = {
  d_mean : float;  (** mean delay / arrival (s) *)
  d_a : float array;  (** linear global sensitivities, length 3 (s) *)
  d_b : float array;  (** quadratic (z²−1) global sensitivities (s) *)
  d_var_l : float;  (** independent (local) variance (s²) *)
  d_m3_l : float;  (** local third central moment (s³) *)
  d_m4_l : float;  (** local fourth central moment (s⁴) *)
}

type delay = {
  dd : dist;
  d_slew_tc : float;
      (** mean Elmore constant of the wire segment, 0 for cell arcs —
          the time constant PERI slew degradation works on *)
}

let zeros () = Array.make ng 0.0

let zero_dist =
  {
    d_mean = 0.0;
    d_a = Array.make ng 0.0;
    d_b = Array.make ng 0.0;
    d_var_l = 0.0;
    d_m3_l = 0.0;
    d_m4_l = 0.0;
  }

(* Moments of the global response G = Σ a_i·z_i + b_i·(z_i²−1) for iid
   standard normal z: per factor Var = a²+2b², m3 = 6a²b+8b³,
   m4 = 3a⁴+60a²b²+60b⁴; across independent factors variances and third
   moments add and the fourth moment gains 6·Σ_{i<j} v_i·v_j. *)
let var_g d =
  let acc = ref 0.0 in
  for i = 0 to ng - 1 do
    let a = d.d_a.(i) and b = d.d_b.(i) in
    acc := !acc +. (a *. a) +. (2.0 *. b *. b)
  done;
  !acc

let m3_g d =
  let acc = ref 0.0 in
  for i = 0 to ng - 1 do
    let a = d.d_a.(i) and b = d.d_b.(i) in
    acc := !acc +. (6.0 *. a *. a *. b) +. (8.0 *. b *. b *. b)
  done;
  !acc

let m4_g d =
  let sum_m4 = ref 0.0 and sum_v = ref 0.0 and sum_v2 = ref 0.0 in
  for i = 0 to ng - 1 do
    let a = d.d_a.(i) and b = d.d_b.(i) in
    let a2 = a *. a and b2 = b *. b in
    let v = a2 +. (2.0 *. b2) in
    sum_m4 := !sum_m4 +. (3.0 *. a2 *. a2) +. (60.0 *. a2 *. b2) +. (60.0 *. b2 *. b2);
    sum_v := !sum_v +. v;
    sum_v2 := !sum_v2 +. (v *. v)
  done;
  !sum_m4 +. (3.0 *. ((!sum_v *. !sum_v) -. !sum_v2))

let variance d = var_g d +. d.d_var_l
let std d = sqrt (variance d)

(* Keep the local remainder a plausible distribution: |γ| ≤ 1 and
   κ ∈ [1.5, 7] (the Cornish-Fisher stable domain).  Moment-matched
   re-splits subtract the weighted global response from the matched
   totals; without bounds the residual can drift into shapes no random
   variable has and compound through hundreds of max operations. *)
let clamp_locals ~var_l ~m3_l ~m4_l =
  let s3 = var_l *. sqrt var_l in
  let v2 = var_l *. var_l in
  ( Float.max (-.s3) (Float.min s3 m3_l),
    Float.max (1.5 *. v2) (Float.min (7.0 *. v2) m4_l) )

let to_summary d =
  let vg = var_g d in
  Moments.of_central ~n:1 ~mean:d.d_mean
    ~m2:(vg +. d.d_var_l)
    ~m3:(m3_g d +. d.d_m3_l)
    ~m4:(m4_g d +. d.d_m4_l +. (6.0 *. vg *. d.d_var_l))

(* Generic split of a summary when no sensitivity information exists:
   [global_frac] of the variance becomes a single linear factor (no
   quadratic term, so no correlated-skew reconstruction).  Wires use
   global_frac = 0; cells go through [dist_of_table] instead. *)
let of_summary ~global_frac (s : Moments.summary) =
  let gf = Float.min 1.0 (Float.max 0.0 global_frac) in
  let m2, m3, m4 = Moments.central_of_summary s in
  let a = zeros () in
  a.(0) <- sqrt (gf *. m2);
  let vg = gf *. m2 in
  let var_l = (1.0 -. gf) *. m2 in
  let m3_l, m4_l =
    clamp_locals ~var_l ~m3_l:m3
      ~m4_l:(m4 -. (3.0 *. vg *. vg) -. (6.0 *. vg *. var_l))
  in
  { d_mean = s.Moments.mean; d_a = a; d_b = zeros (); d_var_l = var_l; d_m3_l = m3_l; d_m4_l = m4_l }

let quantile d ~sigma =
  let s = to_summary d in
  s.Moments.mean
  +. (s.Moments.std
     *. Stat_max.cornish_fisher ~skew:s.Moments.skewness ~kurt:s.Moments.kurtosis
          sigma)

(* ---------------------------------------------------------------- *)
(* The arrival-value algebra.                                       *)
(* ---------------------------------------------------------------- *)

type correlation =
  | Independent  (** reconverging arrivals treated as uncorrelated *)
  | Constant of float  (** fixed correlation for every max *)
  | Tracked
      (** rho from the tracked global coefficients:
          rho = (Σ a·a' + 2b·b') / (sigma·sigma') *)

type config = { op : Stat_max.operator; corr : correlation }

let default_config = { op = Stat_max.Clark; corr = Tracked }

(* A + D: global coefficients add (shared z), local parts add
   independently (third moments add, fourth moments gain the 6·v·v
   cross term).  The G/L split makes the correlated cross-moments exact
   by construction — they are reassembled in [to_summary]. *)
let add_dist (a : dist) (d : dist) =
  {
    d_mean = a.d_mean +. d.d_mean;
    d_a = Array.init ng (fun i -> a.d_a.(i) +. d.d_a.(i));
    d_b = Array.init ng (fun i -> a.d_b.(i) +. d.d_b.(i));
    d_var_l = a.d_var_l +. d.d_var_l;
    d_m3_l = a.d_m3_l +. d.d_m3_l;
    d_m4_l = a.d_m4_l +. d.d_m4_l +. (6.0 *. a.d_var_l *. d.d_var_l);
  }

let cov_g (a : dist) (b : dist) =
  let acc = ref 0.0 in
  for i = 0 to ng - 1 do
    acc :=
      !acc +. (a.d_a.(i) *. b.d_a.(i)) +. (2.0 *. a.d_b.(i) *. b.d_b.(i))
  done;
  !acc

let rho_of corr (a : dist) (b : dist) =
  match corr with
  | Independent -> 0.0
  | Constant r -> r
  | Tracked ->
    let sa = std a and sb = std b in
    if sa *. sb <= 0.0 then 0.0 else cov_g a b /. (sa *. sb)

(* Re-split a max result: the global coefficients follow the Clark
   tightness weighting c' = p·c_a + (1−p)·c_b (the standard linear
   mixture of canonical/sensitivity-based SSTA), rescaled so the global
   share of the matched variance is the tightness-weighted share of the
   inputs.  The rescale matters: the weighted mixture systematically
   under-explains the matched variance, and letting the residual leak
   into the local term de-correlates downstream maxes — each join then
   over-estimates the next, a positive feedback that runs away over
   deep netlists.  The local remainder absorbs the skew and kurtosis
   the global response does not carry. *)
let resplit (r : Stat_max.result) (a : dist) (b : dist) =
  let p = r.Stat_max.p_first in
  let q = 1.0 -. p in
  let m2, m3, m4 = Moments.central_of_summary r.Stat_max.dist in
  let ca = Array.init ng (fun i -> (p *. a.d_a.(i)) +. (q *. b.d_a.(i))) in
  let cb = Array.init ng (fun i -> (p *. a.d_b.(i)) +. (q *. b.d_b.(i))) in
  let g = { zero_dist with d_a = ca; d_b = cb } in
  let vg = var_g g in
  let share d = let v = variance d in if v > 0.0 then var_g d /. v else 0.0 in
  let vg_target =
    Float.min m2
      (Float.max vg (((p *. share a) +. (q *. share b)) *. m2))
  in
  let scale = if vg > 0.0 && vg_target > 0.0 then sqrt (vg_target /. vg) else 1.0 in
  let ca = Array.map (fun x -> x *. scale) ca in
  let cb = Array.map (fun x -> x *. scale) cb in
  let g = { zero_dist with d_a = ca; d_b = cb } in
  let vg = var_g g in
  let var_l = Float.max 0.0 (m2 -. vg) in
  let m3_l, m4_l =
    clamp_locals ~var_l ~m3_l:(m3 -. m3_g g)
      ~m4_l:(m4 -. m4_g g -. (6.0 *. vg *. var_l))
  in
  {
    d_mean = r.Stat_max.dist.Moments.mean;
    d_a = ca;
    d_b = cb;
    d_var_l = var_l;
    d_m3_l = m3_l;
    d_m4_l = m4_l;
  }

let join_dist (cfg : config) (a : dist) (b : dist) =
  Metrics.incr m_max_ops;
  (match cfg.op with
  | Stat_max.Clark -> Metrics.incr m_max_clark
  | Stat_max.Moment -> Metrics.incr m_max_moment);
  let rho = rho_of cfg.corr a b in
  let sa = to_summary a and sb = to_summary b in
  let r = Stat_max.apply cfg.op ~rho sa sb in
  (* The Clark-vs-moment disagreement costs a second max evaluation, so
     it is computed only when something records it, and then on one op
     in [delta_every]; it reads the same inputs and never feeds back
     into the arrival, keeping the propagated graph identical with
     observability on or off. *)
  if Metrics.enabled () || Trace.enabled () then begin
    Metrics.observe h_max_tightness r.Stat_max.p_first;
    let tick = !delta_tick in
    delta_tick := tick + 1;
    if tick mod delta_every = 0 then begin
      let alt =
        Stat_max.apply
          (match cfg.op with
          | Stat_max.Clark -> Stat_max.Moment
          | Stat_max.Moment -> Stat_max.Clark)
          ~rho sa sb
      in
      let delta =
        Float.abs
          (r.Stat_max.dist.Moments.mean -. alt.Stat_max.dist.Moments.mean)
      in
      Metrics.observe h_max_delta delta;
      if Trace.enabled () then
        Trace.instant tr_max ~a:r.Stat_max.p_first ~b:delta ~c:rho ()
    end
  end;
  resplit r a b

(* Criticality ranks by the +3 sigma arrival (Cornish-Fisher, the same
   quantile convention as reporting) — recorded critical predecessors
   and PO ordering reflect statistical, not nominal, dominance. *)
let key d = quantile d ~sigma:3.0

let algebra (cfg : config) : (delay, dist) Engine_core.algebra =
  {
    source = zero_dist;
    no_delay = { dd = zero_dist; d_slew_tc = 0.0 };
    add = (fun a dl -> add_dist a dl.dd);
    key;
    join = (fun old_v cand -> join_dist cfg old_v cand);
  }

(* ---------------------------------------------------------------- *)
(* The statistical provider: LVF tables + mini-MC decomposition.    *)
(* ---------------------------------------------------------------- *)

type provider = (delay, dist) Engine_core.model

let edge_of = function Provider.Rise -> `Rise | Provider.Fall -> `Fall

(* Same single-pole 20-80% constant as Path_mc's fast hop model: the
   statistical wire provider must mirror the model the MC reference
   uses, so validation error isolates the propagation approximation.
   The D2M and Elmore values mirror it by construction: both loops
   score a sample with the same [Elmore.moments_into] pass. *)
let peri_slew_factor = Float.log 4.0 /. 0.6

(* Global/local sensitivity of a net's slew, stored per (net, edge) as
   the walk reaches each driver: the sensitivities of the driver's
   output slew plus its own inherited input-slew coupling. *)
type slew_sens = {
  ss_a : float array;  (* slew linear global sensitivities (s) *)
  ss_b : float array;  (* slew quadratic global sensitivities (s) *)
  ss_l : float;  (* slew local sigma (s) *)
  ss_root : float;  (* the mean slew these sensitivities describe (s) *)
}

type handle = {
  h_provider : provider;
  h_invalidate_net : int -> unit;
  h_slew_sig : int -> int64 array;
  h_prewarm : unit -> unit;
}

let handle_of_provider p =
  {
    h_provider = p;
    h_invalidate_net = (fun _ -> ());
    h_slew_sig = (fun _ -> [||]);
    h_prewarm = (fun () -> ());
  }

let lvf_handle ?(seed = 421) ?(frac_samples = 128)
    ?(exec = Executor.default ()) ?(batch = false) ?(approx = false)
    ?(store_dir = Store.default_dir ()) tech (lib : Library.t)
    (design : Design.t) : handle =
  (* Every net driven by the same (cell, edge) pair shares one
     regression: it runs at the fixed reference operating point, and the
     per-net operating point only enters later, via the dist_of_table
     rescale.  The regressions live in the library's memo, so a new
     handle on a warm library computes none, and a hit is one structural
     lookup that builds no name. *)
  let regression =
    Library.regressions ~exec ~batch ~store_dir lib
      { Regression.tech; seed; frac_samples; approx }
  in
  let arc_response (cell : Cell.t) edge = regression cell ~edge:(edge_of edge) in
  (* An arc's distribution at its operating point: total moments from
     the LVF table, global share and response shape from the cached
     reference-point regression (rescaled so the global variance is
     frac of the table's). *)
  let dist_of_table (resp : Regression.t) (s : Moments.summary) =
    let m2, m3, m4 = Moments.central_of_summary s in
    let vg_target = resp.ar_frac *. m2 in
    let vg_ref =
      let acc = ref 0.0 in
      for i = 0 to ng - 1 do
        acc :=
          !acc
          +. (resp.ar_a.(i) *. resp.ar_a.(i))
          +. (2.0 *. resp.ar_b.(i) *. resp.ar_b.(i))
      done;
      !acc
    in
    if vg_ref <= 0.0 || vg_target <= 0.0 then begin
      let m3_l, m4_l = clamp_locals ~var_l:m2 ~m3_l:m3 ~m4_l:m4 in
      {
        d_mean = s.Moments.mean;
        d_a = zeros ();
        d_b = zeros ();
        d_var_l = m2;
        d_m3_l = m3_l;
        d_m4_l = m4_l;
      }
    end
    else begin
      let r = sqrt (vg_target /. vg_ref) in
      let g =
        {
          zero_dist with
          d_a = Array.map (fun x -> x *. r) resp.ar_a;
          d_b = Array.map (fun x -> x *. r) resp.ar_b;
        }
      in
      let vg = var_g g in
      let var_l = Float.max 0.0 (m2 -. vg) in
      let m3_l, m4_l =
        clamp_locals ~var_l ~m3_l:(m3 -. m3_g g)
          ~m4_l:(m4 -. m4_g g -. (6.0 *. vg *. var_l))
      in
      {
        d_mean = s.Moments.mean;
        d_a = g.d_a;
        d_b = g.d_b;
        d_var_l = var_l;
        d_m3_l = m3_l;
        d_m4_l = m4_l;
      }
    end
  in
  (* Per-net wire distributions in closed form.  The varied quantity is
     the D2M value f at each tap (Path_mc's fast-hop metric) as a
     function of the net's local BEOL deviates, one independent standard
     normal per segment R and per segment C (exactly what Wire_gen.vary
     draws).  Each deviate k is probed at ±1σ with every other deviate
     at nominal, which fixes a per-tap quadratic
       f ≈ f₀ + Σₖ aₖ zₖ + bₖ zₖ²,  aₖ = (f⁺−f⁻)/2,  bₖ = (f⁺+f⁻−2f₀)/2
     whose cumulants add over independent deviates:
       κ₁ = f₀+Σb, κ₂ = Σ a²+2b², κ₃ = Σ 6a²b+8b³, κ₄ = Σ 48a²b²+48b⁴.
     That is 4n+1 fused moment passes for a net of n segments, each
     pass scoring every tap at once.  The PERI slew constant is the
     nominal Elmore value: m1 is bilinear in independent zero-mean
     deviates, so its mean is the nominal m1 exactly. *)
  let wire_cache : (int, (int * dist * float) array) Hashtbl.t =
    Hashtbl.create 64
  in
  let wire_dists net =
    match Hashtbl.find_opt wire_cache net with
    | Some arr -> arr
    | None ->
      let base = design.Design.parasitics.(net) in
      let loads = Design.sink_caps tech design ~net in
      let taps = base.Rctree.taps in
      let n_taps = Array.length taps in
      let n_nodes = Rctree.n_nodes base in
      let tree = Rctree.copy base in
      let res = Array.map (fun nd -> nd.Rctree.res) base.Rctree.nodes in
      let cap = Array.map (fun nd -> nd.Rctree.cap) base.Rctree.nodes in
      let down = Array.make n_nodes 0.0 in
      let m1 = Array.make n_nodes 0.0 and m2 = Array.make n_nodes 0.0 in
      (* One moment pass at the current [res]/[cap]: D2M per tap into [f]. *)
      let score f =
        Rctree.refill tree ~res ~cap;
        List.iter (fun (node, c) -> Rctree.bump_cap tree node c) loads;
        Elmore.moments_into tree ~down ~m1 ~m2;
        for j = 0 to n_taps - 1 do
          f.(j) <- Elmore.d2m ~m1:m1.(taps.(j)) ~m2:m2.(taps.(j))
        done
      in
      let f0 = Array.make n_taps 0.0 in
      score f0;
      let elmore = Array.map (fun tap -> m1.(tap)) taps in
      let fp = Array.make n_taps 0.0 and fm = Array.make n_taps 0.0 in
      let k1 = Array.copy f0 and k2 = Array.make n_taps 0.0 in
      let k3 = Array.make n_taps 0.0 and k4 = Array.make n_taps 0.0 in
      let probe values i sigma =
        let x = values.(i) in
        values.(i) <- x *. (1.0 +. sigma);
        score fp;
        values.(i) <- x *. (1.0 -. sigma);
        score fm;
        values.(i) <- x;
        for j = 0 to n_taps - 1 do
          let a = (fp.(j) -. fm.(j)) /. 2.0 in
          let b = (fp.(j) +. fm.(j) -. (2.0 *. f0.(j))) /. 2.0 in
          let a2 = a *. a and b2 = b *. b in
          k1.(j) <- k1.(j) +. b;
          k2.(j) <- k2.(j) +. a2 +. (2.0 *. b2);
          k3.(j) <- k3.(j) +. (6.0 *. a2 *. b) +. (8.0 *. b2 *. b);
          k4.(j) <- k4.(j) +. (48.0 *. a2 *. b2) +. (48.0 *. b2 *. b2)
        done
      in
      for i = 1 to n_nodes - 1 do
        probe res i tech.Nsigma_process.Technology.sigma_wire_res;
        probe cap i tech.Nsigma_process.Technology.sigma_wire_cap
      done;
      Metrics.incr m_wire_mc ~by:((4 * (n_nodes - 1)) + 1);
      let arr =
        Array.mapi
          (fun j tap ->
            let s =
              Moments.of_central ~n:1 ~mean:k1.(j) ~m2:k2.(j) ~m3:k3.(j)
                ~m4:(k4.(j) +. (3.0 *. k2.(j) *. k2.(j)))
            in
            (tap, of_summary ~global_frac:0.0 s, elmore.(j)))
          taps
      in
      Hashtbl.add wire_cache net arr;
      arr
  in
  (* Slew sensitivities per (net, edge), filled as the topological walk
     reaches each driver — downstream lookups always find their inputs
     already computed (or absent, for PI-driven nets: zero
     sensitivity). *)
  let slew_tab : (int * int, slew_sens) Hashtbl.t = Hashtbl.create 64 in
  (* Incoming slew distribution of a candidate, attenuated through the
     wire degrade: pin = RSS(root, wire), so d(pin)/d(root) = root/pin.
     Returns attenuated sensitivity arrays, local sigma and the total
     slew variance at the pin. *)
  let incoming ~in_net ~in_edge ~input_slew =
    match Hashtbl.find_opt slew_tab (in_net, Engine_core.edge_index in_edge) with
    | None -> None
    | Some ss ->
      let atten =
        if input_slew > 0.0 then Float.min 1.0 (ss.ss_root /. input_slew)
        else 1.0
      in
      let sa = Array.map (fun x -> atten *. x) ss.ss_a in
      let sb = Array.map (fun x -> atten *. x) ss.ss_b in
      let sl = atten *. ss.ss_l in
      let var_s = ref (sl *. sl) in
      for i = 0 to ng - 1 do
        var_s := !var_s +. (sa.(i) *. sa.(i)) +. (2.0 *. sb.(i) *. sb.(i))
      done;
      Some (sa, sb, sl, !var_s)
  in
  (* First derivative w.r.t. input slew: central finite difference on
     the (bilinear) table.  Second derivative: the bilinear surface is
     piecewise linear in slew, so curvature lives only at the grid
     knots — use the divided difference through the three knots
     bracketing the operating point instead. *)
  let dq_ds value_at tbl ~load ~slew =
    let h = 0.1 *. slew in
    (value_at tbl ~slew:(slew +. h) ~load -. value_at tbl ~slew:(slew -. h) ~load)
    /. (2.0 *. h)
  in
  let curvature value_at (tbl : Characterize.table) ~load ~slew =
    let s = tbl.Characterize.slews in
    let n = Array.length s in
    if n < 3 then 0.0
    else begin
      let j = ref 1 in
      for i = 1 to n - 2 do
        if Float.abs (s.(i) -. slew) < Float.abs (s.(!j) -. slew) then j := i
      done;
      let j = !j in
      let f0 = value_at tbl ~slew:s.(j - 1) ~load
      and f1 = value_at tbl ~slew:s.(j) ~load
      and f2 = value_at tbl ~slew:s.(j + 1) ~load in
      2.0
      *. (((f2 -. f1) /. (s.(j + 1) -. s.(j)))
         -. ((f1 -. f0) /. (s.(j) -. s.(j - 1))))
      /. (s.(j + 1) -. s.(j - 1))
    end
  in
  let provider =
  {
    Engine_core.m_label = "ssta-lvf";
    m_cell_delay =
      (fun gate ~edge ~in_net ~in_edge ~input_slew ~load_cap ->
        let cell = gate.Netlist.cell in
        let tbl = Library.find lib cell ~edge:(edge_of edge) in
        let s = Characterize.moments_at tbl ~slew:input_slew ~load:load_cap in
        let base = dist_of_table (arc_response cell edge) s in
        let dd =
          match incoming ~in_net ~in_edge ~input_slew with
          | None -> base
          | Some (sa, sb, sl, var_s) ->
            let d1 =
              dq_ds Characterize.mean_at tbl ~load:load_cap ~slew:input_slew
            in
            let d2 =
              curvature Characterize.mean_at tbl ~load:load_cap
                ~slew:input_slew
            in
            (* Stage coupling.  First order: this arc's delay moves with
               its input slew, which responds to the shared corners
               (compounding correlated variance) and to upstream
               mismatch (adding local variance).  Second order: delay
               is convex in slew, so the corner response picks up a
               quadratic term — the source of the correlated skew a
               fixed-slew table lookup cannot contain — and the mean
               shifts by ½·D″·Var(slew) (Jensen).  The table,
               characterized at fixed slew, contains none of this. *)
            let dv = d1 *. d1 *. sl *. sl in
            {
              base with
              d_mean = base.d_mean +. (0.5 *. d2 *. var_s);
              d_a = Array.init ng (fun i -> base.d_a.(i) +. (d1 *. sa.(i)));
              d_b =
                Array.init ng (fun i ->
                    base.d_b.(i) +. (d1 *. sb.(i))
                    +. (0.5 *. d2 *. sa.(i) *. sa.(i)));
              d_var_l = base.d_var_l +. dv;
              d_m4_l =
                base.d_m4_l +. (3.0 *. dv *. dv)
                +. (6.0 *. base.d_var_l *. dv);
            }
        in
        { dd; d_slew_tc = 0.0 });
    m_cell_out_slew =
      (fun gate ~edge ~in_net ~in_edge ~input_slew ~load_cap ->
        let cell = gate.Netlist.cell in
        let tbl = Library.find lib cell ~edge:(edge_of edge) in
        let out =
          Characterize.out_slew_at tbl ~slew:input_slew ~load:load_cap
        in
        let resp = arc_response cell edge in
        (* Direct slew response measured at the reference point, rescaled
           proportionally to the operating-point slew. *)
        let scale =
          if resp.ar_slew_mean > 0.0 then out /. resp.ar_slew_mean else 1.0
        in
        let ca, cb, cl, jensen =
          match incoming ~in_net ~in_edge ~input_slew with
          | None -> (Array.make ng 0.0, Array.make ng 0.0, 0.0, 0.0)
          | Some (sa, sb, sl, var_s) ->
            let s1 =
              dq_ds Characterize.out_slew_at tbl ~load:load_cap
                ~slew:input_slew
            in
            let s2 =
              curvature Characterize.out_slew_at tbl ~load:load_cap
                ~slew:input_slew
            in
            ( Array.init ng (fun i -> s1 *. sa.(i)),
              Array.init ng (fun i ->
                  (s1 *. sb.(i)) +. (0.5 *. s2 *. sa.(i) *. sa.(i))),
              s1 *. sl,
              0.5 *. s2 *. var_s )
        in
        let direct_l = scale *. resp.ar_sl in
        let out = out +. jensen in
        Hashtbl.replace slew_tab
          (gate.Netlist.output, Engine_core.edge_index edge)
          {
            ss_a = Array.init ng (fun i -> (scale *. resp.ar_sa.(i)) +. ca.(i));
            ss_b = Array.init ng (fun i -> (scale *. resp.ar_sb.(i)) +. cb.(i));
            ss_l = sqrt ((direct_l *. direct_l) +. (cl *. cl));
            ss_root = out;
          };
        out);
    m_wire_delay =
      (fun ~net ~driver:_ ~sink:_ ~tree:_ ~tap ->
        let arr = wire_dists net in
        match Array.find_opt (fun (t, _, _) -> t = tap) arr with
        | Some (_, d, elm) -> { dd = d; d_slew_tc = elm }
        | None -> { dd = zero_dist; d_slew_tc = 0.0 });
    m_wire_slew_degrade =
      (fun ~wire_delay ~slew_at_root ->
        let ws = peri_slew_factor *. wire_delay.d_slew_tc in
        sqrt ((slew_at_root *. slew_at_root) +. (ws *. ws)));
  }
  in
  (* Edited nets must recompute their wire moments (new geometry / pin
     caps) and forget their slew sensitivities; both rebuild
     deterministically (the wire moments from the net's own tree and
     loads alone), so recomputing an unedited net would reproduce its
     old entry bit for bit — which is what makes clearing only the
     invalidated nets sound. *)
  let invalidate_net net =
    Hashtbl.remove wire_cache net;
    Hashtbl.remove slew_tab (net, 0);
    Hashtbl.remove slew_tab (net, 1)
  in
  (* Bitwise signature of a net's slew-sensitivity state (both edges,
     presence-tagged): the part of the provider's retained state that
     feeds downstream delays but is invisible in the arrival slot, so
     the incremental engine must include it in its cutoff equality. *)
  let slew_sig net =
    let buf = ref [] in
    for e = 1 downto 0 do
      match Hashtbl.find_opt slew_tab (net, e) with
      | None -> buf := 0L :: !buf
      | Some ss ->
        let fs =
          Array.to_list ss.ss_a @ Array.to_list ss.ss_b
          @ [ ss.ss_l; ss.ss_root ]
        in
        buf := (1L :: List.map Int64.bits_of_float fs) @ !buf
    done;
    Array.of_list !buf
  in
  (* Force every (cell, edge) regression the design can demand — the
     provider's whole cold cost, paid once per library (a warm memo makes
     this a walk of lookups), so timing it on a fresh library isolates
     the store's cold/warm behaviour. *)
  let prewarm () =
    Array.iter
      (fun (g : Netlist.gate) ->
        List.iter
          (fun e -> ignore (arc_response g.Netlist.cell e))
          [ Provider.Rise; Provider.Fall ])
      design.Design.netlist.Netlist.gates
  in
  {
    h_provider = provider;
    h_invalidate_net = invalidate_net;
    h_slew_sig = slew_sig;
    h_prewarm = prewarm;
  }

let lvf_provider ?seed ?frac_samples ?exec ?batch ?approx ?store_dir tech lib
    design =
  (lvf_handle ?seed ?frac_samples ?exec ?batch ?approx ?store_dir tech lib
     design)
    .h_provider

(* ---------------------------------------------------------------- *)
(* Analysis.                                                        *)
(* ---------------------------------------------------------------- *)

type report = (delay, dist) Engine_core.report

let analyze ?input_slew ?load_model ?(config = default_config) tech
    (provider : provider) design : report =
  Engine_core.analyze ~span:"sta.ssta.analyze" ?input_slew ?load_model
    (algebra config) provider tech design

let arrival (report : report) ~net ~edge = Engine_core.arrival report ~net ~edge
let po_dist (report : report) ~net ~edge = Engine_core.po_arrival report ~net ~edge

let circuit_dist (report : report) =
  match report.Engine_core.pos with
  | [] -> zero_dist
  | po :: _ -> po.Engine_core.po_value

let pos (report : report) =
  List.map
    (fun po ->
      (po.Engine_core.po_net, po.Engine_core.po_edge, po.Engine_core.po_value))
    report.Engine_core.pos

(* ---------------------------------------------------------------- *)
(* Validation against per-path Monte Carlo.                         *)
(* ---------------------------------------------------------------- *)

type validation = {
  va_n_paths : int;  (** PO paths in the MC max population *)
  va_mc_n : int;  (** MC samples *)
  va_mc_seconds : float;  (** wall-clock of the per-path MC reference *)
  va_ssta_seconds : float;  (** wall-clock of provider caches + SSTA pass *)
  va_mc : Moments.summary;  (** max-over-covered-paths population *)
  va_mc_p3 : float;  (** +3 sigma-level empirical quantile *)
  va_mc_m3 : float;  (** -3 sigma-level empirical quantile *)
  va_ssta : dist;  (** statistical max over the same covered POs *)
  va_ssta_full : dist;  (** full-circuit dist (all POs) *)
  va_err_mean : float;  (** relative mean error vs MC *)
  va_err_p3 : float;  (** relative +3 sigma quantile error vs MC *)
  va_err_m3 : float;  (** relative -3 sigma quantile error vs MC *)
}

(* Max-over-paths MC reference: sample i draws every path's variation
   stream from the same derived index, so the three global corners are
   shared across paths (the physical coupling block-based SSTA models
   with its global coefficients) while each path re-simulates stage by
   stage with the fast hop model — the same cell/wire model the
   statistical provider mirrors, so the comparison isolates the
   propagation and max approximations.  Runs single-threaded; so does
   the SSTA pass, making the wall-clock ratio a like-for-like
   speedup. *)
let validate ?(n = 1000) ?(k = 16) ?(seed = 97) ?(config = default_config)
    ?provider tech (lib : Library.t) (design : Design.t) =
  let scalar = Engine.analyze tech (Provider.nominal lib) design in
  let paths = Engine.worst_paths scalar ~k in
  if paths = [] then invalid_arg "Ssta.validate: design has no PO paths";
  let plans = List.map (Path_mc.plan_of tech design) paths in
  let t0 = Metrics.now () in
  let samples =
    Array.init n (fun i ->
        let best = ref Float.neg_infinity in
        List.iter
          (fun plan ->
            let v = Variation.draw tech (Rng.derive (Rng.create ~seed) ~index:i) in
            let d =
              Path_mc.simulate_planned ~kernel:Cell_sim.Fast tech plan v
                ~record_wire:(fun _ _ -> ())
            in
            if d > !best then best := d)
          plans;
        !best)
  in
  let mc_seconds = Metrics.now () -. t0 in
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let mc_p3 = Quantile.of_sorted sorted (Quantile.probability_of_sigma 3.0) in
  let mc_m3 = Quantile.of_sorted sorted (Quantile.probability_of_sigma (-3.0)) in
  let t1 = Metrics.now () in
  let provider =
    match provider with Some p -> p | None -> lvf_provider tech lib design
  in
  let report = analyze ~config tech provider design in
  (* Statistical max over the same covered POs, worst-first. *)
  let covered =
    List.filter_map
      (fun (path : Path.t) ->
        let edge =
          match List.rev path.Path.hops with
          | h :: _ -> h.Path.out_edge
          | [] -> Provider.Rise
        in
        po_dist report ~net:path.Path.end_net ~edge)
      paths
  in
  let ssta_covered =
    match covered with
    | [] -> circuit_dist report
    | d :: rest -> List.fold_left (join_dist config) d rest
  in
  let ssta_seconds = Metrics.now () -. t1 in
  let rel a b = if b = 0.0 then 0.0 else Float.abs (a -. b) /. Float.abs b in
  let mc = Moments.summary (Moments.of_array samples) in
  {
    va_n_paths = List.length paths;
    va_mc_n = n;
    va_mc_seconds = mc_seconds;
    va_ssta_seconds = ssta_seconds;
    va_mc = mc;
    va_mc_p3 = mc_p3;
    va_mc_m3 = mc_m3;
    va_ssta = ssta_covered;
    va_ssta_full = circuit_dist report;
    va_err_mean = rel ssta_covered.d_mean mc.Moments.mean;
    va_err_p3 = rel (quantile ssta_covered ~sigma:3.0) mc_p3;
    va_err_m3 = rel (quantile ssta_covered ~sigma:(-3.0)) mc_m3;
  }
