module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Characterize = Nsigma_liberty.Characterize
module Moments = Nsigma_stats.Moments
module Elmore = Nsigma_rcnet.Elmore
module Provider = Nsigma_sta.Provider
module Engine = Nsigma_sta.Engine
module Design = Nsigma_sta.Design
module Path = Nsigma_sta.Path

type key = Cell.t * [ `Rise | `Fall ]

type t = {
  tech : Nsigma_process.Technology.t;
  library : Library.t;
  cell_model : Cell_model.t;  (* pooled global fit (reported as Table I) *)
  keys : key list;  (* library order: the save order *)
  cell_models : (key, Cell_model.t) Hashtbl.t;
  calibrations : (key, Calibration.t) Hashtbl.t;
  wire : Wire_model.t;
}

let edge_name = function `Rise -> "RISE" | `Fall -> "FALL"

(* The key as written in the coefficients file. *)
let key_name (cell, edge) = Cell.name cell ^ "/" ^ edge_name edge

let key_of_name s =
  match String.split_on_char '/' s with
  | [ name; "RISE" ] -> (Cell.of_name name, `Rise)
  | [ name; "FALL" ] -> (Cell.of_name name, `Fall)
  | _ -> failwith (Printf.sprintf "bad cell key %S" s)

let table_of keys f =
  let tbl = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace tbl k (f k)) keys;
  tbl

let observations_of_table (table : Characterize.table) =
  Array.to_list table.Characterize.points
  |> List.concat_map (fun row ->
         Array.to_list row
         |> List.map (fun (p : Characterize.point) ->
                {
                  Cell_model.moments = p.Characterize.moments;
                  quantiles = p.Characterize.quantiles;
                }))

let build ?(fit_wire_scales = true) library =
  let pairs = Library.cells library in
  (* Pool every grid point of every table into the global Table-I
     regression (the form the paper prints)... *)
  let observations =
    List.concat_map
      (fun (cell, edge) -> observations_of_table (Library.find library cell ~edge))
      pairs
  in
  (* ...and additionally fit the same regression per (cell, edge), which
     is how Fig. 5 stores the coefficients — "in the look-up table form"
     alongside each cell's P/Q/R/K calibration vectors.  The per-cell
     fit is markedly more accurate because one cell's moment-to-quantile
     map over its own operating range is nearly linear in the Table-I
     features, while the pooled map is not. *)
  let cell_models =
    table_of pairs (fun (cell, edge) ->
        Cell_model.fit (observations_of_table (Library.find library cell ~edge)))
  in
  let calibrations =
    table_of pairs (fun (cell, edge) ->
        Calibration.fit (Library.find library cell ~edge))
  in
  let tech = Library.tech library in
  let wire =
    let base = Wire_model.of_library library in
    if not fit_wire_scales then base
    else
      (* Calibrate eq. (7)'s scales against wire Monte-Carlo — the
         paper's place-and-route-netlist experiments. *)
      Wire_model.fit_scales base (Wire_lab.standard_observations tech ())
  in
  {
    tech;
    library;
    cell_model = Cell_model.fit observations;
    keys = pairs;
    cell_models;
    calibrations;
    wire;
  }

(* Per-hop lookups: structural keys, no name built. *)
let calibration t cell ~edge = Hashtbl.find t.calibrations (cell, edge)

let cell_model_for t cell ~edge =
  match Hashtbl.find t.cell_models (cell, edge) with
  | cm -> cm
  | exception Not_found -> t.cell_model

let cell_quantile t cell ~edge ~input_slew ~load_cap ~sigma =
  let calib = calibration t cell ~edge in
  let moments = Calibration.moments_at calib ~slew:input_slew ~load:load_cap in
  Cell_model.predict (cell_model_for t cell ~edge) moments ~sigma

let wire_quantile t ~tree ~tap ~driver ~load ~sigma =
  let elmore = Elmore.delay_at tree tap in
  Wire_model.quantile t.wire ~elmore ~driver ~load ~sigma

let provider t ~sigma =
  let table_edge = function Provider.Rise -> `Rise | Provider.Fall -> `Fall in
  {
    Provider.label = Printf.sprintf "n-sigma(%+d)" sigma;
    cell_delay =
      (fun gate ~edge ~input_slew ~load_cap ->
        cell_quantile t gate.Nsigma_netlist.Netlist.cell ~edge:(table_edge edge)
          ~input_slew ~load_cap ~sigma);
    cell_out_slew =
      (fun gate ~edge ~input_slew ~load_cap ->
        (* Sigma-consistent slew propagation: a sample slow enough to sit
           at the nσ delay also produces a correspondingly slow output
           transition, which the *next* stage's moment calibration then
           sees — the compounding half of the cell/wire interaction.
           Output slew scales with delay to first order, so degrade the
           characterised mean slew by the nσ/0σ delay ratio. *)
        let cell = gate.Nsigma_netlist.Netlist.cell in
        let table = Library.find t.library cell ~edge:(table_edge edge) in
        let mean_slew =
          Characterize.out_slew_at table ~slew:input_slew ~load:load_cap
        in
        if sigma = 0 then mean_slew
        else begin
          (* The output transition degrades sub-linearly with the
             sample's delay: it is partly re-driven by the cell's own
             (degraded) current and partly a feedthrough of the input
             ramp that the slew-indexed lookup above already carries —
             a square-root damping of the delay ratio splits the two. *)
          let q0 =
            cell_quantile t cell ~edge:(table_edge edge) ~input_slew ~load_cap
              ~sigma:0
          in
          let qn =
            cell_quantile t cell ~edge:(table_edge edge) ~input_slew ~load_cap
              ~sigma
          in
          if q0 > 0.0 then Float.max 1e-12 (mean_slew *. sqrt (qn /. q0))
          else mean_slew
        end);
    wire_delay =
      (fun ~net:_ ~driver ~sink ~tree ~tap ->
        match driver with
        | None -> Elmore.delay_at tree tap
        | Some d -> wire_quantile t ~tree ~tap ~driver:d ~load:sink ~sigma);
    wire_slew_degrade =
      (fun ~wire_delay ~slew_at_root ->
        sqrt
          ((slew_at_root *. slew_at_root)
          +. (2.2 *. wire_delay *. 2.2 *. wire_delay)));
  }

let path_quantile t design ~sigma =
  let report = Engine.analyze t.tech (provider t ~sigma) design in
  Engine.circuit_delay report

let path_quantile_of_path t (design : Design.t) (path : Path.t) ~sigma =
  let nl = design.Design.netlist in
  let gate_cell hop =
    nl.Nsigma_netlist.Netlist.gates.(hop.Path.gate).Nsigma_netlist.Netlist.cell
  in
  let table_edge = function Provider.Rise -> `Rise | Provider.Fall -> `Fall in
  (* Eq. 10 with sigma-consistent slew propagation: each stage's quantile
     is evaluated at the transition the *previous* stage produces at the
     same sigma level (the interaction the paper calibrates for), not at
     the nominal-analysis slew. *)
  let peri ~wire_delay ~slew =
    sqrt ((slew *. slew) +. (2.2 *. wire_delay *. 2.2 *. wire_delay))
  in
  let rec go acc slew = function
    | [] -> acc
    | hop :: rest ->
      let cell = gate_cell hop in
      let edge = table_edge hop.Path.out_edge in
      let cell_t =
        cell_quantile t cell ~edge ~input_slew:slew ~load_cap:hop.Path.load_cap
          ~sigma
      in
      let out_slew =
        let table = Library.find t.library cell ~edge in
        let mean_slew =
          Characterize.out_slew_at table ~slew ~load:hop.Path.load_cap
        in
        if sigma = 0 then mean_slew
        else begin
          (* Square-root damping; see the provider's cell_out_slew. *)
          let q0 =
            cell_quantile t cell ~edge ~input_slew:slew
              ~load_cap:hop.Path.load_cap ~sigma:0
          in
          if q0 > 0.0 then Float.max 1e-12 (mean_slew *. sqrt (cell_t /. q0))
          else mean_slew
        end
      in
      let wire_t, next_slew =
        let out_net = hop.Path.out_net in
        let tree = Design.loaded_parasitic t.tech design ~net:out_net in
        let tap, load =
          match rest with
          | next :: _ -> (next.Path.tap, Some (gate_cell next))
          | [] -> (path.Path.end_tap, None)
        in
        let w = wire_quantile t ~tree ~tap ~driver:cell ~load ~sigma in
        (w, peri ~wire_delay:w ~slew:out_slew)
      in
      go (acc +. cell_t +. wire_t) next_slew rest
  in
  go 0.0 Provider.input_slew_default path.Path.hops

(* ----- persistence ----- *)

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "NSIGMA_MODEL 1\n";
      let term_name = function
        | Cell_model.Sigma_gamma -> "sg"
        | Cell_model.Sigma_kappa -> "sk"
        | Cell_model.Gamma_kappa -> "gk"
      in
      let write_level prefix (l : Cell_model.level_fit) =
        Printf.fprintf oc "%s %d" prefix l.Cell_model.sigma;
        List.iter
          (fun (term, c) -> Printf.fprintf oc " %s %.9g" (term_name term) c)
          l.Cell_model.coeffs;
        Printf.fprintf oc " r2 %.9g\n" l.Cell_model.r2
      in
      List.iter (write_level "LEVEL") t.cell_model.Cell_model.levels;
      List.iter
        (fun key ->
          Option.iter
            (fun cm ->
              List.iter
                (write_level (Printf.sprintf "CLEVEL %s" (key_name key)))
                cm.Cell_model.levels)
            (Hashtbl.find_opt t.cell_models key))
        t.keys;
      List.iter
        (fun key ->
          Option.iter
            (fun calib ->
              List.iter (fun line -> output_string oc (line ^ "\n"))
                (Calibration.to_lines calib))
            (Hashtbl.find_opt t.calibrations key))
        t.keys;
      List.iter (fun line -> output_string oc (line ^ "\n"))
        (Wire_model.to_lines t.wire))

let load library path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      let lines = List.rev !lines in
      let fail msg = failwith (path ^ ": " ^ msg) in
      (match lines with
      | "NSIGMA_MODEL 1" :: _ -> ()
      | _ -> fail "bad header");
      let levels = ref [] and calibs = ref [] and wire_lines = ref [] in
      let cell_levels : (key, Cell_model.level_fit list) Hashtbl.t =
        Hashtbl.create 64
      in
      let cell_keys = ref [] in
      let rec parse_coeffs acc = function
        | "r2" :: r2 :: [] -> (List.rev acc, float_of_string r2)
        | name :: value :: more ->
          let term =
            match name with
            | "sg" -> Cell_model.Sigma_gamma
            | "sk" -> Cell_model.Sigma_kappa
            | "gk" -> Cell_model.Gamma_kappa
            | _ -> failwith (path ^ ": bad term name")
          in
          parse_coeffs ((term, float_of_string value) :: acc) more
        | _ -> failwith (path ^ ": bad LEVEL line")
      in
      let rec consume = function
        | [] -> ()
        | line :: rest when String.length line >= 6 && String.sub line 0 6 = "CLEVEL"
          ->
          (match String.split_on_char ' ' line with
          | "CLEVEL" :: key :: sigma :: rest_words ->
            let key = try key_of_name key with Failure msg -> fail msg in
            let sigma = int_of_string sigma in
            let coeffs, r2 = parse_coeffs [] rest_words in
            let existing =
              match Hashtbl.find_opt cell_levels key with
              | Some l -> l
              | None ->
                cell_keys := key :: !cell_keys;
                []
            in
            Hashtbl.replace cell_levels key
              ({ Cell_model.sigma; coeffs; r2 } :: existing)
          | _ -> fail "bad CLEVEL line");
          consume rest
        | line :: rest when String.length line >= 5 && String.sub line 0 5 = "LEVEL"
          ->
          (match String.split_on_char ' ' line with
          | "LEVEL" :: sigma :: rest_words ->
            let sigma = int_of_string sigma in
            let coeffs, r2 = parse_coeffs [] rest_words in
            levels := { Cell_model.sigma; coeffs; r2 } :: !levels
          | _ -> fail "bad LEVEL line");
          consume rest
        | line :: rest when String.length line >= 5 && String.sub line 0 5 = "CALIB"
          ->
          let rec split_block acc = function
            | [] -> fail "truncated CALIB block"
            | "ENDCALIB" :: more -> (List.rev ("ENDCALIB" :: acc), more)
            | l :: more -> split_block (l :: acc) more
          in
          let block, more = split_block [ line ] rest in
          calibs := Calibration.of_lines block :: !calibs;
          consume more
        | line :: rest when String.length line >= 4 && String.sub line 0 4 = "WIRE"
          ->
          wire_lines := line :: rest;
          ()
        | _ :: rest -> consume rest
      in
      consume (List.tl lines);
      if !levels = [] then fail "no LEVEL lines";
      if !wire_lines = [] then fail "no WIRE section";
      let sort_levels ls =
        List.sort
          (fun (a : Cell_model.level_fit) b ->
            compare a.Cell_model.sigma b.Cell_model.sigma)
          ls
      in
      let cell_models =
        Hashtbl.to_seq cell_levels
        |> Seq.map (fun (key, ls) -> (key, { Cell_model.levels = sort_levels ls }))
        |> Hashtbl.of_seq
      in
      (* The first CALIB block of a pair wins; keys keep file order,
         CLEVEL pairs first. *)
      let calibrations = Hashtbl.create 64 in
      let keys = ref (List.rev !cell_keys) in
      List.iter
        (fun calib ->
          let key = (Calibration.cell calib, Calibration.edge calib) in
          if not (Hashtbl.mem calibrations key) then begin
            Hashtbl.add calibrations key calib;
            if not (Hashtbl.mem cell_models key) then keys := !keys @ [ key ]
          end)
        (List.rev !calibs);
      {
        tech = Library.tech library;
        library;
        cell_model = { Cell_model.levels = sort_levels !levels };
        keys = !keys;
        cell_models;
        calibrations;
        wire = Wire_model.of_lines !wire_lines;
      })
