module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Characterize = Nsigma_liberty.Characterize
module Moments = Nsigma_stats.Moments
module Regression = Nsigma_stats.Regression

type t = {
  ratio_fo4 : float;
  x_table : (Cell.t * float) list;
  scale_fi : float;
  scale_fo : float;
}

let fo4_reference = Cell.make Cell.Inv ~strength:4

let theoretical_x cell =
  sqrt (4.0 /. (float_of_int (Cell.stack_count cell) *. float_of_int cell.Cell.strength))

(* A cell's delay variability at the reference slew under its own FO4
   load, from the characterised fall table. *)
let library_ratio library cell =
  match Library.find_opt library cell ~edge:`Fall with
  | None -> None
  | Some table ->
    let tech = Library.tech library in
    let m =
      Characterize.moments_at table ~slew:Characterize.reference_slew
        ~load:(Cell.fo4_load tech cell)
    in
    if m.Moments.mean <= 0.0 then None else Some (m.Moments.std /. m.Moments.mean)

let of_library library =
  let ratio_fo4 =
    match library_ratio library fo4_reference with
    | Some r -> r
    | None ->
      invalid_arg
        "Wire_model.of_library: library must contain INVX4 (fall) as the FO4 reference"
  in
  let x_table =
    List.filter_map
      (fun (cell, edge) ->
        if edge <> `Fall then None
        else
          Option.map
            (fun r -> (cell, r /. ratio_fo4))
            (library_ratio library cell))
      (Library.cells library)
  in
  { ratio_fo4; x_table; scale_fi = 1.0; scale_fo = 1.0 }

(* Keyed by the cell itself: this per-hop lookup builds no name. *)
let x_of t cell =
  match List.assoc cell t.x_table with
  | x -> x
  | exception Not_found -> theoretical_x cell

let cell_ratio t cell = x_of t cell *. t.ratio_fo4

let variability t ~driver ~load =
  let fi = x_of t driver *. cell_ratio t driver in
  let fo = match load with None -> 0.0 | Some c -> x_of t c *. cell_ratio t c in
  (t.scale_fi *. fi) +. (t.scale_fo *. fo)

let quantile t ~elmore ~driver ~load ~sigma =
  (* Physical floor: a wire never gets faster than a small fraction of
     its Elmore delay, however deep the left tail. *)
  let factor = 1.0 +. (float_of_int sigma *. variability t ~driver ~load) in
  Float.max 0.05 factor *. elmore

type wire_observation = {
  driver : Cell.t;
  load : Cell.t option;
  measured_variability : float;
}

let fit_scales t observations =
  if observations = [] then invalid_arg "Wire_model.fit_scales: no observations";
  let design =
    Array.of_list
      (List.map
         (fun o ->
           let fi = x_of t o.driver *. cell_ratio t o.driver in
           let fo =
             match o.load with
             | None -> 0.0
             | Some c -> x_of t c *. cell_ratio t c
           in
           [| fi; fo |])
         observations)
  in
  let target =
    Array.of_list (List.map (fun o -> o.measured_variability) observations)
  in
  let f = Regression.fit ~design ~target in
  { t with scale_fi = f.Regression.coeffs.(0); scale_fo = f.Regression.coeffs.(1) }

let to_lines t =
  Printf.sprintf "WIRE %.9g %.9g %.9g" t.ratio_fo4 t.scale_fi t.scale_fo
  :: List.map
       (fun (cell, x) -> Printf.sprintf "X %s %.9g" (Cell.name cell) x)
       t.x_table
  @ [ "ENDWIRE" ]

let of_lines lines =
  let fail msg = failwith ("Wire_model.of_lines: " ^ msg) in
  match lines with
  | header :: rest ->
    let ratio_fo4, scale_fi, scale_fo =
      match String.split_on_char ' ' header with
      | [ "WIRE"; r; a; b ] ->
        (float_of_string r, float_of_string a, float_of_string b)
      | _ -> fail "bad WIRE header"
    in
    let x_table =
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "X"; name; x ] -> Some (Cell.of_name name, float_of_string x)
          | [ "ENDWIRE" ] -> None
          | _ -> fail "bad X line")
        rest
    in
    { ratio_fo4; x_table; scale_fi; scale_fo }
  | [] -> fail "empty input"
