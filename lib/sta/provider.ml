module Netlist = Nsigma_netlist.Netlist
module Cell = Nsigma_liberty.Cell
module Library = Nsigma_liberty.Library
module Characterize = Nsigma_liberty.Characterize
module Elmore = Nsigma_rcnet.Elmore

type edge = Rise | Fall

let flip = function Rise -> Fall | Fall -> Rise

type t = {
  label : string;
  cell_delay :
    Netlist.gate -> edge:edge -> input_slew:float -> load_cap:float -> float;
  cell_out_slew :
    Netlist.gate -> edge:edge -> input_slew:float -> load_cap:float -> float;
  wire_delay :
    net:int ->
    driver:Cell.t option ->
    sink:Cell.t option ->
    tree:Nsigma_rcnet.Rctree.t ->
    tap:int ->
    float;
  wire_slew_degrade : wire_delay:float -> slew_at_root:float -> float;
}

let input_slew_default = 10e-12

let table_edge = function Rise -> `Rise | Fall -> `Fall

(* PERI: the tap transition is the RSS of the root transition and the
   wire's own step response (~2.2·Elmore for 20-80%). *)
let peri ~wire_delay ~slew_at_root =
  sqrt ((slew_at_root *. slew_at_root) +. (2.2 *. wire_delay *. 2.2 *. wire_delay))

let nominal library =
  let find gate edge =
    Library.find library gate.Netlist.cell ~edge:(table_edge edge)
  in
  {
    label = "nominal-mean";
    cell_delay =
      (fun gate ~edge ~input_slew ~load_cap ->
        Characterize.mean_at (find gate edge) ~slew:input_slew ~load:load_cap);
    cell_out_slew =
      (fun gate ~edge ~input_slew ~load_cap ->
        Characterize.out_slew_at (find gate edge) ~slew:input_slew ~load:load_cap);
    wire_delay =
      (fun ~net:_ ~driver:_ ~sink:_ ~tree ~tap -> Elmore.delay_at tree tap);
    wire_slew_degrade = peri;
  }
