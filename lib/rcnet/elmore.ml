let delays ?(driver_res = 0.0) (t : Rctree.t) =
  let n = Rctree.n_nodes t in
  let down = Rctree.downstream_cap t in
  let out = Array.make n 0.0 in
  (* Root sees the driver resistance times all capacitance. *)
  out.(0) <- driver_res *. down.(0);
  for i = 1 to n - 1 do
    out.(i) <- out.(t.nodes.(i).parent) +. (t.nodes.(i).res *. down.(i))
  done;
  out

let delay_at ?driver_res t i =
  if i < 0 || i >= Rctree.n_nodes t then
    invalid_arg "Elmore.delay_at: index out of range";
  (delays ?driver_res t).(i)

let delay_to_tap ?driver_res (t : Rctree.t) =
  if Array.length t.taps = 0 then invalid_arg "Elmore.delay_to_tap: no taps";
  (delays ?driver_res t).(t.taps.(0))

(* Second moment via the weighted-downstream recurrence: with
   T_k the Elmore delay at k, S2(i) = Σ_{k in subtree(i)} C_k·T_k, and
   m2_i = Σ_{edges e on path} R_e·S2(e) (driver edge included). *)
let second_moments ?(driver_res = 0.0) (t : Rctree.t) =
  let n = Rctree.n_nodes t in
  let elm = delays ~driver_res t in
  let s2 = Array.init n (fun i -> t.nodes.(i).cap *. elm.(i)) in
  for i = n - 1 downto 1 do
    let p = t.nodes.(i).parent in
    s2.(p) <- s2.(p) +. s2.(i)
  done;
  let out = Array.make n 0.0 in
  out.(0) <- driver_res *. s2.(0);
  for i = 1 to n - 1 do
    out.(i) <- out.(t.nodes.(i).parent) +. (t.nodes.(i).res *. s2.(i))
  done;
  out

(* Alpert's D2M from the first two moments; the one expression every
   D2M in the code base goes through. *)
let ln2 = log 2.0

let d2m ~m1 ~m2 = if m2 <= 0.0 then m1 *. ln2 else ln2 *. m1 *. m1 /. sqrt m2

let d2m_at ?driver_res t i =
  let m1 = delay_at ?driver_res t i in
  let m2 = (second_moments ?driver_res t).(i) in
  d2m ~m1 ~m2

(* [delays] + [second_moments] at driver_res = 0, fused into caller
   arrays: the same float operations in the same order (downstream caps
   bottom-up, Elmore top-down, the C·T sums bottom-up, then m2
   top-down), so every entry is bitwise what the allocating functions
   return.  [m2] holds the weighted-downstream sums S2 until the last
   pass overwrites them top-down: step i reads its own S2 and its
   parent's final m2, and no child of i has been visited yet. *)
let moments_into (t : Rctree.t) ~down ~m1 ~m2 =
  let n = Rctree.n_nodes t in
  if Array.length down < n || Array.length m1 < n || Array.length m2 < n then
    invalid_arg "Elmore.moments_into: scratch shorter than the tree";
  let nodes = t.nodes in
  for i = 0 to n - 1 do
    down.(i) <- nodes.(i).cap
  done;
  for i = n - 1 downto 1 do
    let p = nodes.(i).parent in
    down.(p) <- down.(p) +. down.(i)
  done;
  m1.(0) <- 0.0 *. down.(0);
  m2.(0) <- nodes.(0).cap *. m1.(0);
  for i = 1 to n - 1 do
    let nd = nodes.(i) in
    let e = m1.(nd.parent) +. (nd.res *. down.(i)) in
    m1.(i) <- e;
    m2.(i) <- nd.cap *. e
  done;
  for i = n - 1 downto 1 do
    let p = nodes.(i).parent in
    m2.(p) <- m2.(p) +. m2.(i)
  done;
  m2.(0) <- 0.0 *. m2.(0);
  for i = 1 to n - 1 do
    let nd = nodes.(i) in
    m2.(i) <- m2.(nd.parent) +. (nd.res *. m2.(i))
  done
