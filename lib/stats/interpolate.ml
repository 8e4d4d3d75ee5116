let linear ~x0 ~y0 ~x1 ~y1 x =
  if x1 = x0 then y0 else y0 +. ((x -. x0) *. (y1 -. y0) /. (x1 -. x0))

(* One bilinear formula for every table lookup.  [segment]/[frac]/[upper]
   bracket a coordinate on one axis; [blend] weighs the four corners.
   Grid2d and the LVF lookups share them, so they agree bit for bit. *)

(* Segment index such that axis.(i) <= v <= axis.(i+1), clamped.  The
   annotations keep the compares on unboxed floats and ints. *)
let[@inline] segment (axis : float array) (v : float) =
  let n = Array.length axis in
  if n = 1 || v <= axis.(0) then 0
  else if v >= axis.(n - 1) then n - 2
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if axis.(mid) <= v then lo := mid else hi := mid
    done;
    !lo
  end

let[@inline] upper (axis : float array) i =
  let last = Array.length axis - 1 in
  if i < last then i + 1 else last

let[@inline] frac (axis : float array) i (v : float) =
  let n = Array.length axis in
  if n = 1 then 0.0
  else begin
    let a = axis.(i) and b = axis.(upper axis i) in
    if b = a then 0.0 else Float.max 0.0 (Float.min 1.0 ((v -. a) /. (b -. a)))
  end

let[@inline] blend ~fx ~fy v00 v01 v10 v11 : float =
  ((1.0 -. fx) *. (1.0 -. fy) *. v00)
  +. ((1.0 -. fx) *. fy *. v01)
  +. (fx *. (1.0 -. fy) *. v10)
  +. (fx *. fy *. v11)

let bilinear ~xs ~ys cells get x y =
  let i = segment xs x and j = segment ys y in
  let fx = frac xs i x and fy = frac ys j y in
  let i1 = upper xs i and j1 = upper ys j in
  blend ~fx ~fy
    (get cells.(i).(j))
    (get cells.(i).(j1))
    (get cells.(i1).(j))
    (get cells.(i1).(j1))

let check_increasing name a =
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then
      invalid_arg (Printf.sprintf "%s axis not strictly increasing" name)
  done

let check_grid ~x_name ~y_name ~xs ~ys rows =
  if Array.length xs = 0 || Array.length ys = 0 then invalid_arg "empty axis";
  check_increasing x_name xs;
  check_increasing y_name ys;
  if Array.length rows <> Array.length xs then
    invalid_arg
      (Printf.sprintf "%d rows for %d %s knots" (Array.length rows)
         (Array.length xs) x_name);
  Array.iteri
    (fun i row ->
      if Array.length row <> Array.length ys then
        invalid_arg
          (Printf.sprintf "row %d has %d columns for %d %s knots" i
             (Array.length row) (Array.length ys) y_name))
    rows

module Grid2d = struct
  type t = { xs : float array; ys : float array; values : float array array }

  let create ~xs ~ys ~values =
    (try check_grid ~x_name:"x" ~y_name:"y" ~xs ~ys values
     with Invalid_argument msg -> invalid_arg ("Grid2d.create: " ^ msg));
    { xs; ys; values }

  let eval t x y =
    let i = segment t.xs x and j = segment t.ys y in
    let fx = frac t.xs i x and fy = frac t.ys j y in
    let i1 = upper t.xs i and j1 = upper t.ys j in
    let v = t.values in
    blend ~fx ~fy v.(i).(j) v.(i).(j1) v.(i1).(j) v.(i1).(j1)

  let xs t = t.xs
  let ys t = t.ys
  let values t = t.values
end

module Surface = struct
  type t = { features : float -> float -> float array; fit : Regression.fit }

  let bilinear_features ds dc = [| 1.0; ds; dc; ds *. dc |]

  let cubic_features ds dc =
    [| 1.0; ds; dc; ds *. ds; dc *. dc; ds *. ds *. ds; dc *. dc *. dc; ds *. dc |]

  let fit_features features ~points ~values =
    if Array.length points <> Array.length values then
      invalid_arg "Surface: points/values size mismatch";
    let design = Array.map (fun (ds, dc) -> features ds dc) points in
    { features; fit = Regression.fit ~design ~target:values }

  let fit_bilinear ~points ~values = fit_features bilinear_features ~points ~values
  let fit_cubic ~points ~values = fit_features cubic_features ~points ~values

  let eval t ds dc = Regression.predict t.fit (t.features ds dc)
  let coefficients t = t.fit.Regression.coeffs
  let r2 t = t.fit.Regression.r2
end
