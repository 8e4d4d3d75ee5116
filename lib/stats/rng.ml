(* The whole generator lives in one unboxed byte buffer: the four
   xoshiro256++ state words at byte offsets 0/8/16/24, the cached second
   deviate of the polar method at 32 and its presence flag at 40.  The
   [%caml_bytes_get64]/[%caml_bytes_set64] primitives read and write the
   words without boxing, so drawing allocates nothing (int64 record
   fields or a [float option] spare would box on every step), and a
   derived child is a single small block. *)
type t = Bytes.t

let spare_off = 32
let flag_off = 40
let size = 41

let[@inline] word g i = Bytes.get_int64_ne g (8 * i)
let[@inline] set_word g i x = Bytes.set_int64_ne g (8 * i) x

let[@inline] make s0 s1 s2 s3 =
  let g = Bytes.make size '\000' in
  set_word g 0 s0;
  set_word g 1 s1;
  set_word g 2 s2;
  set_word g 3 s3;
  g

(* splitmix64 (Steele et al., 2014): used to expand the user seed into
   four state words, and to derive child seeds in [split]/[derive].  One
   step advances the state by the golden gamma and returns [mix] of the
   advanced state; the callers thread the state explicitly so no step
   allocates. *)
let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Four consecutive splitmix64 outputs from state [st]. *)
let[@inline] expand st =
  let a = Int64.add st gamma in
  let b = Int64.add a gamma in
  let c = Int64.add b gamma in
  let d = Int64.add c gamma in
  make (mix a) (mix b) (mix c) (mix d)

let create ~seed = expand (Int64.of_int seed)

let copy g = Bytes.copy g

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step.  Inlined into every draw below so the state
   words stay unboxed end to end; only the public [bits64] boxes its
   result. *)
let[@inline] next g =
  let s0 = word g 0 and s1 = word g 1 and s2 = word g 2 and s3 = word g 3 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 t in
  let s3 = rotl s3 45 in
  set_word g 0 s0;
  set_word g 1 s1;
  set_word g 2 s2;
  set_word g 3 s3;
  result

let bits64 g = next g

let split g = expand (next g)

let derive g ~index =
  if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
  (* Hash the index, then fold each parent state word into the seeding
     stream so distinct parents and distinct indices both decorrelate.
     [g] is not advanced: the child depends only on (state, index), which
     is what makes index-addressed parallel sampling order-independent. *)
  let a = Int64.add (Int64.of_int index) gamma in
  let b = Int64.add (Int64.logxor (mix a) (word g 0)) gamma in
  let c = Int64.add (Int64.logxor b (word g 1)) gamma in
  let d = Int64.add (Int64.logxor c (word g 2)) gamma in
  let e = Int64.add (Int64.logxor d (word g 3)) gamma in
  make (mix b) (mix c) (mix d) (mix e)

(* 53-bit mantissa of the raw output, mapped to [0,1). *)
let[@inline] uniform g =
  let x = Int64.shift_right_logical (next g) 11 in
  Int64.to_float x *. 0x1.0p-53

let float g b = uniform g *. b

let uniform_range g ~lo ~hi = lo +. (uniform g *. (hi -. lo))

let int g n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is < 2^-40 for n < 2^24,
     which is far below Monte-Carlo noise; use masked rejection anyway. *)
  let rec go () =
    let x = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
    let x = x land max_int in
    let r = x mod n in
    if x - r + (n - 1) < 0 then go () else r
  in
  go ()

let gaussian g =
  if Bytes.unsafe_get g flag_off <> '\000' then begin
    Bytes.unsafe_set g flag_off '\000';
    Int64.float_of_bits (Bytes.get_int64_ne g spare_off)
  end
  else begin
    (* Polar rejection: u before v, redraw until 0 < s < 1. *)
    let u = ref 0.0 and v = ref 0.0 and s = ref 1.0 in
    while !s >= 1.0 || !s = 0.0 do
      u := (2.0 *. uniform g) -. 1.0;
      v := (2.0 *. uniform g) -. 1.0;
      s := (!u *. !u) +. (!v *. !v)
    done;
    let m = sqrt (-2.0 *. log !s /. !s) in
    Bytes.set_int64_ne g spare_off (Int64.bits_of_float (!v *. m));
    Bytes.unsafe_set g flag_off '\001';
    !u *. m
  end

let gaussian_mu_sigma g ~mu ~sigma = mu +. (sigma *. gaussian g)

let lognormal g ~mu ~sigma = exp (gaussian_mu_sigma g ~mu ~sigma)

let exponential g ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log1p (-.uniform g) /. rate

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int g (Array.length a))
