(* Tests for the RC-network substrate: tree invariants, Elmore/D2M
   analytics on hand-computable cases, SPEF round-trips, generators. *)

module Rctree = Nsigma_rcnet.Rctree
module Elmore = Nsigma_rcnet.Elmore
module Spef = Nsigma_rcnet.Spef
module Wire_gen = Nsigma_rcnet.Wire_gen
module T = Nsigma_process.Technology
module Variation = Nsigma_process.Variation
module Rng = Nsigma_stats.Rng

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let tech = T.default_28nm

let simple_chain () =
  (* root -(R1=100)- n1(C=1f) -(R2=200)- n2(C=2f), tap at n2. *)
  Rctree.create
    ~nodes:
      [|
        { Rctree.name = "root"; parent = -1; res = 0.0; cap = 0.5e-15 };
        { Rctree.name = "n1"; parent = 0; res = 100.0; cap = 1e-15 };
        { Rctree.name = "n2"; parent = 1; res = 200.0; cap = 2e-15 };
      |]
    ~taps:[| 2 |]

let branched () =
  (* root - n1 - {n2, n3}: two leaves. *)
  Rctree.create
    ~nodes:
      [|
        { Rctree.name = "root"; parent = -1; res = 0.0; cap = 0.0 };
        { Rctree.name = "n1"; parent = 0; res = 100.0; cap = 1e-15 };
        { Rctree.name = "n2"; parent = 1; res = 50.0; cap = 2e-15 };
        { Rctree.name = "n3"; parent = 1; res = 80.0; cap = 3e-15 };
      |]
    ~taps:[| 2; 3 |]

let test_create_validates () =
  Alcotest.check_raises "child before parent"
    (Invalid_argument "Rctree.create: parents must precede children") (fun () ->
      ignore
        (Rctree.create
           ~nodes:
             [|
               { Rctree.name = "root"; parent = -1; res = 0.0; cap = 0.0 };
               { Rctree.name = "bad"; parent = 5; res = 1.0; cap = 0.0 };
             |]
           ~taps:[||]));
  Alcotest.check_raises "negative resistance"
    (Invalid_argument "Rctree.create: segment resistance must be positive")
    (fun () ->
      ignore
        (Rctree.create
           ~nodes:
             [|
               { Rctree.name = "root"; parent = -1; res = 0.0; cap = 0.0 };
               { Rctree.name = "n"; parent = 0; res = -2.0; cap = 0.0 };
             |]
           ~taps:[||]))

let test_totals () =
  let t = simple_chain () in
  check_close "total cap" 3.5e-15 (Rctree.total_cap t);
  check_close "total res" 300.0 (Rctree.total_res t)

let test_downstream_cap () =
  let t = branched () in
  let down = Rctree.downstream_cap t in
  check_close "root sees all" 6e-15 down.(0);
  check_close "n1 subtree" 6e-15 down.(1);
  check_close "leaf n2" 2e-15 down.(2)

let test_path_to_root () =
  let t = branched () in
  Alcotest.(check (list int)) "path from n3" [ 3; 1; 0 ] (Rctree.path_to_root t 3)

let test_add_cap () =
  let t = simple_chain () in
  let t2 = Rctree.add_cap t 2 1e-15 in
  check_close "added" (Rctree.total_cap t +. 1e-15) (Rctree.total_cap t2)

let test_scale () =
  let t = simple_chain () in
  let t2 = Rctree.scale t ~res_factor:2.0 ~cap_factor:0.5 in
  check_close "res doubled" 600.0 (Rctree.total_res t2);
  check_close "cap halved" 1.75e-15 (Rctree.total_cap t2)

let test_elmore_hand_computed () =
  (* Chain: T(n2) = R1·(C1+C2) + R2·C2 = 100·3f + 200·2f = 700 fs. *)
  let t = simple_chain () in
  check_close ~eps:1e-12 "chain Elmore" 700e-15 (Elmore.delay_to_tap t)

let test_elmore_branched () =
  (* T(n2) = R1·(C1+C2+C3) + R2·C2 = 100·6f + 50·2f = 700fs.
     T(n3) = 100·6f + 80·3f = 840fs. *)
  let t = branched () in
  let d = Elmore.delays t in
  check_close ~eps:1e-12 "tap n2" 700e-15 d.(2);
  check_close ~eps:1e-12 "tap n3" 840e-15 d.(3)

let test_elmore_driver_res () =
  let t = simple_chain () in
  let base = Elmore.delay_to_tap t in
  let with_drv = Elmore.delay_to_tap ~driver_res:1000.0 t in
  (* Driver resistance adds R_drv · C_total. *)
  check_close ~eps:1e-12 "driver term" (base +. (1000.0 *. 3.5e-15)) with_drv

let test_second_moment_positive () =
  let t = simple_chain () in
  let m2 = Elmore.second_moments t in
  Alcotest.(check bool) "m2 positive at tap" true (m2.(2) > 0.0)

let test_d2m_below_elmore () =
  (* D2M is known to underestimate relative to Elmore on RC chains. *)
  let t = simple_chain () in
  let d2m = Elmore.d2m_at t 2 and elm = Elmore.delay_at t 2 in
  Alcotest.(check bool) "0 < D2M <= Elmore" true (d2m > 0.0 && d2m <= elm)

(* Trees of every shape the wire loops see, loaded and varied: the
   hand-built cases, ladders, random routes and fanout nets. *)
let fused_cases () =
  let g = Rng.create ~seed:95 in
  let random = List.init 12 (fun _ -> Wire_gen.random_tree tech Wire_gen.default_spec g) in
  let fanout = List.map (fun f -> Wire_gen.for_fanout tech ~fanout:f g) [ 1; 2; 5; 12 ] in
  let varied =
    List.map
      (fun t ->
        let t = Wire_gen.vary tech (Variation.draw tech g) t in
        Array.fold_left (fun t tap -> Rctree.add_cap t tap 0.7e-15) t t.Rctree.taps)
      (random @ fanout)
  in
  [ simple_chain (); branched ();
    Rctree.ladder ~segments:9 ~res_per_seg:40.0 ~cap_per_seg:0.3e-15 ]
  @ random @ fanout @ varied

let bits = Array.map Int64.bits_of_float

let test_fused_moments_bitwise () =
  (* One oversized scratch for every tree: only the first n entries are
     written. *)
  let down = Array.make 64 0.0 and m1 = Array.make 64 0.0 and m2 = Array.make 64 0.0 in
  List.iteri
    (fun k t ->
      let n = Rctree.n_nodes t in
      Elmore.moments_into t ~down ~m1 ~m2;
      let what name = Printf.sprintf "case %d: %s" k name in
      Alcotest.(check (array int64)) (what "downstream cap")
        (bits (Rctree.downstream_cap t)) (bits (Array.sub down 0 n));
      Alcotest.(check (array int64)) (what "elmore")
        (bits (Elmore.delays t)) (bits (Array.sub m1 0 n));
      Alcotest.(check (array int64)) (what "second moment")
        (bits (Elmore.second_moments t)) (bits (Array.sub m2 0 n));
      for i = 0 to n - 1 do
        Alcotest.(check int64) (what "d2m")
          (Int64.bits_of_float (Elmore.d2m_at t i))
          (Int64.bits_of_float (Elmore.d2m ~m1:m1.(i) ~m2:m2.(i)))
      done)
    (fused_cases ());
  Alcotest.check_raises "short scratch"
    (Invalid_argument "Elmore.moments_into: scratch shorter than the tree")
    (fun () ->
      Elmore.moments_into (simple_chain ()) ~down:[| 0.0 |] ~m1 ~m2)

(* A refilled tree must pass the value checks [create] applies, so the
   in-place sampling path rejects exactly what the rebuild-per-sample
   path did. *)
let test_refill_validates () =
  let t = Rctree.copy (simple_chain ()) in
  let res = [| 0.0; 100.0; 200.0 |] and cap = [| 0.5e-15; 1e-15; 2e-15 |] in
  Rctree.refill t ~res ~cap;
  Alcotest.check_raises "zero segment resistance"
    (Invalid_argument "Rctree.refill: segment resistance must be positive")
    (fun () -> Rctree.refill t ~res:[| 0.0; 0.0; 200.0 |] ~cap);
  Alcotest.check_raises "negative capacitance"
    (Invalid_argument "Rctree.refill: negative capacitance") (fun () ->
      Rctree.refill t ~res ~cap:[| 0.5e-15; -1e-15; 2e-15 |]);
  Alcotest.check_raises "root resistance"
    (Invalid_argument "Rctree.refill: root resistance must be 0") (fun () ->
      Rctree.refill t ~res:[| 1.0; 100.0; 200.0 |] ~cap)

(* One wire mini-MC sample — draw the outcome, refill the scratch tree,
   attach the pins, run the fused moment pass, read D2M and Elmore at
   every tap — allocates only around its float-valued calls: the
   outcome (derived generator, globals, local stream), then per varied
   segment two deviates of at most 6 words each (the gaussian's boxed
   result, the scaled deviate's, and the boxed sigma argument where
   cross-module inlining is off), and per tap the D2M call's boxed
   arguments and result.  The moment pass itself allocates nothing.
   The rebuild-per-sample pipeline this replaced allocated about 3,600
   words per sample on this net. *)
let test_wire_sample_allocation () =
  let g = Rng.create ~seed:96 in
  let base = Wire_gen.for_fanout tech ~fanout:8 g in
  let n = Rctree.n_nodes base in
  let tree = Rctree.copy base in
  let res = Array.make n 0.0 and cap = Array.make n 0.0 in
  let down = Array.make n 0.0 and m1 = Array.make n 0.0 and m2 = Array.make n 0.0 in
  let taps = base.Rctree.taps in
  let n_taps = Array.length taps in
  let sums = Array.make (2 * n_taps) 0.0 in
  let sample i =
    let v = Variation.draw tech (Rng.derive g ~index:i) in
    Wire_gen.vary_into tech v ~base ~into:tree ~res ~cap;
    for j = 0 to n_taps - 1 do
      Rctree.bump_cap tree taps.(j) 0.7e-15
    done;
    Elmore.moments_into tree ~down ~m1 ~m2;
    for j = 0 to n_taps - 1 do
      let tap = taps.(j) in
      sums.(j) <- sums.(j) +. Elmore.d2m ~m1:m1.(tap) ~m2:m2.(tap);
      sums.(n_taps + j) <- sums.(n_taps + j) +. m1.(tap)
    done
  in
  sample 0;
  let samples = 200 in
  let before = Gc.minor_words () in
  for i = 1 to samples do
    sample i
  done;
  let per_sample = (Gc.minor_words () -. before) /. float_of_int samples in
  let bound = float_of_int ((12 * (n - 1)) + 64 + (8 * n_taps)) in
  if per_sample > bound then
    Alcotest.failf "one wire sample allocates %.1f words (bound %.0f)"
      per_sample bound

let test_ladder_properties () =
  let t = Rctree.ladder ~segments:10 ~res_per_seg:100.0 ~cap_per_seg:1e-15 in
  Alcotest.(check int) "nodes" 11 (Rctree.n_nodes t);
  check_close "total res" 1000.0 (Rctree.total_res t);
  check_close "total cap" 10e-15 (Rctree.total_cap t);
  (* Distributed-line Elmore ≈ RC/2 for many segments. *)
  let e = Elmore.delay_to_tap t in
  check_close ~eps:0.06 "≈ RC/2" (1000.0 *. 10e-15 /. 2.0) e

let test_spef_roundtrip_chain () =
  let t = branched () in
  let text = Spef.to_string ~name:"net1" t in
  match Spef.of_string text with
  | [ (name, t2) ] ->
    Alcotest.(check string) "name" "net1" name;
    check_close "cap preserved" (Rctree.total_cap t) (Rctree.total_cap t2);
    check_close "res preserved" (Rctree.total_res t) (Rctree.total_res t2);
    check_close "elmore preserved" (Elmore.delays t).(3)
      (Elmore.delays t2).(Array.length t2.Rctree.nodes - 1);
    Alcotest.(check int) "taps preserved" 2 (Array.length t2.Rctree.taps)
  | _ -> Alcotest.fail "expected exactly one net"

let test_spef_multiple_nets () =
  let t1 = simple_chain () and t2 = branched () in
  let text = Spef.to_string ~name:"a" t1 ^ Spef.to_string ~name:"b" t2 in
  let nets = Spef.of_string text in
  Alcotest.(check int) "two nets" 2 (List.length nets)

let test_spef_rejects_garbage () =
  Alcotest.(check bool) "raises on garbage" true
    (try
       ignore (Spef.of_string "*D_NET x\nnonsense line here\n*END\n");
       false
     with Failure _ -> true)

let test_random_tree_structure () =
  let g = Rng.create ~seed:91 in
  for _ = 1 to 20 do
    let t = Wire_gen.random_tree tech Wire_gen.default_spec g in
    Alcotest.(check bool) "has taps" true (Array.length t.Rctree.taps > 0);
    Alcotest.(check bool) "positive parasitics" true
      (Rctree.total_res t > 0.0 && Rctree.total_cap t > 0.0)
  done

let test_point_to_point_length () =
  let t = Wire_gen.point_to_point tech ~length_um:100.0 ~segments:10 in
  check_close ~eps:1e-9 "R = r/um * len" (tech.T.wire_res_per_um *. 100.0)
    (Rctree.total_res t);
  check_close ~eps:1e-9 "C = c/um * len" (tech.T.wire_cap_per_um *. 100.0)
    (Rctree.total_cap t)

let test_vary_perturbs_but_preserves_structure () =
  let g = Rng.create ~seed:92 in
  let t = Wire_gen.point_to_point tech ~length_um:50.0 ~segments:5 in
  let sample = Variation.draw tech g in
  let t2 = Wire_gen.vary tech sample t in
  Alcotest.(check int) "same node count" (Rctree.n_nodes t) (Rctree.n_nodes t2);
  Alcotest.(check bool) "R changed" true
    (Rctree.total_res t2 <> Rctree.total_res t);
  Alcotest.(check bool) "R within clip bounds" true
    (Rctree.total_res t2 > 0.5 *. Rctree.total_res t
    && Rctree.total_res t2 < 1.5 *. Rctree.total_res t)

let test_vary_nominal_identity () =
  let t = Wire_gen.point_to_point tech ~length_um:50.0 ~segments:5 in
  let t2 = Wire_gen.vary tech Variation.nominal t in
  check_close "nominal sample leaves R" (Rctree.total_res t) (Rctree.total_res t2);
  check_close "nominal sample leaves C" (Rctree.total_cap t) (Rctree.total_cap t2)

let test_for_fanout_taps () =
  let g = Rng.create ~seed:93 in
  List.iter
    (fun fanout ->
      let t = Wire_gen.for_fanout tech ~fanout g in
      Alcotest.(check int) "one tap per sink" fanout (Array.length t.Rctree.taps))
    [ 1; 2; 5; 12 ]

let test_for_fanout_bounded_length () =
  let g = Rng.create ~seed:94 in
  let t1 = Wire_gen.for_fanout tech ~fanout:1 g in
  let t16 = Wire_gen.for_fanout tech ~fanout:16 g in
  (* Total backbone length is bounded regardless of fanout; allow stubs. *)
  Alcotest.(check bool) "high fanout not 16x longer" true
    (Rctree.total_res t16 < 4.0 *. Rctree.total_res t1 +. 2000.0)

let () =
  Alcotest.run "nsigma_rcnet"
    [
      ( "rctree",
        [
          Alcotest.test_case "validation" `Quick test_create_validates;
          Alcotest.test_case "totals" `Quick test_totals;
          Alcotest.test_case "downstream cap" `Quick test_downstream_cap;
          Alcotest.test_case "path to root" `Quick test_path_to_root;
          Alcotest.test_case "add_cap" `Quick test_add_cap;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "ladder" `Quick test_ladder_properties;
          Alcotest.test_case "refill validates" `Quick test_refill_validates;
        ] );
      ( "elmore",
        [
          Alcotest.test_case "hand-computed chain" `Quick test_elmore_hand_computed;
          Alcotest.test_case "branched" `Quick test_elmore_branched;
          Alcotest.test_case "driver resistance" `Quick test_elmore_driver_res;
          Alcotest.test_case "second moment" `Quick test_second_moment_positive;
          Alcotest.test_case "d2m" `Quick test_d2m_below_elmore;
          Alcotest.test_case "fused moments bitwise" `Quick
            test_fused_moments_bitwise;
          Alcotest.test_case "wire sample allocation" `Quick
            test_wire_sample_allocation;
        ] );
      ( "spef",
        [
          Alcotest.test_case "roundtrip" `Quick test_spef_roundtrip_chain;
          Alcotest.test_case "multiple nets" `Quick test_spef_multiple_nets;
          Alcotest.test_case "rejects garbage" `Quick test_spef_rejects_garbage;
        ] );
      ( "wire_gen",
        [
          Alcotest.test_case "random tree" `Quick test_random_tree_structure;
          Alcotest.test_case "point to point" `Quick test_point_to_point_length;
          Alcotest.test_case "vary perturbs" `Quick test_vary_perturbs_but_preserves_structure;
          Alcotest.test_case "vary nominal" `Quick test_vary_nominal_identity;
          Alcotest.test_case "fanout taps" `Quick test_for_fanout_taps;
          Alcotest.test_case "bounded length" `Quick test_for_fanout_bounded_length;
        ] );
    ]
