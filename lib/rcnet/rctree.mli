(** RC-tree representation of a routed net.

    A tree is an array of nodes in parent-before-child order.  Node 0 is
    the root — the driver output pin; every other node connects to its
    parent through a resistance and carries a grounded capacitance.  Taps
    are the nodes where load-cell input pins attach (their input
    capacitance is added to the node capacitance by the caller). *)

type node = {
  name : string;
  parent : int;  (** index of the parent node; -1 for the root *)
  mutable res : float;  (** resistance to the parent (Ω); 0 for the root *)
  mutable cap : float;  (** grounded capacitance at this node (F) *)
}
(** [res]/[cap] are mutable so a sampling plan can {!refill} a scratch
    tree in place; the type stays [private], so outside this module the
    only writes are through {!refill} and {!bump_cap}. *)

type t = private {
  nodes : node array;
  taps : int array;  (** indices of load-pin nodes *)
  children : int list array;  (** derived adjacency, same length as nodes *)
}

val create : nodes:node array -> taps:int array -> t
(** Validate and build.  Requirements: node 0 is the unique root
    ([parent = -1], [res = 0]); every other node's parent precedes it;
    resistances positive and capacitances non-negative; every tap index
    valid. @raise Invalid_argument otherwise. *)

val n_nodes : t -> int

val total_cap : t -> float
(** Sum of all grounded capacitances (F). *)

val total_res : t -> float
(** Sum of all segment resistances (Ω). *)

val add_cap : t -> int -> float -> t
(** [add_cap t i c] returns a tree with [c] added at node [i] — how load
    pin capacitance is attached. *)

val scale : t -> res_factor:float -> cap_factor:float -> t
(** Uniformly scale all R and C — used for process-variation samples. *)

val map_segments :
  t -> (int -> node -> float * float) -> t
(** [map_segments t f] rebuilds the tree with per-node (res, cap) returned
    by [f index node] — used for per-segment variation. *)

val copy : t -> t
(** A tree whose node records are owned by the caller — the target for
    the in-place operations below.  Taps and children stay shared (they
    are never mutated). *)

val refill : t -> res:float array -> cap:float array -> unit
(** Overwrite every node's R and C in place from the given arrays —
    the allocation-free counterpart of {!map_segments} for per-sample
    variation.  Only call on trees obtained from {!copy}: functional
    constructors such as {!add_cap} share node records between trees,
    and refilling a shared tree would corrupt its siblings.
    @raise Invalid_argument on length mismatch, or on any value
    {!create} rejects: nonzero root resistance, a non-positive segment
    resistance or a negative capacitance. *)

val bump_cap : t -> int -> float -> unit
(** [bump_cap t i c] adds [c] at node [i] in place — {!add_cap} for
    owned scratch trees.  Same ownership caveat as {!refill}. *)

val path_to_root : t -> int -> int list
(** Node indices from the given node up to (and including) the root. *)

val downstream_cap : t -> float array
(** Per-node capacitance of the subtree rooted there (including self). *)

val ladder : segments:int -> res_per_seg:float -> cap_per_seg:float -> t
(** Uniform RC ladder with a single tap at the far end; node capacitance
    is split half at each segment end in the usual π fashion. *)

val pp : Format.formatter -> t -> unit
