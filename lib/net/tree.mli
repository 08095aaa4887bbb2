(** IP multicast tree topology.

    Nodes are dense integer ids [0 .. n_nodes - 1]; node 0 is always the
    root (the transmission source). Interior nodes model multicast
    routers; leaves model receivers. Every non-root node has exactly one
    parent, so each tree {e link} is identified by the id of its child
    endpoint: link [v] is the edge [parent v -- v].

    This matches the paper's model (Section 4.1): a static tree
    [T = (N, s, L)] whose leaves are exactly the receiver set [R]. *)

type t

val of_parents : int array -> t
(** [of_parents p] builds the tree in which node [v]'s parent is
    [p.(v)], with [p.(0) = -1] for the root.
    @raise Invalid_argument if the array does not describe a tree rooted
    at node 0 (cycle, bad parent index, or root not 0). *)

val n_nodes : t -> int

val root : t -> int
(** Always [0]. *)

val parent : t -> int -> int
(** [-1] for the root. *)

val children : t -> int -> int list

val depth : t -> int -> int
(** Link-count distance from the root. *)

val height : t -> int
(** Maximum node depth — the paper's "tree depth". *)

val is_leaf : t -> int -> bool

val receivers : t -> int array
(** Leaf ids in increasing order. The root is never a receiver. *)

val n_receivers : t -> int

val links : t -> int array
(** All link ids (= all non-root node ids) in increasing order. *)

val neighbors : t -> int -> int list
(** Parent (if any) followed by children. *)

val lca : t -> int -> int -> int
(** Lowest common ancestor. *)

val hops : t -> int -> int -> int
(** Path length in links between two nodes. *)

val path : t -> int -> int -> int list
(** The node sequence from [u] to [v], inclusive of both. *)

val on_path_links : t -> int -> int -> int list
(** The links crossed when walking from [u] to [v] (as link ids). *)

val is_ancestor : t -> int -> int -> bool
(** [is_ancestor t a v] — is [a] an ancestor of [v] (or [v] itself)? *)

val subtree_nodes : t -> int -> int list
(** All nodes at or below the given node, preorder. *)

val subtree_receivers : t -> int -> int list
(** Receivers at or below the given node, increasing order. *)

type cell = { mutable d : float }
(** A caller-owned float cell: {!dist} writes its answer here, so the
    float is never boxed on its way back. *)

val dist : t -> delays:float array -> scratch:int array -> cell -> int -> int -> unit
(** [dist t ~delays ~scratch cell u v] writes the one-way latency
    between [u] and [v] into [cell]: the sum of [delays.(l)] over
    {!on_path_links}[ t u v], added in that order (the [u] side
    bottom-up, then the [v] side top-down), so it is bit-identical to
    folding over that list from [0.]. [scratch] holds the [v] side; its
    length must be at least {!height}. Allocates nothing. *)

val distance_matrix : t -> delays:float array -> float array array
(** All-pairs one-way latencies; [m.(u).(v)]. *)

(* Constructors for tests and examples. *)

val line : int -> t
(** [line n]: a chain of [n] nodes; single receiver at the end. *)

val star : int -> t
(** [star r]: root with [r] leaf children. *)

val balanced : fanout:int -> depth:int -> t
(** Perfect [fanout]-ary tree of the given height. *)

val pp : Format.formatter -> t -> unit
(** Render as an indented outline. *)

val equal : t -> t -> bool
