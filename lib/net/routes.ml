type order = {
  nodes : int array;
  prevs : int array;
  links : int array;
  skips : int array;
  cum : float array;
}

type path = { hops : int array; plinks : int array; pdowns : bool array }

(* Orders are pure functions of the (static) tree, so caching is a
   time/space trade only: evicting and rebuilding an entry yields the
   same arrays and therefore the same simulation. Unbounded per-origin
   memoization was O(n) orders of O(n) entries each — every member
   multicasts session packets, so at 10^4 nodes the flood cache alone
   approached gigabytes. Instead: origin 0 (the data source, by far
   the hottest origin) is pinned forever, and other origins share a
   FIFO of [cache_capacity] slots. *)
let cache_capacity = 64

type cache = {
  tbl : (int, order) Hashtbl.t;
  fifo : int Queue.t; (* insertion order of the evictable (non-0) keys *)
  (* The order evicted last: its arrays are refilled by the next build
     of the same length instead of lingering as major-heap garbage.
     Flood orders all have n_nodes - 1 entries, so once the FIFO is
     full a flood rebuild allocates nothing (164 KB per rebuild at 4096
     nodes, thousands of rebuilds per run). *)
  mutable spare : order option;
}

let cache_create () = { tbl = Hashtbl.create 64; fifo = Queue.create (); spare = None }

(* Make room for [key] — evicting the oldest entry into [spare] when
   the FIFO is full — before its order is built, so the build can
   reuse the evicted arrays. No walk holds an order across a lookup,
   so the evicted one is free. *)
let cache_reserve c key =
  if key <> 0 then begin
    if Queue.length c.fifo >= cache_capacity then begin
      let victim = Queue.pop c.fifo in
      c.spare <- Hashtbl.find_opt c.tbl victim;
      Hashtbl.remove c.tbl victim
    end;
    Queue.push key c.fifo
  end

(* The spare, when it has exactly [n_entries] entries. *)
let take_spare c ~n_entries =
  match c.spare with
  | Some o when Array.length o.nodes = n_entries ->
      c.spare <- None;
      Some o
  | _ -> None

(* LCA paths are cheap to rebuild, so the path cache is simply reset
   when it fills rather than tracking eviction order. *)
let paths_capacity = 4096

type t = {
  tree : Tree.t;
  delays : float array;
  neighbors : int array array;
  children : int array array;
  sizes : int array; (* subtree node counts *)
  floods : cache; (* per multicast origin *)
  downs : cache; (* per subcast root *)
  paths : (int, path) Hashtbl.t; (* key: src * n_nodes + dst *)
}

let empty_order = { nodes = [||]; prevs = [||]; links = [||]; skips = [||]; cum = [||] }

let create ~tree ~delays =
  let n = Tree.n_nodes tree in
  if Array.length delays <> n then invalid_arg "Routes.create: delays size";
  let children = Array.init n (fun v -> Array.of_list (Tree.children tree v)) in
  let neighbors =
    Array.init n (fun v ->
        if v = 0 then children.(v)
        else Array.append [| Tree.parent tree v |] children.(v))
  in
  let sizes = Array.make n 1 in
  (* Children DFS; every node id is visited once, so an explicit
     post-order accumulation over a preorder stack is enough. *)
  let rec accumulate v =
    Array.iter
      (fun c ->
        accumulate c;
        sizes.(v) <- sizes.(v) + sizes.(c))
      children.(v)
  in
  accumulate 0;
  {
    tree;
    delays;
    neighbors;
    children;
    sizes;
    floods = cache_create ();
    downs = cache_create ();
    paths = Hashtbl.create 64;
  }

let tree t = t.tree

let neighbors t v = t.neighbors.(v)

let children t v = t.children.(v)

let subtree_size t v = t.sizes.(v)

(* Shared DFS-preorder builder. [succ v prev] enumerates the nodes to
   enter from [v], in the exact order the former recursive list walk
   visited them, so packet-level event ordering is preserved. *)
let build_order ?into ~n_entries ~roots ~origin ~succ t =
  (* Every entry is written below, so a recycled order of the right
     length needs no clearing. *)
  let { nodes; prevs; links; skips; cum } =
    match into with
    | Some o -> o
    | None ->
        {
          nodes = Array.make n_entries 0;
          prevs = Array.make n_entries 0;
          links = Array.make n_entries 0;
          skips = Array.make n_entries 0;
          cum = Array.make n_entries 0.;
        }
  in
  let idx = ref 0 in
  let rec visit ~prev ~acc v =
    let i = !idx in
    incr idx;
    let link = if Tree.parent t.tree v = prev then v else prev in
    let acc = acc +. t.delays.(link) in
    nodes.(i) <- v;
    prevs.(i) <- prev;
    links.(i) <- link;
    cum.(i) <- acc;
    Array.iter (fun nb -> if nb <> v && nb <> prev then visit ~prev:v ~acc nb) (succ v);
    skips.(i) <- !idx - i
  in
  Array.iter (fun r -> if r <> origin then visit ~prev:origin ~acc:0. r) roots;
  assert (!idx = n_entries);
  { nodes; prevs; links; skips; cum }

let flood_order t origin =
  match Hashtbl.find_opt t.floods.tbl origin with
  | Some o -> o
  | None ->
      cache_reserve t.floods origin;
      let n_entries = Tree.n_nodes t.tree - 1 in
      let o =
        build_order t ?into:(take_spare t.floods ~n_entries) ~n_entries
          ~roots:t.neighbors.(origin) ~origin
          ~succ:(fun v -> t.neighbors.(v))
      in
      Hashtbl.replace t.floods.tbl origin o;
      o

let down_order t root =
  match Hashtbl.find_opt t.downs.tbl root with
  | Some o -> o
  | None ->
      cache_reserve t.downs root;
      let n_entries = t.sizes.(root) - 1 in
      let o =
        if n_entries = 0 then empty_order
        else
          build_order t ?into:(take_spare t.downs ~n_entries) ~n_entries ~roots:t.children.(root)
            ~origin:root
            ~succ:(fun v -> t.children.(v))
      in
      Hashtbl.replace t.downs.tbl root o;
      o

let build_path t ~src ~dst =
  match Tree.path t.tree src dst with
  | [] | [ _ ] -> { hops = [||]; plinks = [||]; pdowns = [||] }
  | _ :: hops_list ->
      let hops = Array.of_list hops_list in
      let n = Array.length hops in
      let plinks = Array.make n 0 in
      let pdowns = Array.make n false in
      let prev = ref src in
      for i = 0 to n - 1 do
        let next = hops.(i) in
        let down = Tree.parent t.tree next = !prev in
        plinks.(i) <- (if down then next else !prev);
        pdowns.(i) <- down;
        prev := next
      done;
      { hops; plinks; pdowns }

let path t ~src ~dst =
  let key = (src * Tree.n_nodes t.tree) + dst in
  match Hashtbl.find_opt t.paths key with
  | Some p -> p
  | None ->
      if Hashtbl.length t.paths >= paths_capacity then Hashtbl.reset t.paths;
      let p = build_path t ~src ~dst in
      Hashtbl.replace t.paths key p;
      p
