type t = {
  parent : int array;
  children : int list array;
  depth : int array;
  receivers : int array;
}

let n_nodes t = Array.length t.parent

let root _ = 0

let parent t v = t.parent.(v)

let children t v = t.children.(v)

let depth t v = t.depth.(v)

let height t = Array.fold_left max 0 t.depth

let is_leaf t v = t.children.(v) = []

let receivers t = t.receivers

let n_receivers t = Array.length t.receivers

let links t = Array.init (n_nodes t - 1) (fun i -> i + 1)

let neighbors t v =
  if v = 0 then t.children.(v) else t.parent.(v) :: t.children.(v)

let of_parents p =
  let n = Array.length p in
  if n = 0 then invalid_arg "Tree.of_parents: empty";
  if p.(0) <> -1 then invalid_arg "Tree.of_parents: node 0 must be the root";
  for v = 1 to n - 1 do
    if p.(v) < 0 || p.(v) >= n || p.(v) = v then
      invalid_arg "Tree.of_parents: bad parent index"
  done;
  let children = Array.make n [] in
  for v = n - 1 downto 1 do
    children.(p.(v)) <- v :: children.(p.(v))
  done;
  (* Depths double as an acyclicity check: compute by walking to the
     root with a step bound. *)
  let depth = Array.make n (-1) in
  depth.(0) <- 0;
  let rec depth_of v steps =
    if steps > n then invalid_arg "Tree.of_parents: cycle"
    else if depth.(v) >= 0 then depth.(v)
    else begin
      let d = 1 + depth_of p.(v) (steps + 1) in
      depth.(v) <- d;
      d
    end
  in
  for v = 1 to n - 1 do
    ignore (depth_of v 0)
  done;
  let receivers =
    Array.of_list
      (List.filter (fun v -> v <> 0 && children.(v) = []) (List.init n Fun.id))
  in
  if n > 1 && children.(0) = [] then invalid_arg "Tree.of_parents: disconnected root";
  { parent = Array.copy p; children; depth; receivers }

let rec lca t u v =
  if u = v then u
  else if t.depth.(u) > t.depth.(v) then lca t t.parent.(u) v
  else if t.depth.(v) > t.depth.(u) then lca t u t.parent.(v)
  else lca t t.parent.(u) t.parent.(v)

let hops t u v =
  let a = lca t u v in
  t.depth.(u) + t.depth.(v) - (2 * t.depth.(a))

let path t u v =
  let a = lca t u v in
  let rec up x acc = if x = a then x :: acc else up t.parent.(x) (x :: acc) in
  (* [up u []] is the path a..u ; reverse to get u..a, then append a..v
     without repeating [a]. *)
  let u_to_a = List.rev (up u []) in
  let a_to_v = up v [] in
  match a_to_v with [] -> u_to_a | _ :: below_a -> u_to_a @ below_a

let on_path_links t u v =
  let a = lca t u v in
  (* [climb x] accumulates x's entry links from just below [a] down to
     [x]; the u side is crossed upward (reverse that), the v side
     downward. *)
  let rec climb x acc = if x = a then acc else climb t.parent.(x) (x :: acc) in
  List.rev (climb u []) @ climb v []

let is_ancestor t a v =
  let rec walk x = if x = a then true else if x = -1 then false else walk t.parent.(x) in
  walk v

(* Accumulator-passing DFS: builds the preorder reversed in O(subtree)
   and flips it once. *)
let subtree_nodes t v =
  let rec visit acc v = List.fold_left visit (v :: acc) t.children.(v) in
  List.rev (visit [] v)

let subtree_receivers t v =
  List.filter (fun x -> is_leaf t x && x <> 0) (List.sort compare (subtree_nodes t v))

type cell = { mutable d : float }

(* One walk finds the LCA and sums the path: the u side is added as it
   is climbed (bottom-up); the v side is parked in [scratch] and added
   top-down once the walk meets — {!on_path_links}' order, so the float
   is bit-identical to folding over that list. *)
let dist t ~delays ~scratch cell u v =
  let parent = t.parent and depth = t.depth in
  let acc = ref 0. and u = ref u and v = ref v and n = ref 0 in
  while !u <> !v do
    let du = depth.(!u) and dv = depth.(!v) in
    if du >= dv then begin
      acc := !acc +. delays.(!u);
      u := parent.(!u)
    end;
    if dv >= du then begin
      scratch.(!n) <- !v;
      incr n;
      v := parent.(!v)
    end
  done;
  for i = !n - 1 downto 0 do
    acc := !acc +. delays.(scratch.(i))
  done;
  cell.d <- !acc

let distance_matrix t ~delays =
  let n = n_nodes t in
  let scratch = Array.make (height t) 0 and cell = { d = 0. } in
  Array.init n (fun u ->
      Array.init n (fun v ->
          dist t ~delays ~scratch cell u v;
          cell.d))

let line n =
  if n < 1 then invalid_arg "Tree.line";
  of_parents (Array.init n (fun v -> v - 1))

let star r =
  if r < 1 then invalid_arg "Tree.star";
  of_parents (Array.init (r + 1) (fun v -> if v = 0 then -1 else 0))

let balanced ~fanout ~depth =
  if fanout < 1 || depth < 0 then invalid_arg "Tree.balanced";
  (* Nodes are numbered level by level. *)
  let rec level_size d = if d = 0 then 1 else fanout * level_size (d - 1) in
  let total = ref 0 in
  for d = 0 to depth do
    total := !total + level_size d
  done;
  let parents = Array.make !total (-1) in
  (* Children of node i are fanout*i+1 .. fanout*i+fanout in the usual
     implicit heap numbering. *)
  for v = 1 to !total - 1 do
    parents.(v) <- (v - 1) / fanout
  done;
  of_parents parents

let pp ppf t =
  let rec render indent v =
    Format.fprintf ppf "%s%d%s@." indent v (if is_leaf t v && v <> 0 then " (rcvr)" else "");
    List.iter (render (indent ^ "  ")) t.children.(v)
  in
  render "" 0

let equal a b = a.parent = b.parent
