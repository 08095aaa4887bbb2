(* Tests for the network substrate: tree topology, packets, cost
   accounting, and delivery semantics. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

(* --- Tree ------------------------------------------------------------ *)

(* 0 - 1 - 3 (rcvr)
       \ 4 (rcvr)
     2 - 5 (rcvr)  *)
let sample_tree () = Net.Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

let test_tree_basic () =
  let t = sample_tree () in
  check Alcotest.int "n_nodes" 6 (Net.Tree.n_nodes t);
  check Alcotest.int "root" 0 (Net.Tree.root t);
  check Alcotest.int "parent 3" 1 (Net.Tree.parent t 3);
  check Alcotest.(list int) "children 1" [ 3; 4 ] (Net.Tree.children t 1);
  check Alcotest.int "depth 5" 2 (Net.Tree.depth t 5);
  check Alcotest.int "height" 2 (Net.Tree.height t);
  check Alcotest.(array int) "receivers" [| 3; 4; 5 |] (Net.Tree.receivers t);
  check Alcotest.int "n_receivers" 3 (Net.Tree.n_receivers t);
  check Alcotest.bool "3 is leaf" true (Net.Tree.is_leaf t 3);
  check Alcotest.bool "1 is not leaf" false (Net.Tree.is_leaf t 1)

let test_tree_validation () =
  let expect_invalid name parents =
    match Net.Tree.of_parents parents with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "empty" [||];
  expect_invalid "root not 0" [| 1; -1 |];
  expect_invalid "self parent" [| -1; 1 |];
  expect_invalid "out of range" [| -1; 9 |]

let test_tree_lca_hops () =
  let t = sample_tree () in
  check Alcotest.int "lca(3,4)" 1 (Net.Tree.lca t 3 4);
  check Alcotest.int "lca(3,5)" 0 (Net.Tree.lca t 3 5);
  check Alcotest.int "lca(3,3)" 3 (Net.Tree.lca t 3 3);
  check Alcotest.int "lca(1,3)" 1 (Net.Tree.lca t 1 3);
  check Alcotest.int "hops(3,4)" 2 (Net.Tree.hops t 3 4);
  check Alcotest.int "hops(3,5)" 4 (Net.Tree.hops t 3 5);
  check Alcotest.int "hops(0,0)" 0 (Net.Tree.hops t 0 0)

let test_tree_path () =
  let t = sample_tree () in
  check Alcotest.(list int) "path 3->5" [ 3; 1; 0; 2; 5 ] (Net.Tree.path t 3 5);
  check Alcotest.(list int) "path 0->3" [ 0; 1; 3 ] (Net.Tree.path t 0 3);
  check Alcotest.(list int) "path to self" [ 3 ] (Net.Tree.path t 3 3);
  check Alcotest.(list int) "links 3->5 (4 links)" [ 3; 1; 2; 5 ]
    (Net.Tree.on_path_links t 3 5)

let test_tree_ancestry_subtrees () =
  let t = sample_tree () in
  check Alcotest.bool "1 anc of 3" true (Net.Tree.is_ancestor t 1 3);
  check Alcotest.bool "2 not anc of 3" false (Net.Tree.is_ancestor t 2 3);
  check Alcotest.bool "self ancestor" true (Net.Tree.is_ancestor t 3 3);
  check Alcotest.(list int) "subtree rcvrs of 1" [ 3; 4 ] (Net.Tree.subtree_receivers t 1);
  check Alcotest.(list int) "subtree rcvrs of 0" [ 3; 4; 5 ] (Net.Tree.subtree_receivers t 0)

let test_tree_dist () =
  let t = sample_tree () in
  let delays = Array.make (Net.Tree.n_nodes t) 0.02 in
  let scratch = Array.make (Net.Tree.height t) 0 and cell = { Net.Tree.d = Float.nan } in
  Net.Tree.dist t ~delays ~scratch cell 3 5;
  check (Alcotest.float 1e-9) "dist 3->5" 0.08 cell.d;
  let m = Net.Tree.distance_matrix t ~delays in
  check (Alcotest.float 1e-9) "matrix symmetric" m.(3).(5) m.(5).(3);
  check (Alcotest.float 1e-9) "diag zero" 0. m.(2).(2)

let test_tree_constructors () =
  let line = Net.Tree.line 4 in
  check Alcotest.int "line height" 3 (Net.Tree.height line);
  check Alcotest.(array int) "line single receiver" [| 3 |] (Net.Tree.receivers line);
  let star = Net.Tree.star 5 in
  check Alcotest.int "star receivers" 5 (Net.Tree.n_receivers star);
  check Alcotest.int "star height" 1 (Net.Tree.height star);
  let bal = Net.Tree.balanced ~fanout:3 ~depth:2 in
  check Alcotest.int "balanced nodes" 13 (Net.Tree.n_nodes bal);
  check Alcotest.int "balanced receivers" 9 (Net.Tree.n_receivers bal)

let random_parents_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    let rec fill i acc =
      if i >= n then return (Array.of_list (List.rev acc))
      else int_range 0 (i - 1) >>= fun p -> fill (i + 1) (p :: acc)
    in
    fill 1 [ -1 ])

let arbitrary_tree =
  QCheck.make
    ~print:(fun p -> String.concat "," (List.map string_of_int (Array.to_list p)))
    random_parents_gen

let prop_tree_lca_is_common_ancestor =
  QCheck.Test.make ~name:"tree: lca is a common ancestor" ~count:200 arbitrary_tree
    (fun parents ->
      let t = Net.Tree.of_parents parents in
      let n = Net.Tree.n_nodes t in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let a = Net.Tree.lca t u v in
          if not (Net.Tree.is_ancestor t a u && Net.Tree.is_ancestor t a v) then ok := false
        done
      done;
      !ok)

let prop_tree_hops_path_consistent =
  QCheck.Test.make ~name:"tree: |path| = hops + 1 and |links| = hops" ~count:200 arbitrary_tree
    (fun parents ->
      let t = Net.Tree.of_parents parents in
      let n = Net.Tree.n_nodes t in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let h = Net.Tree.hops t u v in
          if List.length (Net.Tree.path t u v) <> h + 1 then ok := false;
          if List.length (Net.Tree.on_path_links t u v) <> h then ok := false
        done
      done;
      !ok)

(* The reference distance: a fold over the path's links, in
   [on_path_links] order. *)
let ref_dist tree delays u v =
  List.fold_left (fun acc l -> acc +. delays.(l)) 0. (Net.Tree.on_path_links tree u v)

let arbitrary_tree_delays =
  let gen =
    QCheck.Gen.(
      random_parents_gen >>= fun parents ->
      array_repeat (Array.length parents) (float_range 1e-4 0.25) >|= fun delays ->
      (parents, delays))
  in
  QCheck.make
    ~print:(fun (p, d) ->
      String.concat "," (List.map string_of_int (Array.to_list p))
      ^ " / "
      ^ String.concat "," (List.map (Printf.sprintf "%h") (Array.to_list d)))
    gen

(* The allocation-free walk adds in the reference fold's order, so it
   is bit-identical to it, not merely close. *)
let prop_network_dist_bit_identical =
  QCheck.Test.make ~name:"network: dist is bit-identical to the path fold" ~count:200
    arbitrary_tree_delays (fun (parents, delays) ->
      let tree = Net.Tree.of_parents parents in
      let engine = Sim.Engine.create ~seed:1L () in
      let network = Net.Network.create_heterogeneous ~engine ~tree ~delays () in
      let n = Net.Tree.n_nodes tree in
      let ok = ref true in
      for u = 0 to n - 1 do
        if Net.Network.dist network u u <> 0. then ok := false;
        for v = 0 to n - 1 do
          if
            Int64.bits_of_float (Net.Network.dist network u v)
            <> Int64.bits_of_float (ref_dist tree delays u v)
          then ok := false
        done
      done;
      !ok)

let prop_tree_receivers_are_leaves =
  QCheck.Test.make ~name:"tree: receivers are exactly the non-root leaves" ~count:200
    arbitrary_tree (fun parents ->
      let t = Net.Tree.of_parents parents in
      let n = Net.Tree.n_nodes t in
      let leaves =
        List.filter (fun v -> v <> 0 && Net.Tree.is_leaf t v) (List.init n Fun.id)
      in
      Array.to_list (Net.Tree.receivers t) = leaves)

(* --- Packet ----------------------------------------------------------- *)

let mk payload = { Net.Packet.sender = 1; payload }

let test_packet_sizes () =
  check Alcotest.int "data is 1KB" 8192 (Net.Packet.size_bits (mk (Net.Packet.Data { seq = 1 })));
  check Alcotest.int "reply is 1KB" 8192
    (Net.Packet.size_bits
       (mk
          (Net.Packet.Reply
             {
               src = 0;
               seq = 1;
               requestor = 2;
               d_qs = 0.1;
               replier = 3;
               d_rq = 0.1;
               expedited = false;
               turning_point = None;
             })));
  check Alcotest.int "request is free" 0
    (Net.Packet.size_bits
       (mk (Net.Packet.Request { src = 0; seq = 1; requestor = 2; d_qs = 0.1; round = 0 })));
  check Alcotest.int "session is free" 0
    (Net.Packet.size_bits
       (mk (Net.Packet.Session { origin = 1; sent_at = 0.; max_seqs = []; echoes = Net.Packet.no_echoes })))

let test_packet_seq () =
  check Alcotest.(option int) "data seq" (Some 9)
    (Net.Packet.seq (mk (Net.Packet.Data { seq = 9 })));
  check Alcotest.(option int) "session no seq" None
    (Net.Packet.seq
       (mk (Net.Packet.Session { origin = 1; sent_at = 0.; max_seqs = [ (0, 3) ]; echoes = Net.Packet.no_echoes })))

let test_packet_describe () =
  let d = Net.Packet.describe (mk (Net.Packet.Data { seq = 5 })) in
  check Alcotest.bool "describe non-empty" true (String.length d > 0)

(* --- Cost ------------------------------------------------------------- *)

let test_cost_accounting () =
  let c = Net.Cost.create () in
  Net.Cost.record_send c Net.Cost.Request Net.Cost.Multicast;
  Net.Cost.record_crossing c Net.Cost.Request Net.Cost.Multicast;
  Net.Cost.record_crossing c Net.Cost.Request Net.Cost.Multicast;
  Net.Cost.record_crossing c Net.Cost.Exp_request Net.Cost.Unicast;
  Net.Cost.record_crossing c Net.Cost.Reply Net.Cost.Multicast;
  Net.Cost.record_crossing c Net.Cost.Exp_reply Net.Cost.Subcast;
  check Alcotest.int "sends" 1 (Net.Cost.sends c Net.Cost.Request Net.Cost.Multicast);
  check Alcotest.int "crossings" 2 (Net.Cost.crossings c Net.Cost.Request Net.Cost.Multicast);
  check Alcotest.int "retx overhead counts replies" 2 (Net.Cost.retransmission_overhead c);
  check Alcotest.int "mc control" 2 (Net.Cost.control_overhead c ~multicast:true);
  check Alcotest.int "uc control" 1 (Net.Cost.control_overhead c ~multicast:false)

let test_cost_category_of () =
  check Alcotest.bool "expedited reply category" true
    (Net.Cost.category_of
       (mk
          (Net.Packet.Reply
             {
               src = 0;
               seq = 1;
               requestor = 2;
               d_qs = 0.1;
               replier = 3;
               d_rq = 0.1;
               expedited = true;
               turning_point = None;
             }))
    = Net.Cost.Exp_reply)

(* --- Network ----------------------------------------------------------- *)

let make_network ?(tree = sample_tree ()) () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create ~engine ~tree ~link_delay:0.02 () in
  (engine, network)

let session_packet =
  mk (Net.Packet.Session { origin = 1; sent_at = 0.; max_seqs = []; echoes = Net.Packet.no_echoes })

let test_network_multicast_times () =
  let engine, network = make_network () in
  let arrivals = Hashtbl.create 8 in
  List.iter
    (fun v ->
      Net.Network.on_receive network v (fun _ ->
          Hashtbl.replace arrivals v (Sim.Engine.now engine)))
    [ 0; 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule engine ~after:1.0 (fun () ->
         Net.Network.multicast network ~from:3 session_packet));
  Sim.Engine.run engine;
  check Alcotest.bool "sender does not hear itself" false (Hashtbl.mem arrivals 3);
  check (Alcotest.float 1e-9) "to root: 2 hops" 1.04 (Hashtbl.find arrivals 0);
  check (Alcotest.float 1e-9) "to sibling: 2 hops" 1.04 (Hashtbl.find arrivals 4);
  check (Alcotest.float 1e-9) "across: 4 hops" 1.08 (Hashtbl.find arrivals 5)

let test_network_payload_serialization () =
  let engine, network = make_network () in
  let arrival = ref 0. in
  Net.Network.on_receive network 3 (fun _ -> arrival := Sim.Engine.now engine);
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:0 (mk (Net.Packet.Data { seq = 1 }))));
  Sim.Engine.run engine;
  let expected = 2. *. (0.02 +. (8192. /. 1.5e6)) in
  check (Alcotest.float 1e-9) "data pays serialization per hop" expected !arrival

let test_network_data_fifo () =
  let engine, network = make_network ~tree:(Net.Tree.line 2) () in
  let arrivals = ref [] in
  Net.Network.on_receive network 1 (fun p ->
      arrivals := (Net.Packet.seq p, Sim.Engine.now engine) :: !arrivals);
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:0 (mk (Net.Packet.Data { seq = 1 }));
         Net.Network.multicast network ~from:0 (mk (Net.Packet.Data { seq = 2 }))));
  Sim.Engine.run engine;
  let tx = 8192. /. 1.5e6 in
  check
    Alcotest.(list (pair (option int) (float 1e-9)))
    "FIFO with queueing"
    [ (Some 1, tx +. 0.02); (Some 2, (2. *. tx) +. 0.02) ]
    (List.rev !arrivals)

let test_network_drop_prunes_subtree () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got)) [ 3; 4; 5 ];
  Net.Network.set_drop network (fun ~link ~down _ -> down && link = 1);
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:0 (mk (Net.Packet.Data { seq = 1 }))));
  Sim.Engine.run engine;
  check Alcotest.(list int) "only node 5 receives" [ 5 ] (List.sort compare !got)

let test_network_drop_direction () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 4; 5 ];
  Net.Network.set_drop network (fun ~link ~down _ -> down && link = 1);
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:3 session_packet));
  Sim.Engine.run engine;
  (* From node 3 the flood climbs link 3 (up), then link 4 down to node
     4 and links 2, 5 down to node 5 — link 1 is only crossed upward,
     so the down-only drop never triggers. *)
  check Alcotest.(list int) "upward traffic unaffected" [ 0; 4; 5 ] (List.sort compare !got)

let test_network_unicast () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.unicast network ~from:3 ~dst:5 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "only destination delivered" [ 5 ] !got;
  check Alcotest.int "uc crossings = 4 hops" 4
    (Net.Cost.crossings (Net.Network.cost network) Net.Cost.Session Net.Cost.Unicast)

let test_network_subcast () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.subcast network ~at:1 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "subtree of 1 only" [ 3; 4 ] (List.sort compare !got)

let test_network_relayed_subcast () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.relayed_subcast network ~from:5 ~via:1 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "delivered under the turning point" [ 3; 4 ]
    (List.sort compare !got);
  let cost = Net.Network.cost network in
  check Alcotest.int "uphill unicast crossings (5->1 is 3 hops)" 3
    (Net.Cost.crossings cost Net.Cost.Session Net.Cost.Unicast);
  check Alcotest.int "downhill subcast crossings" 2
    (Net.Cost.crossings cost Net.Cost.Session Net.Cost.Subcast)

let test_network_multicast_crossings () =
  let engine, network = make_network () in
  ignore
    (Sim.Engine.schedule engine ~after:0.0 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check Alcotest.int "multicast crosses every link once" 5
    (Net.Cost.crossings (Net.Network.cost network) Net.Cost.Session Net.Cost.Multicast)

let test_network_dist_rtt () =
  let _, network = make_network () in
  check (Alcotest.float 1e-9) "dist" 0.08 (Net.Network.dist network 3 5);
  check (Alcotest.float 1e-9) "rtt" 0.16 (Net.Network.rtt network 3 5);
  check (Alcotest.float 1e-9) "link delay" 0.02 (Net.Network.link_delay network 3)

let test_network_heterogeneous () =
  let tree = Net.Tree.line 3 in
  let engine = Sim.Engine.create () in
  let delays = [| 0.; 0.010; 0.030 |] in
  let network = Net.Network.create_heterogeneous ~engine ~tree ~delays () in
  check (Alcotest.float 1e-9) "summed delays" 0.04 (Net.Network.dist network 0 2)

(* --- Perturbation layer (fault injection) ----------------------------- *)

let test_perturb_mid_flight_down () =
  (* A packet already computed/queued when the outage opens must still
     be swallowed: windows match the link *crossing* time, not the send
     time. Sent at 1.0, the flood reaches link 3 at 1.02 — inside the
     [1.01, 2.0) outage — so node 3 alone misses it. *)
  let engine, network = make_network () in
  let got = ref [] in
  List.iter
    (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got))
    [ 0; 3; 4; 5 ];
  Net.Network.add_link_down network ~link:3 ~from_:1.01 ~until:2.0;
  check Alcotest.bool "perturbed" true (Net.Network.perturbed network);
  check Alcotest.bool "down inside window" true (Net.Network.link_is_down network ~link:3 ~at:1.5);
  check Alcotest.bool "up before window" false (Net.Network.link_is_down network ~link:3 ~at:1.0);
  ignore
    (Sim.Engine.schedule_at engine ~at:1.0 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "node 3 alone misses" [ 4; 5 ] (List.sort compare !got);
  (* After the window closes the link carries traffic again. *)
  got := [];
  ignore
    (Sim.Engine.schedule_at engine ~at:2.5 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check Alcotest.(list int) "healed" [ 3; 4; 5 ] (List.sort compare !got)

let test_perturb_window_boundaries () =
  (* [from, until): a crossing starting exactly at `from` is dropped,
     one starting exactly at `until` goes through. *)
  let engine, network = make_network ~tree:(Net.Tree.line 2) () in
  let arrivals = ref [] in
  Net.Network.on_receive network 1 (fun _ -> arrivals := Sim.Engine.now engine :: !arrivals);
  Net.Network.add_link_down network ~link:1 ~from_:1.0 ~until:2.0;
  List.iter
    (fun at ->
      ignore
        (Sim.Engine.schedule_at engine ~at (fun () ->
             Net.Network.multicast network ~from:0 session_packet)))
    [ 0.5; 1.0; 1.999; 2.0 ];
  Sim.Engine.run engine;
  check
    Alcotest.(list (float 1e-9))
    "only the crossings outside [from, until) arrive" [ 0.52; 2.02 ] (List.rev !arrivals)

let test_perturb_invalid_windows () =
  let _, network = make_network () in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s should be rejected" name
  in
  expect_invalid "negative from" (fun () ->
      Net.Network.add_link_down network ~link:1 ~from_:(-1.) ~until:2.);
  expect_invalid "empty window" (fun () ->
      Net.Network.add_link_down network ~link:1 ~from_:2. ~until:2.);
  expect_invalid "link 0" (fun () -> Net.Network.add_link_down network ~link:0 ~from_:0. ~until:1.);
  expect_invalid "link out of range" (fun () ->
      Net.Network.add_link_down network ~link:99 ~from_:0. ~until:1.);
  expect_invalid "non-positive jitter" (fun () ->
      Net.Network.add_link_jitter network ~link:1 ~from_:0. ~until:1. ~max_jitter:0.)

let test_perturb_crash_in_flight () =
  (* A receiver that crashes while a packet is in flight (here: before
     its first packet ever arrives) must not process it on arrival —
     deliver() re-checks the enabled flag at fire time. *)
  let engine, network = make_network () in
  let got = ref 0 in
  Net.Network.on_receive network 3 (fun _ -> incr got);
  ignore
    (Sim.Engine.schedule_at engine ~at:0.0 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  (* packet arrives at node 3 at t = 0.04; the crash at 0.01 beats it *)
  ignore (Sim.Engine.schedule_at engine ~at:0.01 (fun () -> Net.Network.set_enabled network 3 false));
  ignore (Sim.Engine.schedule_at engine ~at:1.0 (fun () -> Net.Network.set_enabled network 3 true));
  ignore
    (Sim.Engine.schedule_at engine ~at:1.5 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check Alcotest.int "only the post-restart packet lands" 1 !got;
  check Alcotest.bool "re-enabled" true (Net.Network.is_enabled network 3)

let test_perturb_jitter () =
  let run () =
    let engine = Sim.Engine.create ~seed:99L () in
    let network = Net.Network.create ~engine ~tree:(Net.Tree.line 2) ~link_delay:0.02 () in
    let arrival = ref Float.nan in
    Net.Network.on_receive network 1 (fun _ -> arrival := Sim.Engine.now engine);
    Net.Network.add_link_jitter network ~link:1 ~from_:0. ~until:10. ~max_jitter:0.05;
    ignore
      (Sim.Engine.schedule_at engine ~at:1.0 (fun () ->
           Net.Network.multicast network ~from:0 session_packet));
    Sim.Engine.run engine;
    !arrival
  in
  let a = run () in
  check Alcotest.bool "delayed at least the link delay" true (a >= 1.02);
  check Alcotest.bool "bounded by max_jitter" true (a <= 1.02 +. 0.05 +. 1e-9);
  (* jitter draws come from a split of the engine RNG: same seed, same
     jitter — faulted runs stay pure functions of (seed, plan) *)
  check (Alcotest.float 1e-12) "deterministic under the seed" a (run ())

let test_perturb_dup () =
  let engine, network = make_network ~tree:(Net.Tree.line 2) () in
  let arrivals = ref [] in
  Net.Network.on_receive network 1 (fun _ -> arrivals := Sim.Engine.now engine :: !arrivals);
  Net.Network.add_link_dup network ~link:1 ~from_:0. ~until:2.;
  List.iter
    (fun at ->
      ignore
        (Sim.Engine.schedule_at engine ~at (fun () ->
             Net.Network.multicast network ~from:0 session_packet)))
    [ 1.0; 3.0 ];
  Sim.Engine.run engine;
  (* in-window crossing delivers twice (copy one link delay later);
     out-of-window crossing delivers once *)
  check
    Alcotest.(list (float 1e-9))
    "duplicate one delay later, then clean" [ 1.02; 1.04; 3.02 ] (List.rev !arrivals)

(* --- Membership layer (dynamic join/leave/rejoin) --------------------- *)

let test_membership_defaults () =
  let _, network = make_network () in
  check Alcotest.bool "no membership layer until first use" false (Net.Network.churned network);
  check Alcotest.bool "every node is a member by default" true (Net.Network.is_member network 3);
  check Alcotest.int "no joins" 0 (Net.Network.member_joins network);
  check Alcotest.int "no leaves" 0 (Net.Network.member_leaves network)

let test_membership_gates_delivery () =
  let engine, network = make_network () in
  let got = ref [] in
  List.iter (fun v -> Net.Network.on_receive network v (fun _ -> got := v :: !got)) [ 3; 4; 5 ];
  ignore
    (Sim.Engine.schedule_at engine ~at:0.5 (fun () -> Net.Network.set_member network 3 false));
  ignore
    (Sim.Engine.schedule_at engine ~at:1.0 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  (* a departed member's own transmissions never reach the wire *)
  ignore
    (Sim.Engine.schedule_at engine ~at:1.5 (fun () ->
         Net.Network.multicast network ~from:3 session_packet));
  ignore
    (Sim.Engine.schedule_at engine ~at:2.0 (fun () -> Net.Network.set_member network 3 true));
  ignore
    (Sim.Engine.schedule_at engine ~at:2.5 (fun () ->
         Net.Network.multicast network ~from:0 session_packet));
  Sim.Engine.run engine;
  check
    Alcotest.(list int)
    "non-member misses the first cast, sends nothing, hears the post-rejoin cast"
    [ 3; 4; 4; 5; 5 ] (List.sort compare !got);
  check Alcotest.bool "layer installed" true (Net.Network.churned network);
  check Alcotest.int "one leave" 1 (Net.Network.member_leaves network);
  check Alcotest.int "one join" 1 (Net.Network.member_joins network)

let test_membership_counts_effective_transitions () =
  let _, network = make_network () in
  Net.Network.set_member network 3 false;
  Net.Network.set_member network 3 false;
  check Alcotest.int "redundant leave uncounted" 1 (Net.Network.member_leaves network);
  Net.Network.set_member network 3 true;
  Net.Network.set_member network 3 true;
  check Alcotest.int "redundant join uncounted" 1 (Net.Network.member_joins network);
  (* a late joiner's initial exclusion is a starting condition, not a
     churn event: the membership flips but the counters stay put *)
  Net.Network.set_member ~count:false network 4 false;
  check Alcotest.bool "uncounted exclusion flips membership" false
    (Net.Network.is_member network 4);
  check Alcotest.int "but no leave is charged" 1 (Net.Network.member_leaves network)

let test_membership_crash_is_not_departure () =
  let _, network = make_network () in
  Net.Network.set_member network 3 false;
  check Alcotest.bool "departed member is disabled too" false (Net.Network.is_enabled network 3);
  Net.Network.set_enabled network 4 false;
  check Alcotest.bool "a crashed host is still a member" true (Net.Network.is_member network 4);
  Net.Network.set_enabled network 4 true;
  check Alcotest.bool "and stays one after restart" true (Net.Network.is_member network 4)

(* --- Routes: precomputed orders agree with the Tree walks ------------- *)

let routes_of parents =
  let tree = Net.Tree.of_parents parents in
  let delays =
    Array.init (Net.Tree.n_nodes tree) (fun l ->
        if l = 0 then 0. else 0.001 *. float_of_int (1 + (l mod 7)))
  in
  (tree, delays, Net.Routes.create ~tree ~delays)

(* An order entry's subtree is the contiguous run [i .. i+skips-1]; it
   must hold exactly the later entries whose tree path from [origin]
   passes through this entry's node. *)
let check_order ~what tree delays origin (o : Net.Routes.order) expected_nodes =
  let n = Array.length o.nodes in
  if List.sort compare (Array.to_list o.nodes) <> List.sort compare expected_nodes then
    Alcotest.failf "%s: wrong node set from %d" what origin;
  for i = 0 to n - 1 do
    let node = o.nodes.(i) in
    let path = Net.Tree.path tree origin node in
    (match List.rev path with
    | _ :: prev :: _ ->
        if o.prevs.(i) <> prev then Alcotest.failf "%s: prev of %d" what node
    | _ -> Alcotest.failf "%s: degenerate path to %d" what node);
    let link = if Net.Tree.parent tree node = o.prevs.(i) then node else o.prevs.(i) in
    if o.links.(i) <> link then Alcotest.failf "%s: link of %d" what node;
    let d = ref_dist tree delays origin node in
    if Float.abs (o.cum.(i) -. d) > 1e-9 then Alcotest.failf "%s: cum of %d" what node;
    let in_subtree = ref 0 in
    for j = i to n - 1 do
      if List.mem node (Net.Tree.path tree origin o.nodes.(j)) then incr in_subtree
    done;
    if o.skips.(i) <> !in_subtree then Alcotest.failf "%s: skips of %d" what node
  done

let prop_routes_flood_order =
  QCheck.Test.make ~name:"routes: flood orders replay the neighbor walk" ~count:60
    arbitrary_tree (fun parents ->
      let tree, delays, routes = routes_of parents in
      let n = Net.Tree.n_nodes tree in
      let all = List.init n Fun.id in
      for origin = 0 to n - 1 do
        check_order ~what:"flood" tree delays origin
          (Net.Routes.flood_order routes origin)
          (List.filter (fun v -> v <> origin) all)
      done;
      true)

let prop_routes_down_order =
  QCheck.Test.make ~name:"routes: down orders cover exactly the subtree" ~count:60
    arbitrary_tree (fun parents ->
      let tree, delays, routes = routes_of parents in
      for root = 0 to Net.Tree.n_nodes tree - 1 do
        let below = List.filter (fun v -> v <> root) (Net.Tree.subtree_nodes tree root) in
        if Net.Routes.subtree_size routes root <> List.length below + 1 then
          Alcotest.failf "subtree_size of %d" root;
        check_order ~what:"down" tree delays root (Net.Routes.down_order routes root) below
      done;
      true)

let prop_routes_path =
  QCheck.Test.make ~name:"routes: paths agree with Tree.path/on_path_links" ~count:60
    arbitrary_tree (fun parents ->
      let tree, _, routes = routes_of parents in
      let n = Net.Tree.n_nodes tree in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let p = Net.Routes.path routes ~src ~dst in
          if Array.to_list p.hops <> List.tl (Net.Tree.path tree src dst) then
            Alcotest.failf "hops %d->%d" src dst;
          if Array.to_list p.plinks <> Net.Tree.on_path_links tree src dst then
            Alcotest.failf "plinks %d->%d" src dst;
          Array.iteri
            (fun i down ->
              let prev = if i = 0 then src else p.hops.(i - 1) in
              if down <> (Net.Tree.parent tree p.hops.(i) = prev) then
                Alcotest.failf "pdowns %d->%d hop %d" src dst i)
            p.pdowns
        done
      done;
      true)

let prop_routes_neighbors =
  QCheck.Test.make ~name:"routes: neighbors/children mirror the tree lists" ~count:100
    arbitrary_tree (fun parents ->
      let tree, _, routes = routes_of parents in
      let ok = ref true in
      for v = 0 to Net.Tree.n_nodes tree - 1 do
        if Array.to_list (Net.Routes.neighbors routes v) <> Net.Tree.neighbors tree v then
          ok := false;
        if Array.to_list (Net.Routes.children routes v) <> Net.Tree.children tree v then
          ok := false
      done;
      !ok)

let prop_subtree_nodes_preorder =
  QCheck.Test.make ~name:"tree: subtree_nodes is the ancestor-filtered preorder" ~count:100
    arbitrary_tree (fun parents ->
      let tree = Net.Tree.of_parents parents in
      let n = Net.Tree.n_nodes tree in
      let ok = ref true in
      for v = 0 to n - 1 do
        let nodes = Net.Tree.subtree_nodes tree v in
        let members = List.filter (fun x -> Net.Tree.is_ancestor tree v x) (List.init n Fun.id) in
        if List.sort compare nodes <> members then ok := false;
        (* DFS preorder: every node appears after its parent (the root
           of the subtree first). *)
        (match nodes with hd :: _ when hd = v -> () | _ -> ok := false);
        List.iteri
          (fun i x ->
            if x <> v then begin
              let seen = List.filteri (fun j _ -> j < i) nodes in
              if not (List.mem (Net.Tree.parent tree x) seen) then ok := false
            end)
          nodes
      done;
      !ok)

let () =
  Alcotest.run "net"
    [
      ( "tree",
        [
          Alcotest.test_case "basic" `Quick test_tree_basic;
          Alcotest.test_case "validation" `Quick test_tree_validation;
          Alcotest.test_case "lca/hops" `Quick test_tree_lca_hops;
          Alcotest.test_case "paths" `Quick test_tree_path;
          Alcotest.test_case "ancestry/subtrees" `Quick test_tree_ancestry_subtrees;
          Alcotest.test_case "distances" `Quick test_tree_dist;
          Alcotest.test_case "constructors" `Quick test_tree_constructors;
          qcheck prop_tree_lca_is_common_ancestor;
          qcheck prop_tree_hops_path_consistent;
          qcheck prop_tree_receivers_are_leaves;
          qcheck prop_network_dist_bit_identical;
        ] );
      ( "packet",
        [
          Alcotest.test_case "sizes" `Quick test_packet_sizes;
          Alcotest.test_case "seq" `Quick test_packet_seq;
          Alcotest.test_case "describe" `Quick test_packet_describe;
        ] );
      ( "cost",
        [
          Alcotest.test_case "accounting" `Quick test_cost_accounting;
          Alcotest.test_case "category of" `Quick test_cost_category_of;
        ] );
      ( "network",
        [
          Alcotest.test_case "multicast times" `Quick test_network_multicast_times;
          Alcotest.test_case "payload serialization" `Quick test_network_payload_serialization;
          Alcotest.test_case "data FIFO" `Quick test_network_data_fifo;
          Alcotest.test_case "drop prunes subtree" `Quick test_network_drop_prunes_subtree;
          Alcotest.test_case "drop direction" `Quick test_network_drop_direction;
          Alcotest.test_case "unicast" `Quick test_network_unicast;
          Alcotest.test_case "subcast" `Quick test_network_subcast;
          Alcotest.test_case "relayed subcast" `Quick test_network_relayed_subcast;
          Alcotest.test_case "multicast crossings" `Quick test_network_multicast_crossings;
          Alcotest.test_case "dist/rtt" `Quick test_network_dist_rtt;
          Alcotest.test_case "heterogeneous delays" `Quick test_network_heterogeneous;
        ] );
      ( "perturb",
        [
          Alcotest.test_case "mid-flight link down" `Quick test_perturb_mid_flight_down;
          Alcotest.test_case "window boundaries" `Quick test_perturb_window_boundaries;
          Alcotest.test_case "invalid windows" `Quick test_perturb_invalid_windows;
          Alcotest.test_case "crash in flight" `Quick test_perturb_crash_in_flight;
          Alcotest.test_case "jitter bounded and deterministic" `Quick test_perturb_jitter;
          Alcotest.test_case "duplication" `Quick test_perturb_dup;
        ] );
      ( "membership",
        [
          Alcotest.test_case "defaults" `Quick test_membership_defaults;
          Alcotest.test_case "gates delivery both ways" `Quick test_membership_gates_delivery;
          Alcotest.test_case "counts effective transitions" `Quick
            test_membership_counts_effective_transitions;
          Alcotest.test_case "crash is not departure" `Quick
            test_membership_crash_is_not_departure;
        ] );
      ( "routes",
        [
          qcheck prop_routes_flood_order;
          qcheck prop_routes_down_order;
          qcheck prop_routes_path;
          qcheck prop_routes_neighbors;
          qcheck prop_subtree_nodes_preorder;
        ] );
    ]
