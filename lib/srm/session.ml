type heard = { mutable h_ts : float; mutable h_at : float }

(* A distance estimate, refreshed in place on every echo. *)
type estimate = { mutable d : float }

(* Stand-in returned by [estimate] for a peer with no estimate. *)
let no_estimate = { d = Float.nan }

type t = {
  network : Net.Network.t;
  clock : Sim.Engine.clock;
  self : int;
  period : float;
  rng : Sim.Rng.t;
  get_max_seqs : unit -> (int * int) list;
  on_max_seq : src:int -> int -> unit;
  on_send : unit -> unit;
  echo_limit : int option;
  (* Peer state is sparse: a host only materializes entries for peers
     it has actually exchanged session traffic with. The former dense
     per-node float arrays were three words per (host, node) pair —
     quadratic across the group, gigabytes at 10^4 members. [dists]
     is never evicted (estimates are few: only peers that echoed us);
     [heard] is unbounded in unlimited-echo mode (trace-sized groups,
     where every peer is heard anyway) and bounded by a FIFO ring of
     distinct peers when [echo_limit] is set. *)
  dists : (int, estimate) Hashtbl.t;
  heard : (int, heard) Hashtbl.t;
  mutable heard_order : int list; (* unlimited mode: most-recently-first-heard *)
  ring : int array; (* limited mode: distinct heard peers, -1 = empty slot *)
  mutable ring_pos : int; (* next eviction slot *)
  mutable echo_cursor : int; (* round-robin start of the next echo batch *)
  mutable scratch : Float.Array.t; (* [send]: echo entries, in visiting order *)
}

let create ?echo_limit ~network ~self ~period ~rng ~get_max_seqs ~on_max_seq ~on_send () =
  (match echo_limit with
  | Some k when k <= 0 -> invalid_arg "Session.create: echo_limit must be positive"
  | _ -> ());
  let ring_size = match echo_limit with None -> 0 | Some k -> Int.max (4 * k) 128 in
  {
    network;
    clock = Sim.Engine.clock (Net.Network.engine network);
    self;
    period;
    rng;
    get_max_seqs;
    on_max_seq;
    on_send;
    echo_limit;
    dists = Hashtbl.create 16;
    heard = Hashtbl.create 16;
    heard_order = [];
    ring = Array.make ring_size (-1);
    ring_pos = 0;
    echo_cursor = 0;
    scratch = Float.Array.create 48;
  }

let engine t = Net.Network.engine t.network

(* Append [peer]'s echo entry to the scratch, if the peer is heard;
   returns the new entry count. *)
let push_echo t n peer =
  match Hashtbl.find t.heard peer with
  | exception Not_found -> n
  | h ->
      let i = 3 * n in
      if i + 3 > Float.Array.length t.scratch then begin
        let b = Float.Array.create (2 * (i + 3)) in
        Float.Array.blit t.scratch 0 b 0 i;
        t.scratch <- b
      end;
      Float.Array.set t.scratch i (float_of_int peer);
      Float.Array.set t.scratch (i + 1) h.h_ts;
      Float.Array.set t.scratch (i + 2) (t.clock.Sim.Engine.now -. h.h_at);
      n + 1

(* Echo order within a session message is immaterial: session packets
   are 0-bit control traffic and receivers only look up their own
   entry, so neither timing nor behavior depends on entry order. The
   entries are laid out in the order the former list-building fold
   produced them all the same (last peer visited first). *)
let send t =
  let now = t.clock.Sim.Engine.now in
  let n =
    match t.echo_limit with
    | None ->
        let rec collect n = function [] -> n | peer :: tl -> collect (push_echo t n peer) tl in
        collect 0 t.heard_order
    | Some k ->
        (* Rotate a cursor over the ring so successive messages echo
           different peers: every tracked peer is echoed within
           ceil(ring/k) messages, which is what lets distance
           estimation still converge group-wide under the cap. *)
        let cap = Array.length t.ring in
        let n = ref 0 in
        let taken = ref 0 in
        let scanned = ref 0 in
        while !taken < k && !scanned < cap do
          let peer = t.ring.((t.echo_cursor + !scanned) mod cap) in
          incr scanned;
          if peer >= 0 then begin
            n := push_echo t !n peer;
            incr taken
          end
        done;
        t.echo_cursor <- (t.echo_cursor + !scanned) mod cap;
        !n
  in
  let echoes = Float.Array.create (3 * n) in
  for j = 0 to n - 1 do
    Float.Array.blit t.scratch (3 * j) echoes (3 * (n - 1 - j)) 3
  done;
  t.on_send ();
  Net.Network.multicast t.network ~from:t.self
    {
      Net.Packet.sender = t.self;
      payload =
        Net.Packet.Session
          { origin = t.self; sent_at = now; max_seqs = t.get_max_seqs (); echoes };
    }

let start ?jitter t ~until =
  let jitter = match jitter with Some j -> j | None -> t.period in
  let offset = if jitter <= 0. then 0. else Sim.Rng.float t.rng jitter in
  let rec tick () =
    if Sim.Engine.now (engine t) <= until then begin
      send t;
      ignore (Sim.Engine.schedule (engine t) ~after:t.period tick)
    end
  in
  ignore (Sim.Engine.schedule (engine t) ~after:offset tick)

let[@inline] note_heard t origin ~(sent_at : float) =
  let now = t.clock.Sim.Engine.now in
  match Hashtbl.find t.heard origin with
  | h ->
      h.h_ts <- sent_at;
      h.h_at <- now
  | exception Not_found ->
      (match t.echo_limit with
      | None -> t.heard_order <- origin :: t.heard_order
      | Some _ ->
          let victim = t.ring.(t.ring_pos) in
          if victim >= 0 then Hashtbl.remove t.heard victim;
          t.ring.(t.ring_pos) <- origin;
          t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring);
      Hashtbl.replace t.heard origin { h_ts = sent_at; h_at = now }

let[@inline] set_distance t peer d =
  match Hashtbl.find t.dists peer with
  | e -> e.d <- d
  | exception Not_found -> Hashtbl.replace t.dists peer { d }

let rec advertise t = function
  | [] -> ()
  | (src, m) :: tl ->
      if m > 0 then t.on_max_seq ~src m;
      advertise t tl

(* Direct loops, no closures: this runs once per session delivery. *)
let on_packet t (p : Net.Packet.t) =
  match p.payload with
  | Net.Packet.Session { origin; sent_at; max_seqs; echoes } when origin <> t.self ->
      note_heard t origin ~sent_at;
      let now = t.clock.Sim.Engine.now in
      for i = 0 to Net.Packet.n_echoes echoes - 1 do
        if int_of_float (Float.Array.get echoes (3 * i)) = t.self then begin
          let rtt =
            now -. Float.Array.get echoes ((3 * i) + 1) -. Float.Array.get echoes ((3 * i) + 2)
          in
          if rtt >= 0. then set_distance t origin (rtt /. 2.)
        end
      done;
      advertise t max_seqs
  | _ -> ()

let distance t peer = Option.map (fun e -> e.d) (Hashtbl.find_opt t.dists peer)

type estimates = (int, estimate) Hashtbl.t

let estimates t = t.dists

(* Scale runs never measure a distance, so the empty table is answered
   before the probe. *)
let estimate (e : estimates) peer =
  if Hashtbl.length e = 0 then no_estimate
  else match Hashtbl.find e peer with d -> d | exception Not_found -> no_estimate

let distance_exn t peer =
  match Hashtbl.find t.dists peer with
  | e -> e.d
  | exception Not_found ->
      failwith (Printf.sprintf "Session.distance_exn: no estimate for peer %d" peer)

let reset t =
  Hashtbl.reset t.dists;
  Hashtbl.reset t.heard;
  t.heard_order <- [];
  Array.fill t.ring 0 (Array.length t.ring) (-1);
  t.ring_pos <- 0;
  t.echo_cursor <- 0

(* A peer left the group: its distance estimate and heard state are
   stale (it will return, if ever, with fresh timestamps and possibly a
   different path). Ring slots are blanked in place — the cursor and
   eviction position are left alone so surviving peers keep their
   echo-rotation order. *)
let forget_peer t peer =
  Hashtbl.remove t.dists peer;
  Hashtbl.remove t.heard peer;
  t.heard_order <- List.filter (fun p -> p <> peer) t.heard_order;
  Array.iteri (fun i p -> if p = peer then t.ring.(i) <- -1) t.ring

let known_peers t =
  List.sort compare (Hashtbl.fold (fun peer _ acc -> peer :: acc) t.dists [])
