(* Per-layer replays: small, self-contained drives of one layer's
   hot-path functions, sized by the counts the workload itself
   produced, so a per-layer speed-up can be read off a ns/op figure
   instead of inferred from a total. Only functions the simulator calls
   on every run are timed: the engine's schedule/cancel/run on both
   backends, the network's multicast walk and route build, and the
   CESRM replier cache. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Upper bounds keep every replay well under a second on a 2-core box;
   the counts they are clamped from come from the workload. *)
let max_engine_events = 1_000_000

let max_pending_depth = 200_000

let max_deliveries = 2_000_000

let max_cache_rounds = 300_000

(* Engine: [depth] timers pending from the start, then every fired
   timer schedules one successor and, at the workload's
   cancelled/fired ratio, schedules-and-cancels extra timers — the
   pattern SRM's suppressed request and reply timers produce. Delays
   span 0–2 s, the reach of the protocol timers, so the wheel both
   inserts and cascades. Returns ns per fired event. *)
let engine_ns_per_event ~backend ~fired ~cancelled ~depth =
  let n_events = max 1 (min fired max_engine_events) in
  let depth = max 1 (min depth (min max_pending_depth n_events)) in
  let cancel_ratio = if fired > 0 then float_of_int cancelled /. float_of_int fired else 0. in
  let engine = Sim.Engine.create ~seed:7L ~backend () in
  let rng = Sim.Rng.create 11L in
  let scheduled = ref 0 in
  let debt = ref 0. in
  let rec fire () =
    if !scheduled < n_events then begin
      incr scheduled;
      ignore (Sim.Engine.schedule engine ~after:(Sim.Rng.float rng 2.) fire);
      debt := !debt +. cancel_ratio;
      while !debt >= 1. do
        Sim.Engine.cancel (Sim.Engine.schedule engine ~after:(Sim.Rng.float rng 2.) fire);
        debt := !debt -. 1.
      done
    end
  in
  let (), dt =
    time (fun () ->
        for _ = 1 to depth do
          incr scheduled;
          ignore (Sim.Engine.schedule engine ~after:(Sim.Rng.float rng 2.) fire)
        done;
        Sim.Engine.run engine)
  in
  dt *. 1e9 /. float_of_int (max 1 (Sim.Engine.events_fired engine))

(* Network: data multicasts from the tree's root to no-op receivers,
   one every 10 ms of virtual time. Returns ns per delivery. *)
let net_ns_per_delivery ~tree ~(setup : Harness.Runner.setup) ~delivered =
  let target = max 1 (min delivered max_deliveries) in
  let engine = Sim.Engine.create ~seed:7L () in
  let network =
    Net.Network.create ~engine ~tree ~link_delay:setup.link_delay
      ~bandwidth_bps:setup.bandwidth_bps ()
  in
  Array.iter (fun r -> Net.Network.on_receive network r (fun _ -> ())) (Net.Tree.receivers tree);
  let root = Net.Tree.root tree in
  let n_casts = max 1 (target / max 1 (Net.Tree.n_receivers tree)) in
  let (), dt =
    time (fun () ->
        for seq = 1 to n_casts do
          Sim.Engine.schedule_call engine
            ~at:(0.01 *. float_of_int seq)
            (fun seq ->
              Net.Network.multicast network ~from:root
                { Net.Packet.sender = root; payload = Net.Packet.Data { seq } })
            seq
        done;
        Sim.Engine.run engine)
  in
  dt *. 1e9 /. float_of_int (max 1 (Net.Network.packets_delivered network))

(* Route cache build on the workload's tree; median of [reps] builds. *)
let routes_build_s ~tree ~(setup : Harness.Runner.setup) =
  let delays = Array.make (Net.Tree.n_nodes tree) setup.link_delay in
  let reps = 5 in
  let times =
    Array.init reps (fun _ -> snd (time (fun () -> ignore (Net.Routes.create ~tree ~delays))))
  in
  Array.sort compare times;
  times.(reps / 2)

(* Replier cache: per round one [note_reply] (a recovered loss's
   pair, drawn from a small requestor/replier population so pairs
   repeat as in the traces), one [entries] ranking and one [touch] of
   the chosen seq, at the configured retention and capacity. [rounds]
   is the workload's CESRM recovery count. Returns ns per operation. *)
let cache_ns_per_op ~(config : Cesrm.Host.config) ~rounds =
  let rounds = max 1 (min rounds max_cache_rounds) in
  let capacity =
    match config.retention.Cesrm.Retention.capacity with
    | Some c -> c
    | None -> config.cache_capacity
  in
  let cache = Cesrm.Cache.create ~retention:config.retention.scheme ~capacity () in
  let rng = Sim.Rng.create 13L in
  let (), dt =
    time (fun () ->
        for seq = 1 to rounds do
          let now = 0.04 *. float_of_int seq in
          let requestor = Sim.Rng.int rng 8 and replier = Sim.Rng.int rng 8 in
          ignore
            (Cesrm.Cache.note_reply ~now cache
               {
                 Cesrm.Cache.seq;
                 requestor;
                 d_qs = 0.02 *. float_of_int (1 + requestor);
                 replier;
                 d_rq = 0.02 *. float_of_int (1 + replier);
                 turning_point = None;
               });
          match Cesrm.Cache.entries ~now cache with
          | e :: _ -> Cesrm.Cache.touch ~now cache ~seq:e.Cesrm.Cache.seq
          | [] -> ()
        done)
  in
  dt *. 1e9 /. float_of_int (3 * rounds)
