(* The protocol/setup/result types and the drop-predicate builder are
   shared with the sharded parallel runner; see [Run_types]. The
   equations keep [Harness.Runner.setup] et al. the public names. *)

type protocol = Run_types.protocol =
  | Srm_protocol
  | Cesrm_protocol of Cesrm.Host.config
  | Lms_protocol

let protocol_name = Run_types.protocol_name

type setup = Run_types.setup = {
  link_delay : float;
  bandwidth_bps : float;
  params : Srm.Params.t;
  warmup : float;
  tail : float;
  lossy_recovery : bool;
  lossy_sessions : bool;
  data_jitter : float;
  heterogeneous_delays : bool;
  seed : int64;
}

let default_setup = Run_types.default_setup

type result = Run_types.result = {
  trace : Mtrace.Trace.t;
  protocol : protocol;
  setup : setup;
  counters : Stats.Counters.t;
  recoveries : Stats.Recovery.t;
  cost : Net.Cost.t;
  rtt_to_source : (int * float) list;
  exp_requests : int;
  exp_replies : int;
  unrecovered : int;
  detected : int;
  forgiven : int;
  audit_violations : int;  (* protocol-invariant violations; 0 expected *)
  oracle_violations : int;  (* fault-oracle violations; 0 without a fault plan *)
  oracle : Fault.Oracle.t option;  (* present iff a fault plan was run *)
  retirement : Steady.Controller.t option;  (* present iff a finite window ran *)
}

let attribution_of_trace trace =
  Inference.Attribution.infer ~rates:(Inference.Yajnik.estimate trace) trace

type loss_model = Run_types.loss_model =
  | Attributed of Inference.Attribution.t
  | Ground_truth of Mtrace.Bitset.t array
  | Streamed of Mtrace.Stream_loss.t

(* A run is shardable when nothing in it needs a global view during
   execution: no tracer (its event stream interleaves all members), no
   LMS (subcasts route by global replier state), no lossy
   recovery/session drops (they draw from the drop RNG per walked
   branch, which shard-pruned walks would desynchronise), and no
   link-jitter fault events (per-crossing jitter draws, same problem).
   Everything else — crashes, partitions, outage and duplication
   windows, heterogeneous delays, data jitter — replays identically on
   every shard. *)
let shardable ~shards ~tracer ~fault_plan ~setup ~steady ~domains protocol =
  shards > 1 && tracer = None && domains = None
  && (not setup.lossy_recovery)
  && (not setup.lossy_sessions)
  && (match protocol with Lms_protocol -> false | _ -> true)
  (* Streaming sends shard fine (the reserved-seq chain replays
     identically per shard), but a finite retirement window needs the
     global delivered-prefix minimum mid-run, and records-off mode
     conflicts with the shard workers' record-tagging observer — both
     stay serial. *)
  && (match steady with
     | Some c ->
         c.Steady.Config.window = None && c.Steady.Config.retain_records
     | None -> true)
  &&
  match fault_plan with
  | None -> true
  | Some plan ->
      List.for_all
        (function Fault.Plan.Link_jitter _ -> false | _ -> true)
        plan.Fault.Plan.events

let run_model ?(setup = default_setup) ?tracer ?registry ?fault_plan ?(shards = 1) ?steady
    ?domains ?cache_policy protocol trace loss_model =
  (* [cache_policy] overrides the CESRM config's retention scheme — the
     CLI/bench lever; a no-op for SRM and LMS, and omitting it leaves
     the config (hence the default scheme's bits) untouched. *)
  let protocol =
    match (protocol, cache_policy) with
    | Cesrm_protocol config, Some retention -> Cesrm_protocol { config with Cesrm.Host.retention }
    | _ -> protocol
  in
  (* A fault plan switches on the robustness extensions unless the
     caller pinned them: session-driven request re-arm (bounds
     post-heal recovery latency by the session period instead of the
     2^k back-off) and CESRM's replier retry back-off. Unfaulted runs
     keep the paper-faithful defaults bit-for-bit. *)
  let setup =
    match fault_plan with
    | Some _ when setup.params.Srm.Params.rearm_backoff = None ->
        {
          setup with
          params =
            {
              setup.params with
              Srm.Params.rearm_backoff = Some setup.params.Srm.Params.session_period;
            };
        }
    | _ -> setup
  in
  let protocol =
    match (protocol, fault_plan) with
    | Cesrm_protocol config, Some _ when config.Cesrm.Host.replier_failure_limit = None ->
        Cesrm_protocol { config with Cesrm.Host.replier_failure_limit = Some 8 }
    | _ -> protocol
  in
  let tree = Mtrace.Trace.tree trace in
  (* Recovery domains: built once (pure topology, no randomness) and
     shared by every host. Scoped request timers aim at arbitrary
     designated repliers, whose distances the session exchange never
     converges for — domain runs therefore force true tree distances
     (the converged steady state, as scale runs already do). With
     [domains] absent nothing here touches the setup, so flat runs stay
     byte-identical. *)
  let domain = Option.map (fun spec -> Rdomain.of_tree ~tree spec) domains in
  let setup =
    match domain with
    | Some _ ->
        (* Domain timers fire on local round-trips, so session-driven
           detection additionally needs the in-flight allowance (see
           {!Srm.Params.domain_inflight_period}) — anchor it to the
           trace's send period unless the caller pinned one. *)
        let params = setup.params in
        let params =
          if params.Srm.Params.oracle_distances then params
          else { params with Srm.Params.oracle_distances = true }
        in
        let params =
          match params.Srm.Params.domain_inflight_period with
          | Some _ -> params
          | None ->
              { params with Srm.Params.domain_inflight_period = Some (Mtrace.Trace.period trace) }
        in
        if params == setup.params then setup else { setup with params }
    | None -> setup
  in
  (match (domain, protocol) with
  | Some _, Lms_protocol -> invalid_arg "Runner.run_model: domains are an SRM/CESRM mode"
  | _ -> ());
  let n_packets = Mtrace.Trace.n_packets trace in
  let period = Mtrace.Trace.period trace in
  (* Any steady config switches the sources to chain-armed streaming
     sends (byte-identical to the eager loop, lazy event production);
     the window and record levers are applied below where the hosts
     and collectors exist. *)
  let streaming_sends = Option.is_some steady in
  let drop_recs =
    match steady with Some c -> not c.Steady.Config.retain_records | None -> false
  in
  let serial () =
    let engine = Sim.Engine.create ~seed:setup.seed () in
    let network =
      if setup.heterogeneous_delays then begin
        (* Per-link delays log-uniform in [link_delay/3, 3·link_delay]:
           the real MBone had heterogeneous latencies; the paper used a
           uniform delay, so this is a robustness probe. *)
        let rng = Sim.Rng.split (Sim.Engine.rng engine) in
        let delays =
          Array.init (Net.Tree.n_nodes tree) (fun l ->
              if l = 0 then 0.
              else Sim.Rng.log_uniform rng (setup.link_delay /. 3.) (3. *. setup.link_delay))
        in
        Net.Network.create_heterogeneous ~engine ~tree ~delays
          ~bandwidth_bps:setup.bandwidth_bps ()
      end
      else
        Net.Network.create ~engine ~tree ~link_delay:setup.link_delay
          ~bandwidth_bps:setup.bandwidth_bps ()
    in
    let rates =
      if setup.lossy_recovery || setup.lossy_sessions then Inference.Yajnik.estimate trace
      else Array.make (Net.Tree.n_nodes tree) 0.
    in
    let drop_rng = Sim.Rng.split (Sim.Engine.rng engine) in
    Net.Network.set_drop network
      (Run_types.make_drop ~loss_model ~lossy_recovery:setup.lossy_recovery
         ~lossy_sessions:setup.lossy_sessions ~rates ~rng:drop_rng);
    (* Every run is audited against the global protocol invariants; LMS
       retries legitimately repeat expedited requests, so its bound is
       loose. *)
    let audit =
      Audit.attach
        ~expect_in_order:(setup.data_jitter <= 0.)
        ~max_exp_per_loss:(match protocol with Lms_protocol -> 64 | _ -> 1)
        network
    in
    (* A finite window gets a retirement controller; the auditor's
       per-packet tables retire with the hosts'. Member closures are
       registered per protocol arm below. *)
    let controller =
      match steady with
      | Some { Steady.Config.window = Some w; _ } ->
          Some (Steady.Controller.create ~window:w ~n_packets)
      | _ -> None
    in
    Option.iter
      (fun c -> Steady.Controller.on_retire c (fun ~upto -> Audit.retire_below audit ~upto))
      controller;
    (* Records-off mode must feed the latency histograms online — once
       the run ends the records are gone. Attached before the engine
       runs; the adds land in the same insertion order the end-of-run
       fold would use, so the histograms are bit-identical. *)
    let setup_steady_records recoveries =
      if drop_recs then begin
        Stats.Recovery.drop_records recoveries;
        (* Flush finalized per-loss spans (the makespan figure) as the
           stability horizon advances, keeping the span table bounded
           like the rest of the records-off state. *)
        Option.iter
          (fun c ->
            Steady.Controller.on_retire c (fun ~upto ->
                Stats.Recovery.retire_spans recoveries ~upto))
          controller;
        Option.iter
          (fun reg ->
            let rtts = Run_types.source_rtts ~tree ~delay:(Net.Network.link_delay network) in
            let is_receiver node = node <> 0 && Net.Tree.is_leaf tree node in
            Instrument.attach_recovery_hists_online reg
              ~rtt_of:(fun node -> if is_receiver node then Some rtts.(node) else None)
              recoveries)
          registry
      end
    in
    (* Tracing piggybacks on the packet tap (composed after the
       auditor's) and, per member, on the SRM hooks — attached only when
       a tracer was passed, so the untraced run is the seed code path. *)
    let stride = n_packets + 1 in
    Option.iter (fun tr -> Instrument.attach_network ~trace:tr ~stride network) tracer;
    (* The fault oracle's network tap composes after the auditor's and
       the tracer's; its per-member hook wrappers are added as each
       protocol arm deploys (after CESRM installed its own hooks). *)
    let oracle = Option.map (fun _ -> Fault.Oracle.create ~network ()) fault_plan in
    (* Churn: the oracle's packet-stream checks consult a membership
       timeline, seeded with the plan's initial absentees (late joiners
       are outside the group from time 0) and appended to as each
       join/leave timer fires (inside [compile_faults] below). *)
    Option.iter
      (fun o ->
        Option.iter
          (fun plan ->
            List.iter
              (fun node -> Fault.Oracle.note_membership o ~node ~at:0. ~member:false)
              (Fault.Plan.initial_absentees plan))
          fault_plan)
      oracle;
    (* Losses forgiven by departures: detected but still pending when
       the member left the group (it was not present for their full
       recovery windows), so end-of-run liveness accounting excludes
       them. *)
    let forgiven = ref 0 in
    let trace_host srm_host =
      Option.iter (fun tr -> Instrument.attach_srm_host ~trace:tr ~stride srm_host) tracer;
      Option.iter (fun o -> Fault.Oracle.attach_host o srm_host) oracle
    in
    (* A joiner's detection-window baseline: how many packets the
       source has put on the wire by now. Computed from the send
       schedule rather than the source host's state — the arithmetic is
       a pure function of the join time, so a sharded run (where the
       source host lives on one shard only) baselines identically. With
       send jitter the analytic count can be off by the packet
       straddling the join instant, which only shifts whether the
       joiner bothers recovering that one boundary packet — never
       whether liveness charges it. *)
    let join_baselines () =
      let at = Sim.Engine.now engine in
      let sent = 1 + int_of_float (Float.floor ((at -. setup.warmup) /. period)) in
      let sent = max 0 (min n_packets sent) in
      if sent = 0 then [] else [ (0, sent) ]
    in
    let compile_faults ?(on_join = fun ~node:_ -> ()) ?(on_leave = fun ~node:_ -> ()) ~on_restart
        () =
      Option.iter
        (fun plan ->
          Fault.Plan.compile ~network ~on_restart
            ~on_join:(fun ~node ->
              Option.iter
                (fun o ->
                  Fault.Oracle.note_membership o ~node ~at:(Sim.Engine.now engine) ~member:true)
                oracle;
              on_join ~node)
            ~on_leave:(fun ~node ->
              Option.iter
                (fun o ->
                  Fault.Oracle.note_membership o ~node ~at:(Sim.Engine.now engine) ~member:false;
                  Fault.Oracle.forget_node o ~node)
                oracle;
              on_leave ~node)
            plan)
        fault_plan
    in
    let finish ~counters ~recoveries ~exp_requests ~exp_replies ~detected ~publish =
      let horizon = Run_types.horizon ~setup ~n_packets ~period in
      (* The epoch tick drives retirement from inside the engine: no
         packets, no RNG, one reserved event seq per tick (a uniform
         shift of later seqs — same-time orderings are unchanged). *)
      Option.iter
        (fun c ->
          match
            Steady.Config.epoch_period
              (match steady with Some cfg -> cfg | None -> assert false)
              ~period
          with
          | Some every ->
              Sim.Engine.every_epoch engine ~every ~until:horizon (fun () ->
                  Steady.Controller.tick c)
          | None -> ())
        controller;
      Sim.Engine.run ~until:horizon engine;
      Option.iter
        (fun o ->
          Fault.Oracle.finalize o;
          List.iter
            (fun v -> Stats.Counters.bump counters ~node:v.Fault.Oracle.node Stats.Counters.Oracle)
            (Fault.Oracle.violations o))
        oracle;
      let rtts = Run_types.source_rtts ~tree ~delay:(Net.Network.link_delay network) in
      let is_receiver node = node <> 0 && Net.Tree.is_leaf tree node in
      let rtt_to_source =
        Array.to_list
          (Array.map (fun node -> (node, rtts.(node))) (Net.Tree.receivers tree))
      in
      Option.iter
        (fun reg ->
          Sim.Engine.publish_metrics engine reg;
          Net.Network.publish_metrics network reg;
          publish reg;
          Option.iter (fun c -> Steady.Controller.publish_metrics c reg) controller;
          Obs.Registry.incr ~by:(Stats.Recovery.count recoveries) reg "recovery/recovered";
          Option.iter
            (fun o -> Obs.Registry.incr ~by:(Fault.Oracle.n_violations o) reg "fault/oracle_violations")
            oracle;
          (* a no-op in records-off mode (the records are gone; the
             online observer already fed the histograms) *)
          Instrument.attach_recovery_hists reg
            ~rtt_of:(fun node -> if is_receiver node then Some rtts.(node) else None)
            recoveries)
        registry;
      let recovered = Stats.Recovery.count recoveries in
      {
        trace;
        protocol;
        setup;
        counters;
        recoveries;
        cost = Net.Network.cost network;
        rtt_to_source;
        exp_requests;
        exp_replies;
        unrecovered = detected () - recovered - !forgiven;
        detected = detected ();
        forgiven = !forgiven;
        audit_violations = List.length (Audit.violations audit);
        oracle_violations = (match oracle with None -> 0 | Some o -> Fault.Oracle.n_violations o);
        oracle;
        retirement = controller;
      }
    in
    match protocol with
    | Srm_protocol ->
        let proto =
          Srm.Proto.deploy ?domain ~network ~params:setup.params ~n_packets ~period ()
        in
        List.iter (fun (_, h) -> trace_host h) (Srm.Proto.members proto);
        setup_steady_records (Srm.Proto.recoveries proto);
        Option.iter
          (fun c ->
            List.iter
              (fun (node, h) ->
                Steady.Controller.add_member c
                  {
                    Steady.Controller.node;
                    delivered_prefix = (fun () -> Srm.Host.delivered_prefix h);
                    retire = (fun ~upto -> Srm.Host.retire_below h ~upto);
                  })
              (Srm.Proto.members proto))
          controller;
        compile_faults
          ~on_join:(fun ~node ->
            Option.iter
              (fun h -> Srm.Host.join h ~baselines:(join_baselines ()))
              (List.assoc_opt node (Srm.Proto.members proto)))
          ~on_leave:(fun ~node ->
            (* The departing host drops all soft state (forgiving its
               pending losses); every remaining member forgets the
               session state naming it. *)
            List.iter
              (fun (n, h) ->
                if n = node then forgiven := !forgiven + Srm.Host.depart h
                else Srm.Host.forget_peer h node)
              (Srm.Proto.members proto))
          ~on_restart:(fun ~node ->
            Option.iter Srm.Host.restart_recovery (List.assoc_opt node (Srm.Proto.members proto)))
          ();
        Srm.Proto.start ~send_jitter:setup.data_jitter ~streaming:streaming_sends proto
          ~warmup:setup.warmup ~tail:setup.tail;
        let detected () =
          List.fold_left (fun acc (_, h) -> acc + Srm.Host.detected_losses h) 0 (Srm.Proto.members proto)
        in
        let publish reg =
          List.iter (fun (_, h) -> Srm.Host.publish_metrics h reg) (Srm.Proto.members proto)
        in
        finish ~counters:(Srm.Proto.counters proto) ~recoveries:(Srm.Proto.recoveries proto)
          ~exp_requests:0 ~exp_replies:0 ~detected ~publish
    | Cesrm_protocol config ->
        let proto =
          Cesrm.Proto.deploy ~config ?domain ~network ~params:setup.params ~n_packets ~period ()
        in
        (* After deploy: the CESRM hosts have installed their own hooks,
           which the tracer chains onto rather than replaces. *)
        List.iter (fun (_, h) -> trace_host (Cesrm.Host.srm h)) (Cesrm.Proto.members proto);
        setup_steady_records (Cesrm.Proto.recoveries proto);
        Option.iter
          (fun c ->
            List.iter
              (fun (node, h) ->
                Steady.Controller.add_member c
                  {
                    Steady.Controller.node;
                    delivered_prefix =
                      (fun () -> Srm.Host.delivered_prefix (Cesrm.Host.srm h));
                    retire = (fun ~upto -> Cesrm.Host.retire_below h ~upto);
                  })
              (Cesrm.Proto.members proto))
          controller;
        compile_faults
          ~on_join:(fun ~node ->
            Option.iter
              (fun h -> Srm.Host.join (Cesrm.Host.srm h) ~baselines:(join_baselines ()))
              (List.assoc_opt node (Cesrm.Proto.members proto)))
          ~on_leave:(fun ~node ->
            (* Beyond the SRM departure, every remaining member
               invalidates its cached expedited pairs naming the
               departed replier — CESRM falls back to SRM recovery
               instead of unicasting a ghost. *)
            List.iter
              (fun (n, h) ->
                if n = node then begin
                  forgiven := !forgiven + Cesrm.Host.depart h
                end
                else begin
                  Cesrm.Host.invalidate_replier h ~replier:node;
                  Srm.Host.forget_peer (Cesrm.Host.srm h) node
                end)
              (Cesrm.Proto.members proto))
          ~on_restart:(fun ~node ->
            Option.iter
              (fun h ->
                Cesrm.Host.reset_caches h;
                Srm.Host.restart_recovery (Cesrm.Host.srm h))
              (List.assoc_opt node (Cesrm.Proto.members proto)))
          ();
        Cesrm.Proto.start ~send_jitter:setup.data_jitter ~streaming:streaming_sends proto
          ~warmup:setup.warmup ~tail:setup.tail;
        let detected () =
          List.fold_left
            (fun acc (_, h) -> acc + Srm.Host.detected_losses (Cesrm.Host.srm h))
            0 (Cesrm.Proto.members proto)
        in
        let publish reg =
          List.iter (fun (_, h) -> Cesrm.Host.publish_metrics h reg) (Cesrm.Proto.members proto)
        in
        let result =
          finish ~counters:(Cesrm.Proto.counters proto) ~recoveries:(Cesrm.Proto.recoveries proto)
            ~exp_requests:0 ~exp_replies:0 ~detected ~publish
        in
        {
          result with
          exp_requests = Cesrm.Proto.expedited_requests proto;
          exp_replies = Cesrm.Proto.expedited_replies proto;
        }
    | Lms_protocol ->
        let proto = Lms.Proto.deploy ~network ~n_packets ~period () in
        setup_steady_records (Lms.Proto.recoveries proto);
        Option.iter
          (fun c ->
            List.iter
              (fun (node, h) ->
                Steady.Controller.add_member c
                  {
                    Steady.Controller.node;
                    delivered_prefix = (fun () -> Lms.Host.delivered_prefix h);
                    retire = (fun ~upto -> Lms.Host.retire_below h ~upto);
                  })
              (Lms.Proto.members proto))
          controller;
        (* LMS hosts carry no SRM soft state; crashes just toggle the
           enabled flag, and the oracle checks network-level invariants
           only. *)
        compile_faults ~on_restart:(fun ~node:_ -> ()) ();
        Lms.Proto.start ~streaming:streaming_sends proto ~warmup:setup.warmup ~tail:setup.tail;
        let publish reg =
          List.iter (fun (_, h) -> Lms.Host.publish_metrics h reg) (Lms.Proto.members proto)
        in
        finish ~counters:(Lms.Proto.counters proto) ~recoveries:(Lms.Proto.recoveries proto)
          ~exp_requests:0 ~exp_replies:0
          ~detected:(fun () -> Lms.Proto.detected proto)
          ~publish
  in
  if not (shardable ~shards ~tracer ~fault_plan ~setup ~steady ~domains protocol) then serial ()
  else begin
    (* Replicate the per-link delays the workers will draw — same seed,
       same split, same sequence — to partition on true cut delays. *)
    let delay =
      if setup.heterogeneous_delays then begin
        let engine = Sim.Engine.create ~seed:setup.seed () in
        let rng = Sim.Rng.split (Sim.Engine.rng engine) in
        let delays =
          Array.init (Net.Tree.n_nodes tree) (fun l ->
              if l = 0 then 0.
              else Sim.Rng.log_uniform rng (setup.link_delay /. 3.) (3. *. setup.link_delay))
        in
        fun l -> delays.(l)
      end
      else fun _ -> setup.link_delay
    in
    let partition = Net.Partition.make ~tree ~delay ~shards in
    if partition.Net.Partition.n_shards < 2 then serial ()
    else
      Parallel.run ~partition ~delay ?registry ?fault_plan ~setup ~streaming:streaming_sends
        protocol trace loss_model
  end

let run ?setup ?tracer ?registry ?fault_plan ?shards ?steady ?domains ?cache_policy protocol trace
    attribution =
  run_model ?setup ?tracer ?registry ?fault_plan ?shards ?steady ?domains ?cache_policy protocol
    trace (Attributed attribution)

(* Harness tuning for the synthetic scale scenarios. Classic SRM
   settings assume a ~10–50 member group; at 10^3–10^4 members the
   session machinery is quadratic in aggregate (n messages of n
   deliveries per period, n^2 echo state) and the default-distance
   timers collapse into reply implosion. Scale runs therefore model
   the converged steady state the paper's Section 4.3 assumes: true
   tree distances ([oracle_distances]), session ticks from the source
   only ([session_sources_only] — its max-seq advertisements are what
   tail-loss detection needs), and a capped echo table should sessions
   be re-enabled by hand. Deep chains additionally shrink the per-link
   delay so the source-to-leaf path stays within the recovery timers'
   reach. Caller-pinned option values win. *)
let scale_setup ?domains ~family ~n_members setup =
  let session_echo_limit =
    match setup.params.Srm.Params.session_echo_limit with
    | Some _ as pinned -> pinned
    | None -> Some 32
  in
  (* Probabilistic-suppression windows widen as log2(n): with fixed C2
     and D2 the number of same-event requests and replies that fire
     before the first one propagates grows linearly with the group —
     reply implosion, and each un-suppressed reply is an O(n)-delivery
     flood. Log-widening is the static version of what the paper's
     adaptive timers converge to in large groups; the price is
     recovery latency growing with the window. Recovery domains shrink
     the suppression population from the whole group to one domain, so
     the window narrows to log2(domain bound) — the latency win local
     recovery exists for. *)
  let suppression_pop =
    match domains with
    | None -> n_members
    | Some spec -> Rdomain.spec_members ~n_members spec
  in
  let spread =
    Float.max 1. (3. *. Float.log (float_of_int (max 2 suppression_pop)) /. Float.log 2.)
  in
  let params =
    {
      setup.params with
      Srm.Params.session_echo_limit;
      oracle_distances = true;
      session_sources_only = true;
      c2 = Float.max setup.params.Srm.Params.c2 spread;
      d2 = Float.max setup.params.Srm.Params.d2 spread;
    }
  in
  let link_delay =
    match family with Mtrace.Scale.Deep_chain -> 0.001 | _ -> setup.link_delay
  in
  { setup with params; link_delay }

let tune_for_trace ?domains trace setup =
  match Mtrace.Scale.family_of_name (Mtrace.Trace.name trace) with
  | None -> setup
  | Some family ->
      let n_members = 1 + Array.length (Net.Tree.receivers (Mtrace.Trace.tree trace)) in
      scale_setup ?domains ~family ~n_members setup

let run_leg ?(setup = default_setup) ?registry ?n_packets ?fault ?shards ?steady ?domains
    ?cache_policy ~seed protocol row =
  let scale_family = Mtrace.Scale.family_of_name row.Mtrace.Meta.name in
  (* A steady run over a scale row never materializes the event list:
     the trace comes from the streaming generator (lazy per-link loss
     chains, O(links) setup), so a million-packet leg starts instantly.
     Legacy table rows need the full bits for attribution and keep the
     eager path regardless. *)
  let stream_trace =
    (match steady with Some c -> Steady.Config.streaming c | None -> false)
    && (match scale_family with
       | Some f -> Mtrace.Scale.supports_streaming f
       | None -> false)
  in
  let trace, loss_model =
    if stream_trace then begin
      let g = Mtrace.Generator.synthesize_streaming ~seed ?n_packets row in
      (g.Mtrace.Generator.s_trace, Streamed g.Mtrace.Generator.s_loss)
    end
    else begin
      let generated = Mtrace.Generator.synthesize ~seed ?n_packets row in
      let trace = generated.Mtrace.Generator.trace in
      (* Scale scenarios inject the generator's own Gilbert link states
         directly; trace-sized rows replay the paper's inference
         pipeline. *)
      ( trace,
        match scale_family with
        | None -> Attributed (attribution_of_trace trace)
        | Some _ -> Ground_truth generated.Mtrace.Generator.link_bad )
    end
  in
  let setup = tune_for_trace ?domains trace setup in
  let fault_plan =
    Option.map
      (fun name ->
        let tree = Mtrace.Trace.tree trace in
        let duration = float_of_int (Mtrace.Trace.n_packets trace) *. Mtrace.Trace.period trace in
        match Fault.Plan.canned ~tree ~warmup:setup.warmup ~duration name with
        | Some plan -> plan
        | None -> invalid_arg (Printf.sprintf "Runner.run_leg: unknown canned fault plan %S" name))
      fault
  in
  run_model ~setup:{ setup with seed } ?registry ?fault_plan ?shards ?steady ?domains ?cache_policy
    protocol trace loss_model

let normalized_recovery result ~node ~filter =
  let rtt = List.assoc node result.rtt_to_source in
  Stats.Recovery.latency_summary result.recoveries
    ~normalize:(fun _ -> rtt)
    ~filter:(fun r -> r.Stats.Recovery.node = node && filter r)
