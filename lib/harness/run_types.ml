(* Definitions shared between the serial runner and the sharded
   parallel runner: [Runner] delegates sharded runs to [Parallel], and
   every [Parallel] worker rebuilds the very same per-run model, so
   the protocol/setup/result types and the pure helpers both sides
   must agree on live here, below both in the dependency order.
   [Runner] re-exports the types with equations; everything outside
   the harness keeps saying [Harness.Runner.setup]. *)

type protocol = Srm_protocol | Cesrm_protocol of Cesrm.Host.config | Lms_protocol

let protocol_name = function
  | Srm_protocol -> "SRM"
  | Cesrm_protocol config -> if config.Cesrm.Host.router_assist then "CESRM+RA" else "CESRM"
  | Lms_protocol -> "LMS"

type setup = {
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

let default_setup =
  {
    link_delay = 0.020;
    bandwidth_bps = 1.5e6;
    params = Srm.Params.default;
    warmup = 5.0;
    tail = 30.0;
    lossy_recovery = false;
    lossy_sessions = false;
    data_jitter = 0.;
    heterogeneous_delays = false;
    seed = 42L;
  }

type result = {
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
      (* losses dropped by membership departures: detected but pending
         when the member left, so liveness does not charge them *)
  audit_violations : int;  (* protocol-invariant violations; 0 expected *)
  oracle_violations : int;  (* fault-oracle violations; 0 without a fault plan *)
  oracle : Fault.Oracle.t option;  (* present iff a fault plan was run *)
  retirement : Steady.Controller.t option;  (* present iff a finite window ran *)
}

type loss_model =
  | Attributed of Inference.Attribution.t
  | Ground_truth of Mtrace.Bitset.t array
  | Streamed of Mtrace.Stream_loss.t

(* Loss injection: drop an original data packet on exactly the links
   the loss model names for it; optionally drop recovery packets per
   estimated link rates. Session traffic is never dropped (Section 4.3
   presumes lossless session exchange).

   [Attributed] replays the paper's Section 4.2 pipeline: each data
   packet is cut on the links maximum-likelihood attribution blames.
   [Ground_truth] skips inference and drops packet [seq] on link [l]
   iff the generator's Gilbert chain had [l] Bad at step [seq - 1] —
   the same indexing [Trace.lost] reads, so the losses receivers
   observe are exactly the trace. Attribution is quadratic-ish in
   receivers and pointless when the generator's own link states are in
   hand, which is what the synthetic scale scenarios use. *)
let make_drop ~loss_model ~lossy_recovery ~lossy_sessions ~rates ~rng =
  let data_cut =
    match loss_model with
    | Ground_truth link_bad ->
        fun ~link ~seq -> Mtrace.Bitset.get link_bad.(link) (seq - 1)
    | Streamed chains ->
        (* Same ground-truth semantics with lazily evaluated chains:
           link [l] drops packet [seq] iff its Gilbert process is Bad
           at that step. Data floods traverse each link in seq order
           (FIFO links, source sends in order), which is exactly the
           monotone access pattern [Stream_loss] requires. *)
        fun ~link ~seq -> Mtrace.Stream_loss.lost chains ~link ~seq
    | Attributed attribution ->
        (* The predicate runs once per link crossing per data packet, so
           each packet's cut set is kept as a per-seq bitset over link
           ids rather than a list to scan. [rates] is sized n_nodes in
           both runner configurations, which bounds every link id. *)
        let n_links = Array.length rates in
        let cut_sets = Hashtbl.create 1024 in
        let cuts_of seq =
          match Hashtbl.find cut_sets seq with
          | cuts -> cuts
          | exception Not_found ->
              let cuts = Mtrace.Bitset.create n_links in
              List.iter (Mtrace.Bitset.set cuts) (Inference.Attribution.cuts attribution ~seq);
              Hashtbl.replace cut_sets seq cuts;
              cuts
        in
        fun ~link ~seq -> Mtrace.Bitset.get (cuts_of seq) link
  in
  fun ~link ~down (p : Net.Packet.t) ->
    match p.payload with
    | Net.Packet.Data { seq } -> down && data_cut ~link ~seq
    | Net.Packet.Session _ -> lossy_sessions && Sim.Rng.bernoulli_in rng rates link
    | Net.Packet.Request _ | Net.Packet.Reply _ | Net.Packet.Exp_request _ ->
        lossy_recovery && Sim.Rng.bernoulli_in rng rates link

let horizon ~setup ~n_packets ~period =
  setup.warmup +. (float_of_int n_packets *. period) +. setup.tail +. 240.

(* Source-to-node RTTs in one top-down pass. Accumulating parent
   distance plus own link delay adds the delays in the same order
   [Net.Network.rtt network 0 node] does, so the values are
   bit-identical to per-receiver path walks — without the quadratic
   cost on deep trees. [delay] is the per-link delay (the serial
   runner passes [Net.Network.link_delay network]; the coordinator of
   a sharded run its own replica of the delay draw). *)
let source_rtts ~tree ~delay =
  let rtts = Array.make (Net.Tree.n_nodes tree) 0. in
  let rec fill v d =
    List.iter
      (fun c ->
        let dc = d +. delay c in
        rtts.(c) <- 2. *. dc;
        fill c dc)
      (Net.Tree.children tree v)
  in
  fill 0 0.;
  rtts
