(** SRM session-message exchange and inter-host distance estimation
    (paper Section 2, and the setup assumptions of Section 4.3).

    Every group member periodically multicasts a session message
    carrying its current timestamp, the highest source sequence number
    it has seen, and an echo table: for each peer, the peer's last
    timestamp and how long it was held before being echoed. On hearing
    its own timestamp echoed by peer [m], a member computes
    [rtt = (now − ts) − held] and estimates its one-way distance to [m]
    as [rtt / 2].

    Session messages double as a loss-detection channel: a session
    max-sequence number above the local one reveals tail losses. *)

type t

val create :
  ?echo_limit:int ->
  network:Net.Network.t ->
  self:int ->
  period:float ->
  rng:Sim.Rng.t ->
  get_max_seqs:(unit -> (int * int) list) ->
  on_max_seq:(src:int -> int -> unit) ->
  on_send:(unit -> unit) ->
  unit ->
  t
(** [get_max_seqs] supplies the advertised per-stream sequence numbers;
    [on_max_seq] is invoked for each stream a peer advertises;
    [on_send] is invoked per session message sent (for counting).

    [echo_limit] caps the number of peer echoes per session message
    (default: unlimited — every heard peer is echoed, the classic SRM
    behavior, appropriate for trace-sized groups). When set, the host
    tracks only a bounded ring of recently heard peers and echoes them
    round-robin, [echo_limit] per message, keeping per-member session
    state O(1) in the group size.

    @raise Invalid_argument if [echo_limit] is non-positive. *)

val start : ?jitter:float -> t -> until:float -> unit
(** Begin periodic transmission after a random offset in
    [\[0, jitter\]] (default: one period), stopping at [until]. *)

val on_packet : t -> Net.Packet.t -> unit
(** Feed an incoming session packet. Non-session packets are ignored. *)

val distance : t -> int -> float option
(** Current one-way distance estimate to a peer, if any exchange has
    completed. *)

type estimate = private { mutable d : float }
(** A measured one-way distance, updated in place. *)

val no_estimate : estimate
(** What {!estimate} answers for a peer with no measured distance. *)

type estimates
(** A session's table of measured distances. *)

val estimates : t -> estimates
(** The session's live table. It is the same value for the session's
    whole life ({!reset} and {!forget_peer} empty it in place), so a
    caller may keep it and skip the session record on every read. *)

val estimate : estimates -> int -> estimate
(** The peer's estimate cell, or {!no_estimate}. The call returns a
    pointer, so a caller reading [.d] allocates nothing — unlike a
    float returned across a module boundary, which is boxed. *)

val distance_exn : t -> int -> float
(** @raise Failure when no estimate exists yet — protocol logic should
    only need distances after the warm-up phase. *)

val known_peers : t -> int list

val reset : t -> unit
(** Forget all distance estimates and last-heard state, as a crashed
    host restarting with empty soft state would. Periodic transmission,
    if started, continues. *)

val forget_peer : t -> int -> unit
(** Drop the distance estimate and heard state for one peer — called
    when that peer {e leaves the group}, so a later rejoin starts from
    scratch instead of inheriting a stale estimate. Remaining peers'
    echo rotation is unaffected. *)
