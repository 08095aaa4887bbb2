(** Protocol data units exchanged by SRM / CESRM members.

    Node ids refer to {!Tree} nodes. [sender] is the group member that
    transmitted this PDU (not the interior router currently forwarding
    it). Sequence numbers identify original data packets from the
    (single) source, numbered from 1 as in the paper. *)

type echoes = Float.Array.t
(** A session message's timestamp-echo table, packed: entry [i] is the
    three floats at [3i] (the echoed member's node id), [3i + 1] (the
    timestamp it sent) and [3i + 2] (how long it was held before being
    echoed). The receiver of an echo computes its RTT to the echoing
    peer as [(now - echo_ts) - echo_delay]. Packed rather than a list
    of records so that a message costs one allocation, not four per
    entry. *)

val no_echoes : echoes

val n_echoes : echoes -> int

type payload =
  | Data of { seq : int }
      (** An original transmission ([sender] is the stream's source);
          retransmissions travel as [Reply]. *)
  | Request of {
      src : int;  (** the stream the missing packet belongs to *)
      seq : int;
      requestor : int;
      d_qs : float;  (** requestor's distance estimate to [src] *)
      round : int;  (** recovery round (0-based), for diagnostics *)
    }
  | Reply of {
      src : int;
      seq : int;
      requestor : int;  (** requestor that instigated this reply *)
      d_qs : float;
      replier : int;
      d_rq : float;  (** replier's distance estimate to the requestor *)
      expedited : bool;
      turning_point : int option;
          (** router-assist annotation; [None] without router support *)
    }
  | Exp_request of {
      src : int;
      seq : int;
      requestor : int;
      d_qs : float;
      replier : int;  (** the expeditious replier this is addressed to *)
      turning_point : int option;
    }
  | Session of {
      origin : int;
      sent_at : float;
      max_seqs : (int * int) list;
          (** per stream source, the highest sequence number seen *)
      echoes : echoes;
    }

type t = { sender : int; payload : payload }

val data_bits : int
(** Size of a payload-carrying packet: 1 KB (Section 4.3). *)

val size_bits : t -> int
(** Payload carriers (Data / Reply) are 1 KB; control packets are 0 KB,
    as in the paper's simulation setup. *)

val seq : t -> int option
(** The data sequence number a recovery PDU concerns, if any. *)

val src : t -> int option
(** The stream a data or recovery PDU concerns ([sender] for [Data]). *)

val describe : t -> string
(** Short human-readable form, for logs and debugging. *)
