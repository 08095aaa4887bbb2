(** The per-source optimal requestor/replier cache (paper Section 3.1).

    Each receiver caches, for recovered losses, the requestor/replier
    pair that carried out the recovery, as tuples
    [⟨i, q, d̂_qs, r, d̂_rq⟩]. When several pairs arise for the same
    packet (duplicate requests/replies), only the {e optimal} pair is
    kept — the one minimizing the recovery delay [d̂_qs + 2·d̂_rq].

    {e Which} tuples stay resident is the pluggable part: a
    {!Retention.scheme} decides ranking, eviction and expiry. The
    default ({!Retention.Recent}) is the paper's scheme — keep the most
    recent packets, evict the least recent one when full, ignore
    replies for packets less recent than everything cached — and is
    bit-identical to the pre-policy cache. See {!Retention} for the
    LRU / TTL / hotspot alternatives.

    Timed operations take [?now] (virtual time); without it the TTL
    scheme expires nothing and the hotspot scheme neither decays nor
    ages — the untimed calls are the legacy sites and the default
    scheme ignores time entirely. *)

type entry = {
  seq : int;  (** the recovered packet *)
  requestor : int;
  d_qs : float;  (** requestor's distance estimate to the source *)
  replier : int;
  d_rq : float;  (** replier's distance estimate to the requestor *)
  turning_point : int option;  (** router-assist annotation, if any *)
}

val recovery_delay : entry -> float
(** [d_qs + 2·d_rq] — the optimality measure. *)

type t

val create : ?retention:Retention.scheme -> capacity:int -> unit -> t
(** [retention] defaults to {!Retention.Recent}.
    @raise Invalid_argument if capacity < 1. *)

val capacity : t -> int

val scheme : t -> Retention.scheme

val size : t -> int

val note_reply : ?now:float -> t -> entry -> [ `Inserted | `Updated | `Ignored ]
(** Digest a reply's annotation for a loss this receiver suffered.
    Under every scheme a same-seq tuple is replaced only when strictly
    better ([`Updated]) and kept otherwise ([`Ignored]); what differs
    is retention of {e distinct} seqs. [Recent]/[Ttl]: insert, evict
    the least recent seq when full, ignore stale seqs on a full cache.
    [Lru]: always insert (evicting the least recently {e used} slot);
    any digest for a cached seq refreshes its use recency. [Hotspot]:
    always insert (evicting the coldest pair's slot); every digest
    bumps the named pair's decayed score. *)

val touch : ?now:float -> t -> seq:int -> unit
(** Record that the policy's chosen pair (the tuple cached for [seq])
    was acted on — an expedited request is being scheduled. Counts a
    {!hits}; under [Lru] also refreshes the slot's use recency. No-op
    ranking-wise under the other schemes. *)

val entries : ?now:float -> t -> entry list
(** The retention scheme's ranking, best first: packet recency for
    [Recent]/[Ttl] (most recent seq first, the seed order), use
    recency for [Lru], decayed pair score for [Hotspot] (ties toward
    higher seq). With [now], TTL-expired entries are purged first. *)

val most_recent : ?now:float -> t -> entry option
(** Head of {!entries} — the scheme's best-ranked tuple. *)

val first_entry : ?now:float -> t -> keep:(entry -> bool) -> entry option
(** The best-ranked entry satisfying [keep] — the head of [entries]
    filtered by [keep] — without building either list. *)

val most_frequent : ?now:float -> t -> entry option
(** The pair (requestor, replier) occurring most often, represented by
    its most recent tuple; ties break toward the more recent pair. *)

val most_frequent_of : entry list -> entry option
(** {!most_frequent} over an explicit (best-ranked-first) entry list —
    lets {!Policy} apply it to a filtered view of the cache. *)

val find : ?now:float -> t -> seq:int -> entry option

val clear : t -> unit
(** Empty the cache (crash modelling): slots and hotspot pair scores
    go; the cumulative {!evictions}/{!expiries}/{!hits} counters stay
    (they are end-of-run metrics). *)

val expire_replier : t -> replier:int -> unit
(** Drop every tuple naming [replier]. Retry back-off's last resort
    (Section 3's graceful-degradation story): a replier that keeps
    failing to answer expedited requests — crashed, partitioned — must
    stop being chosen, and with it gone from the cache the next
    SRM-recovered loss repopulates fresh pairs. *)

val evictions : t -> int
(** Capacity-driven removals so far. *)

val expiries : t -> int
(** TTL-driven removals so far (0 under every other scheme). *)

val hits : t -> int
(** {!touch} count — cached pairs acted on by the selection policy. *)
