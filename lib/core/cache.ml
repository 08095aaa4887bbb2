type entry = {
  seq : int;
  requestor : int;
  d_qs : float;
  replier : int;
  d_rq : float;
  turning_point : int option;
}

let recovery_delay e = e.d_qs +. (2. *. e.d_rq)

(* A cached tuple plus the retention metadata the non-default schemes
   rank and evict on. The default scheme reads none of it, so the
   [Recent] arm below is the seed algorithm verbatim (the determinism
   goldens pin its bits). *)
type slot = {
  e : entry;
  born : float; (* virtual time this seq first entered the cache *)
  mutable used : float; (* last use: digest, improvement, or policy hit *)
}

type t = {
  capacity : int;
  scheme : Retention.scheme;
  (* Ranking-order invariant: [Recent]/[Ttl]/[Hotspot] keep slots
     sorted by seq descending (the seed order); [Lru] keeps them
     most-recently-used first. *)
  mutable slots : slot list;
  (* Hotspot only: (requestor, replier) -> (score, last bump time). *)
  pair_heat : (int * int, float * float) Hashtbl.t;
  mutable evictions : int; (* capacity-driven removals *)
  mutable expiries : int; (* TTL-driven removals *)
  mutable hits : int; (* policy selections acted on (see [touch]) *)
}

let create ?(retention = Retention.Recent) ~capacity () =
  if capacity < 1 then invalid_arg "Cache.create: capacity >= 1 required";
  {
    capacity;
    scheme = retention;
    slots = [];
    pair_heat = Hashtbl.create 8;
    evictions = 0;
    expiries = 0;
    hits = 0;
  }

let capacity t = t.capacity

let scheme t = t.scheme

let size t = List.length t.slots

let evictions t = t.evictions

let expiries t = t.expiries

let hits t = t.hits

(* TTL expiry happens on every timed access — digest or lookup — so no
   entry older than the horizon ever survives one (the qcheck law). An
   access with no [now] (the untimed legacy call sites) purges
   nothing. *)
let purge_expired t ~now =
  match t.scheme with
  | Retention.Ttl horizon ->
      let live, dead = List.partition (fun s -> now -. s.born <= horizon) t.slots in
      if dead <> [] then begin
        t.expiries <- t.expiries + List.length dead;
        t.slots <- live
      end
  | _ -> ()

let pair_key e = (e.requestor, e.replier)

(* Current hotspot score of a pair: the stored score decayed by the
   time elapsed since its last bump. Relative order between two pairs
   is invariant under pure time passage (both decay by the same
   factor), so ranking only moves when a digest bumps a pair. *)
let heat t ~now key =
  match Hashtbl.find_opt t.pair_heat key with
  | None -> 0.
  | Some (score, last) ->
      let half_life =
        match t.scheme with Retention.Hotspot hl -> hl | _ -> infinity
      in
      score *. Float.exp (-.Float.log 2. *. Float.max 0. (now -. last) /. half_life)

let bump_heat t ~now key =
  let score = heat t ~now key in
  Hashtbl.replace t.pair_heat key (score +. 1., now)

let ranked ?now t =
  match t.scheme with
  | Retention.Hotspot _ ->
      let now = Option.value now ~default:0. in
      List.stable_sort
        (fun a b -> compare (heat t ~now (pair_key b.e)) (heat t ~now (pair_key a.e)))
        t.slots
  | _ -> t.slots

let entries ?now t =
  (match now with Some now -> purge_expired t ~now | None -> ());
  List.map (fun s -> s.e) (ranked ?now t)

let most_recent ?now t = match entries ?now t with [] -> None | e :: _ -> Some e

let first_entry ?now t ~keep =
  (match now with Some now -> purge_expired t ~now | None -> ());
  let rec first = function
    | [] -> None
    | s :: tl -> if keep s.e then Some s.e else first tl
  in
  first (ranked ?now t)

(* Stand-in for "no slot" in the closure-free lookups below. *)
let no_slot =
  {
    e =
      {
        seq = min_int;
        requestor = -1;
        d_qs = Float.nan;
        replier = -1;
        d_rq = Float.nan;
        turning_point = None;
      };
    born = Float.nan;
    used = Float.nan;
  }

let rec slot_of seq = function
  | [] -> no_slot
  | s :: tl -> if s.e.seq = seq then s else slot_of seq tl

let find ?now t ~seq =
  (match now with Some now -> purge_expired t ~now | None -> ());
  let s = slot_of seq t.slots in
  if s == no_slot then None else Some s.e

let clear t =
  t.slots <- [];
  Hashtbl.reset t.pair_heat

let expire_replier t ~replier = t.slots <- List.filter (fun s -> s.e.replier <> replier) t.slots

let seq_desc a b = compare b.e.seq a.e.seq

let replace_entry t e = List.map (fun s -> if s.e.seq = e.seq then { s with e } else s) t.slots

let rec min_seq acc = function [] -> acc | s :: tl -> min_seq (Int.min acc s.e.seq) tl

(* [slot] placed into the seq-descending list [l], whose slots all have
   other seqs, dropping the slot holding [drop] ([min_int]: none). Seqs
   in a cache are distinct, so this is exactly the order a sort of
   [slot :: l] minus [drop] gives, with the tail below [slot] shared
   instead of copied when nothing is dropped. *)
let rec insert_desc slot ~drop l =
  match l with
  | [] -> [ slot ]
  | s :: tl ->
      if s.e.seq = drop then insert_desc slot ~drop tl
      else if s.e.seq > slot.e.seq then s :: insert_desc slot ~drop tl
      else slot :: (if drop = min_int then l else remove_seq drop l)

and remove_seq seq = function
  | [] -> []
  | s :: tl -> if s.e.seq = seq then tl else s :: remove_seq seq tl

(* The seed scheme, bit-for-bit: same-seq tuples replaced only when
   strictly better, eviction by least-recent seq, stale seqs ignored on
   a full cache. Closure-free: every digested reply runs it. *)
let note_reply_recent t ~now e =
  let existing = slot_of e.seq t.slots in
  if existing != no_slot then
    if recovery_delay e < recovery_delay existing.e then begin
      t.slots <- replace_entry t e;
      `Updated
    end
    else `Ignored
  else begin
    let full = size t >= t.capacity in
    let least_recent_seq = min_seq max_int t.slots in
    if full && e.seq < least_recent_seq then `Ignored
    else begin
      let drop =
        if full then begin
          t.evictions <- t.evictions + 1;
          least_recent_seq
        end
        else min_int
      in
      t.slots <- insert_desc { e; born = now; used = now } ~drop t.slots;
      `Inserted
    end
  end

(* True-LRU: any digest for a cached seq is a use (hit refreshes
   recency — the qcheck law), the tuple itself still only improves when
   strictly better; new seqs always enter (even stale ones — use
   recency, not packet recency, decides retention), evicting the least
   recently used slot when full. *)
let note_reply_lru t ~now e =
  match List.find_opt (fun s -> s.e.seq = e.seq) t.slots with
  | Some s ->
      let better = recovery_delay e < recovery_delay s.e in
      let s = if better then { s with e; used = now } else (s.used <- now; s) in
      t.slots <- s :: List.filter (fun x -> x.e.seq <> e.seq) t.slots;
      if better then `Updated else `Ignored
  | None ->
      if size t >= t.capacity then begin
        let victim =
          List.fold_left
            (fun (acc : slot) s ->
              if s.used < acc.used || (s.used = acc.used && s.e.seq < acc.e.seq) then s
              else acc)
            (List.hd t.slots) t.slots
        in
        t.evictions <- t.evictions + 1;
        t.slots <- List.filter (fun s -> s != victim) t.slots
      end;
      t.slots <- { e; born = now; used = now } :: t.slots;
      `Inserted

(* TTL is the seed scheme over the unexpired view; [purge_expired] ran
   before this. *)
let note_reply_ttl = note_reply_recent

(* Hotspot: every digest bumps the pair's decayed score; eviction
   drops the coldest pair's tuple (ties toward the oldest seq), and new
   seqs always enter — pair heat, not packet recency, decides
   retention. *)
let note_reply_hotspot t ~now e =
  bump_heat t ~now (pair_key e);
  match List.find_opt (fun s -> s.e.seq = e.seq) t.slots with
  | Some s ->
      if recovery_delay e < recovery_delay s.e then begin
        t.slots <- replace_entry t e;
        `Updated
      end
      else `Ignored
  | None ->
      if size t >= t.capacity then begin
        let victim =
          List.fold_left
            (fun (acc : slot) s ->
              let hs = heat t ~now (pair_key s.e) and ha = heat t ~now (pair_key acc.e) in
              if hs < ha || (hs = ha && s.e.seq < acc.e.seq) then s else acc)
            (List.hd t.slots) t.slots
        in
        t.evictions <- t.evictions + 1;
        t.slots <- List.filter (fun s -> s != victim) t.slots
      end;
      t.slots <- List.sort seq_desc ({ e; born = now; used = now } :: t.slots);
      `Inserted

let note_reply ?(now = 0.) t e =
  purge_expired t ~now;
  match t.scheme with
  | Retention.Recent -> note_reply_recent t ~now e
  | Retention.Lru -> note_reply_lru t ~now e
  | Retention.Ttl _ -> note_reply_ttl t ~now e
  | Retention.Hotspot _ -> note_reply_hotspot t ~now e

let touch ?(now = 0.) t ~seq =
  t.hits <- t.hits + 1;
  match t.scheme with
  | Retention.Lru -> (
      match List.find_opt (fun s -> s.e.seq = seq) t.slots with
      | Some s ->
          s.used <- now;
          t.slots <- s :: List.filter (fun x -> x != s) t.slots
      | None -> ())
  | _ -> ()

let most_frequent_of entries =
  match entries with
  | [] -> None
  | es ->
      (* Count (requestor, replier) pair occurrences; entries are most
         recent first, so the first representative of a pair is its
         most recent tuple, and [max] on (count, position) breaks ties
         toward recency. *)
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let key = (e.requestor, e.replier) in
          let count, first = Option.value (Hashtbl.find_opt tbl key) ~default:(0, e) in
          Hashtbl.replace tbl key (count + 1, first))
        es;
      let best =
        List.fold_left
          (fun acc e ->
            let count, first = Hashtbl.find tbl (e.requestor, e.replier) in
            match acc with
            | Some (best_count, _) when best_count >= count -> acc
            | _ -> Some (count, first))
          None es
      in
      Option.map snd best

let most_frequent ?now t = most_frequent_of (entries ?now t)
