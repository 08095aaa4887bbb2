(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, made from this
   benchmark: its name, wall-clock start and end, the span that was open
   when it began, and the GC work done inside it. Every span of one
   workload run carries the run id, so spans from the separate passes
   of a run can be joined. Spans stay in memory and are written out
   once, when the pass ends; the timed passes record none. *)

type span = {
  id : int;
  parent : int;  (* 0 = top level *)
  name : string;
  start_s : float;
  mutable end_s : float;
  mutable alloc_bytes : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable promoted_bytes : float;
}

type t = {
  run_id : string;
  t0 : float;
  mutable spans : span list;  (* newest first *)
  mutable open_ : int list;
  mutable next : int;
}

let create ~run_id = { run_id; t0 = Unix.gettimeofday (); spans = []; open_ = []; next = 1 }

let word_bytes = float_of_int (Sys.word_size / 8)

let allocated (s : Gc.stat) = (s.minor_words +. s.major_words -. s.promoted_words) *. word_bytes

(* [with_span t name f] runs [f] inside a span. Without a recorder it
   is just [f ()], so timed and traced passes share one code path. *)
let with_span t name f =
  match t with
  | None -> f ()
  | Some t ->
      let parent = match t.open_ with p :: _ -> p | [] -> 0 in
      let id = t.next in
      t.next <- id + 1;
      let g0 = Gc.quick_stat () in
      let s =
        {
          id;
          parent;
          name;
          start_s = Unix.gettimeofday () -. t.t0;
          end_s = Float.nan;
          alloc_bytes = 0.;
          minor_collections = 0;
          major_collections = 0;
          promoted_bytes = 0.;
        }
      in
      t.spans <- s :: t.spans;
      t.open_ <- id :: t.open_;
      let close () =
        let g1 = Gc.quick_stat () in
        s.end_s <- Unix.gettimeofday () -. t.t0;
        s.alloc_bytes <- allocated g1 -. allocated g0;
        s.minor_collections <- g1.minor_collections - g0.minor_collections;
        s.major_collections <- g1.major_collections - g0.major_collections;
        s.promoted_bytes <- (g1.promoted_words -. g0.promoted_words) *. word_bytes;
        t.open_ <- List.tl t.open_
      in
      Fun.protect ~finally:close f

let spans t = List.rev t.spans

let duration s = s.end_s -. s.start_s

(* Sum of the durations of the spans with this name. *)
let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. t.spans

let to_json t =
  let open Obs.Json in
  Obj
    [
      ("run_id", Str t.run_id);
      ( "spans",
        Arr
          (List.map
             (fun s ->
               Obj
                 [
                   ("id", int s.id);
                   ("parent", int s.parent);
                   ("name", Str s.name);
                   ("start_s", Num s.start_s);
                   ("end_s", Num s.end_s);
                   ("alloc_bytes", Num s.alloc_bytes);
                   ("minor_collections", int s.minor_collections);
                   ("major_collections", int s.major_collections);
                   ("promoted_bytes", Num s.promoted_bytes);
                 ])
             (spans t)) );
    ]
