type t = Most_recent | Most_frequent | Frequency_weighted_recent | Success_biased

let all = [ Most_recent; Most_frequent; Frequency_weighted_recent; Success_biased ]

let name = function
  | Most_recent -> "most-recent"
  | Most_frequent -> "most-frequent"
  | Frequency_weighted_recent -> "freq-recent"
  | Success_biased -> "success-biased"

let of_name s = List.find_opt (fun p -> name p = s) all

let take n xs =
  let rec go n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: go (n - 1) rest in
  go n xs

let choose ?now ?(score = fun ~replier:_ -> 1.) ?(exclude = fun ~replier:_ -> false) policy cache
    =
  (* Every policy works over the cache minus excluded repliers (dead
     ones, per retry back-off); the default exclusion is empty, so the
     view is then the cache itself. The view is already ranked by the
     cache's retention scheme ([now] lets TTL expire and hotspot decay
     first), so "most recent" below means "best-ranked". *)
  let keep (e : Cache.entry) = not (exclude ~replier:e.replier) in
  let view () = List.filter keep (Cache.entries ?now cache) in
  match policy with
  | Most_recent ->
      (* The head of the view, found without building it: this runs on
         every detected loss. *)
      Cache.first_entry ?now cache ~keep
  | Most_frequent -> Cache.most_frequent_of (view ())
  | Success_biased -> (
      let entries = view () in
      (* Most recent entry whose replier has been answering; when every
         known replier disappoints, fall back to plain recency so the
         SRM fallback can repopulate the cache. *)
      match
        List.find_opt (fun (e : Cache.entry) -> score ~replier:e.replier >= 0.5) entries
      with
      | Some e -> Some e
      | None -> ( match entries with [] -> None | e :: _ -> Some e))
  | Frequency_weighted_recent -> (
      (* Most-frequent over a recency window of 8, so stale pairs age
         out faster than with plain most-frequent. *)
      match view () with
      | [] -> None
      | recent -> (
          let window = take 8 recent in
          let count pair =
            List.length
              (List.filter
                 (fun (e : Cache.entry) -> (e.requestor, e.replier) = pair)
                 window)
          in
          match
            List.fold_left
              (fun acc (e : Cache.entry) ->
                let c = count (e.requestor, e.replier) in
                match acc with Some (bc, _) when bc >= c -> acc | _ -> Some (c, e))
              None window
          with
          | Some (_, e) -> Some e
          | None -> None))
