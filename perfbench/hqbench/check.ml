(* Answer checks, run outside the timed window: every served answer is
   compared with the sequential reference [Engine.Reference] evaluated
   from the request's own query text.

   - exact Count-Session answers must be bit-identical;
   - a top-k ranking must be bit-identical to the sequential reference
     of the same bound-pruned algorithm ([Engine.Reference.top_k] with
     the request's strategy), must name only sessions whose exact
     probability it reports bit for bit, and must equal the naive ranking
     (every session evaluated exactly) rank by rank within [tie_eps].

   The reference of a query text is computed once and shared by every
   request asking it. *)

module P = Server.Protocol

type verdict = {
  mutable checked : int;
  mutable wrong : int;
  mutable prob_sum : float;  (** sum of per-request mean probabilities *)
  mutable notes : string list;  (** the first few mismatches *)
  mutable tie_swaps : int;
      (** top-k rankings that differ from the naive one only within
          [tie_eps]: a pruned session whose exact probability is a few
          ULPs above a served one, because the floating-point upper bound
          sits those ULPs below it *)
}

let note v msg =
  v.wrong <- v.wrong + 1;
  if List.length v.notes < 5 then v.notes <- msg :: v.notes

let query_text (e : P.eval) =
  match e.P.query with
  | P.Cq q -> Ppd.Query.to_string q
  | P.Lang { text; _ } -> text

(* Per-session exact probabilities in session order, from the reference. *)
let reference_per_session db text =
  Engine.Reference.per_session db (Ppd.Parser.parse text) (Util.Rng.make 42)

let mean_of rows =
  match rows with
  | [] -> 0.
  | _ -> List.fold_left (fun acc (_, p) -> acc +. p) 0. rows /. float_of_int (List.length rows)

(* The naive ranking: every session exactly, stable-sorted by
   descending probability. *)
let naive_top_k k rows =
  let sorted = List.stable_sort (fun (_, a) (_, b) -> compare b a) rows in
  List.filteri (fun i _ -> i < k) sorted

(* Two top-k probabilities at the same rank are a tie within this
   distance: the tolerance the repository's own tests give naive against
   1-edge rankings. The bound-pruned ranking is exact only up to the
   floating-point error of the bounds, which are admissible within the
   same distance. *)
let tie_eps = 1e-9

let bits = Int64.bits_of_float
let show_probs ps = String.concat "; " (List.map (Printf.sprintf "%.17g") ps)

let check_topk v db text (e : P.eval) ~k ~strategy ~rows ~ranked =
  let reference =
    (Engine.Reference.top_k ~solver:e.P.solver ~strategy ~k db (Ppd.Parser.parse text)
       (Util.Rng.make 42))
      .Ppd.Solve.results
    |> List.map (fun (s, p) -> (P.key_of_session s, p))
  in
  let expected = naive_top_k k rows in
  let exp_probs = List.map snd expected and got_probs = List.map snd ranked in
  let prob_of key =
    List.find_map
      (fun (s, p) -> if P.key_of_session s = key then Some p else None)
      rows
  in
  if
    List.map fst reference <> List.map fst ranked
    || List.map (fun (_, p) -> bits p) reference <> List.map bits got_probs
  then
    note v
      (Printf.sprintf "top-k differs from the sequential reference: expected [%s], got [%s]"
         (show_probs (List.map snd reference)) (show_probs got_probs))
  else if
    not
      (List.for_all
         (fun (key, p) ->
           match prob_of key with Some q -> bits q = bits p | None -> false)
         ranked)
  then note v "top-k ranking names a session whose exact probability differs"
  else if
    List.length exp_probs <> List.length got_probs
    || not (List.for_all2 (fun a b -> abs_float (a -. b) <= tie_eps) exp_probs got_probs)
  then
    note v
      (Printf.sprintf "top-k probabilities differ from the naive ranking: expected [%s], got [%s]"
         (show_probs exp_probs) (show_probs got_probs))
  else if List.map bits exp_probs <> List.map bits got_probs then
    v.tie_swaps <- v.tie_swaps + 1

let check_one v db memo (e : P.eval) (reply : P.result_body) =
  let text = query_text e in
  let rows =
    match Hashtbl.find_opt memo text with
    | Some rows -> rows
    | None ->
        let rows = reference_per_session db text in
        Hashtbl.add memo text rows;
        rows
  in
  let exact = List.fold_left (fun acc (_, p) -> acc +. p) 0. rows in
  v.checked <- v.checked + 1;
  v.prob_sum <- v.prob_sum +. mean_of rows;
  match (reply, e.P.task) with
  | P.Err err, _ ->
      note v
        (Printf.sprintf "error reply %s: %s"
           (P.error_code_to_string err.P.code)
           err.P.message)
  | P.Answer { answer = P.Ranked ranked; _ }, Engine.Request.Top_k { k; strategy } ->
      check_topk v db text e ~k ~strategy ~rows ~ranked
  | P.Answer { answer = P.Expectation x; _ }, Engine.Request.Count ->
      (* [exact] folds the rows exactly as
         [Engine.Reference.count_sessions] does. *)
      if Int64.bits_of_float x <> Int64.bits_of_float exact then
        note v
          (Printf.sprintf "count %.17g differs from the reference %.17g" x
             exact)
  | _ -> note v "reply of the wrong shape for its task"
