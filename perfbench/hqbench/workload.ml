(* The three benchmark workloads over the polls dataset (paper Figures 4
   and 8): how each request stream is generated from the workload seed.

   Requests are a pure function of (workload, seed, index). Query
   constants are chosen from the dataset's own item relation: each
   pattern node gets one attribute constant, and a constant is used only
   when it matches a fixed number of candidates, which bounds the DP
   width of one request. Each workload's population of queries is fixed.
   The warm-up pass is a fixed, seed-independent slice of it, so every
   run's set-up does the same work; the seed only orders the timed
   stream. A cold stream does not ask for a sub-problem again while the
   store still holds it: count-cold's cycle is longer than the answer
   tier (see [stream]), and a topk-cold run covers under half of its
   population. *)

type kind = Count_cold | Count_warm | Topk_cold

type t = {
  kind : kind;
  name : string;
  size : int;  (** polls candidates (the item domain m) *)
  sessions : int;  (** polls voters *)
  band : float * float;
      (** declared band of the mean per-session probability *)
  warmup : int;  (** stream positions [0, warmup) form the warm-up pass *)
}

let all =
  [
    {
      kind = Count_cold;
      name = "count-cold";
      size = 12;
      sessions = 12;
      band = (0.35, 0.65);
      warmup = 700;
    };
    {
      kind = Count_warm;
      name = "count-warm";
      size = 8;
      sessions = 2000;
      band = (0.1, 0.4);
      warmup = 8;
    };
    {
      kind = Topk_cold;
      name = "topk-cold";
      size = 12;
      sessions = 80;
      band = (0.15, 0.45);
      warmup = 12;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all

(* The dataset generator seed is fixed: the workload seed varies the
   request stream, not the database. *)
let dataset_seed = 42

let spec w =
  Server.Protocol.dataset ~size:w.size ~sessions:w.sessions ~seed:dataset_seed
    "polls"

let database w =
  Datasets.Polls.generate ~n_candidates:w.size ~n_voters:w.sessions
    ~seed:dataset_seed ()

(* ------------------------------------------------------------------ *)
(* Query templates                                                     *)
(* ------------------------------------------------------------------ *)

type cst = Sex of string | Age of int | Edu of string | Reg of string

let constants =
  List.map (fun s -> Sex s) Datasets.Polls.sexes
  @ List.map (fun a -> Age a) Datasets.Polls.ages
  @ List.map (fun e -> Edu e) Datasets.Polls.edus
  @ List.map (fun r -> Reg r) Datasets.Polls.regions

(* One item atom: [C(var, party, sex, age, edu, reg)] with the party
   column either the shared variable [p] or a wildcard. *)
let item_atom ?(party = "_") var c =
  let s = function Some v -> Printf.sprintf "%S" v | None -> "_" in
  let sex, age, edu, reg =
    match c with
    | Sex v -> (s (Some v), "_", "_", "_")
    | Age v -> ("_", string_of_int v, "_", "_")
    | Edu v -> ("_", "_", s (Some v), "_")
    | Reg v -> ("_", "_", "_", s (Some v))
  in
  Printf.sprintf "C(%s, %s, %s, %s, %s, %s)" var party sex age edu reg

let matches db c item =
  let attr name = Ppd.Database.item_attr db item name in
  match c with
  | Sex v -> Ppd.Value.equal (attr "sex") (Ppd.Value.str v)
  | Age v -> Ppd.Value.equal (attr "age") (Ppd.Value.int v)
  | Edu v -> Ppd.Value.equal (attr "edu") (Ppd.Value.str v)
  | Reg v -> Ppd.Value.equal (attr "reg") (Ppd.Value.str v)

let n_matching db c =
  let n = ref 0 in
  for i = 0 to Ppd.Database.m db - 1 do
    if matches db c i then incr n
  done;
  !n

(* Every tuple of constants whose [k]-th constant matches exactly
   [List.nth counts k] candidates. *)
let tuples db counts =
  List.fold_right
    (fun n rest ->
      let ok = List.filter (fun c -> n_matching db c = n) constants in
      List.concat_map (fun c -> List.map (fun t -> c :: t) rest) ok)
    counts [ [] ]

(* Figure 4's two-label query, one constant per side: a candidate of
   party p preferred to another candidate of the same party. *)
let two_label = function
  | [ cl; cr ] ->
      Printf.sprintf "Q() :- P(_, _; l; r), %s, %s." (item_atom ~party:"p" "l" cl)
        (item_atom ~party:"p" "r" cr)
  | _ -> assert false

(* A fan-out a > b, a > c, a and b of the same party: a bipartite
   union solved by the label-multiset DP. *)
let fan_out = function
  | [ ca; cb; cc ] ->
      Printf.sprintf "Q() :- P(_, _; a; b), P(_, _; a; c), %s, %s, %s."
        (item_atom ~party:"p" "a" ca) (item_atom ~party:"p" "b" cb)
        (item_atom "c" cc)
  | _ -> assert false

(* Figure 8's self-join shape: c1 preferred to c2, c3 and c4 in the
   5/5 poll, c1 and c2 of the same party. *)
let fig8 = function
  | [ c1; c2; c3; c4 ] ->
      Printf.sprintf
        "Q() :- P(_, d; c1; c2), P(_, d; c1; c3), P(_, d; c1; c4), %s, %s, \
         %s, %s, d = \"5/5\"."
        (item_atom ~party:"p" "c1" c1) (item_atom ~party:"p" "c2" c2)
        (item_atom "c3" c3) (item_atom "c4" c4)
  | _ -> assert false

(* A chain a > b > c with a and b of the same party: a general
   (non-bipartite) union of one pattern per party, which the exact [auto]
   solver hands to General.prob's inclusion-exclusion. *)
let party_chain = function
  | [ ca; cb; cc ] ->
      Printf.sprintf "Q() :- P(_, _; a; b), P(_, _; b; c), %s, %s, %s."
        (item_atom ~party:"p" "a" ca) (item_atom ~party:"p" "b" cb)
        (item_atom "c" cc)
  | _ -> assert false

let shuffled rng a =
  let a = Array.copy a in
  Util.Rng.shuffle rng a;
  a

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

type shape = { text : string; lang : bool  (** sent as ["q"], else ["query"] *) }

type stream = {
  workload : t;
  warm : shape array;  (** warm-up position [i] asks [warm.(i mod length)] *)
  timed : shape array;
      (** timed position [warmup + j] asks [timed.(j mod length)] *)
}

let classic text = { text; lang = false }

(* The workload's population, in a fixed order. *)
let population w db =
  match w.kind with
  | Count_cold ->
      List.map (fun t -> classic (two_label t)) (tuples db [ 2; 2 ])
      @ List.map (fun t -> classic (fan_out t)) (tuples db [ 2; 2; 2 ])
      @ List.map (fun t -> classic (party_chain t)) (tuples db [ 2; 1; 1 ])
  | Count_warm ->
      (* Two fixed two-label shapes, each sent as a classic query and
         as query-language text. *)
      let all = Array.of_list (tuples db [ 2; 2 ]) in
      let texts = [ two_label all.(0); two_label all.(Array.length all / 2) ] in
      List.map classic texts @ List.map (fun text -> { text; lang = true }) texts
  | Topk_cold ->
      (* c1 matches one candidate, c2..c4 two each *)
      List.concat_map
        (fun c1 -> List.map (fun t -> classic (fig8 (c1 @ t))) (tuples db [ 2; 2; 2 ]))
        (tuples db [ 1 ])

(* The seed of the fixed order the warm-up slice is taken from; it is not
   the workload seed. *)
let population_seed = 0

let stream w ~seed =
  let pop = Array.of_list (population w (database w)) in
  match w.kind with
  | Count_warm ->
      (* The warm-up passes over every shape (twice: interned labels are
         part of every store key, and one pass leaves sub-problems to
         solve); the timed stream repeats them all. *)
      { workload = w; warm = pop; timed = shuffled (Util.Rng.make seed) pop }
  | Count_cold ->
      (* The warm-up leaves more sub-answers than the answer tier holds,
         so the timed stream starts at steady-state eviction. The timed
         cycle is the shapes the warm-up left out, in seed order, then
         the warm-up's own shapes in warm-up order: each request asks
         for the shape used longest ago, which the LRU tier has evicted
         (the cycle holds more sub-problems than the tier). *)
      let fixed = shuffled (Util.Rng.make population_seed) pop in
      let warm = Array.sub fixed 0 w.warmup in
      let rest = Array.sub fixed w.warmup (Array.length fixed - w.warmup) in
      { workload = w; warm; timed = Array.append (shuffled (Util.Rng.make seed) rest) warm }
  | Topk_cold ->
      let fixed = shuffled (Util.Rng.make population_seed) pop in
      let rest = Array.sub fixed w.warmup (Array.length fixed - w.warmup) in
      {
        workload = w;
        warm = Array.sub fixed 0 w.warmup;
        timed = shuffled (Util.Rng.make seed) rest;
      }

let topk_k = 3

(* The eval request at position [i] of the stream: the warm-up pass is
   positions [0, warmup), the timed stream continues from [warmup]. *)
let eval st i =
  let w = st.workload in
  let shape =
    if i < w.warmup then st.warm.(i mod Array.length st.warm)
    else st.timed.((i - w.warmup) mod Array.length st.timed)
  in
  let task =
    match w.kind with
    | Count_cold | Count_warm -> Engine.Request.Count
    | Topk_cold -> Engine.Request.Top_k { k = topk_k; strategy = `Edges 1 }
  in
  if shape.lang then
    match Server.Protocol.eval_lang ~task (spec w) shape.text with
    | Ok e -> e
    | Error msg -> failwith msg
  else Server.Protocol.eval ~task (spec w) (Ppd.Parser.parse shape.text)
