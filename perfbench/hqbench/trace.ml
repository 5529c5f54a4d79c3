(* The traced replay: the workload's seeded request stream evaluated
   in-process through each layer's public entry point, in the order the
   server calls them, with a span around every call.

   Per request (a root span "request"):
     server.decode   Json.of_string + Protocol.request_of_json
     server.admit    one Bqueue push and pop
     plan.compile    Plan.compile (query-language requests only)
     engine          Engine.serve, with the engine's own Obs spans
                     (compile, group, solve, bounds, round, ...) nested
     server.encode   the reply record, Protocol.reply_to_json, Json.to_string

   Spans are the program's [Obs] spans opened from this file; the engine
   adds its existing ones underneath. Each span's self time (its
   duration minus its children's) is charged to one layer by name.
   Blocks of four positions alternate between traced and untraced, so
   the tracing overhead is measured on the same stream (and a cycle of
   four warm shapes lands whole in either kind of block).

   Some per-layer numbers come from standalone calls made after a
   request, outside its timing: the parsers ([Ppd.Parser.parse],
   [Lang.Parser.parse]), [Hardq.Solver.exact_prob] on the request's
   distinct (model, labeling, union) triples and
   [Hardq.Upper_bound.upper_bound] on a top-k request's unions. *)

module P = Server.Protocol
module J = Server.Json

(* The layer a span's self time is charged to. The engine's internal
   spans: "compile" is the Algorithm 2 rewrite (ppd); "solve", "bounds"
   and "round" run the solvers, bounds and sampler (hardq). *)
let layer_of = function
  | "request" -> "unattributed"
  | "server.decode" | "server.admit" | "server.encode" -> "server"
  | "plan.compile" -> "plan"
  | "compile" -> "ppd"
  | "solve" | "bounds" | "round" -> "hardq"
  | _ -> "engine"

let layers = [ "server"; "plan"; "ppd"; "engine"; "hardq" ]

type span = { name : string; elapsed : float; children : span list }

let rec of_obs s =
  {
    name = Obs.Span.name s;
    elapsed = Obs.Span.elapsed_s s;
    children = List.map of_obs (Obs.Span.children s);
  }

let rec span_json s =
  J.Obj
    [
      ("name", J.String s.name);
      ("ms", J.Float (s.elapsed *. 1e3));
      ("children", J.List (List.map span_json s.children));
    ]

(* Add each span's self time to its layer. *)
let rec charge tbl s =
  let child_total = List.fold_left (fun acc c -> acc +. c.elapsed) 0. s.children in
  let l = layer_of s.name in
  Hashtbl.replace tbl l
    ((try Hashtbl.find tbl l with Not_found -> 0.) +. (s.elapsed -. child_total));
  List.iter (charge tbl) s.children

(* ------------------------------------------------------------------ *)
(* Accumulators                                                        *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable traced : int;
  mutable untraced_e2e : float list;
  mutable traced_e2e : float list;
  self : (string, float) Hashtbl.t;  (** layer -> seconds, traced requests *)
  named : (string, float) Hashtbl.t;  (** span name -> seconds, traced *)
  mutable sessions : int;
  mutable distinct : int;
  mutable requests : int;  (** every replayed request *)
  mutable topk_sessions : int;
  mutable topk_calls : int;
  mutable minor_words : float;
  mutable counters : Obs.snapshot;  (** summed work-counter deltas *)
  probes : (string, float * int) Hashtbl.t;  (** probe -> (seconds, samples) *)
  mutable spans : span list;  (** traced roots, newest first *)
}

let probe acc name seconds =
  let s, n = try Hashtbl.find acc.probes name with Not_found -> (0., 0) in
  Hashtbl.replace acc.probes name (s +. seconds, n + 1)

let rec add_named acc s =
  Hashtbl.replace acc.named s.name
    ((try Hashtbl.find acc.named s.name with Not_found -> 0.) +. s.elapsed);
  List.iter (add_named acc) s.children

(* Time [f] repeated [n] times; seconds per call. *)
let time_per_call n f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n

let solver_of_kind = function
  | Prefs.Pattern_union.Two_label -> `Two_label
  | Prefs.Pattern_union.Bipartite -> `Bipartite
  | Prefs.Pattern_union.General -> `General

(* The distinct (model, union) pairs of a request's sessions: what the
   engine groups its per-session inferences into. *)
let distinct_triples db (e : P.eval) =
  let requests =
    match e.P.query with
    | P.Cq q -> (Ppd.Compile.compile db q).Ppd.Compile.requests
    | P.Lang { ast; _ } -> (
        match (Plan.compile db ast).Plan.lowered with
        | Plan.Patterns rs -> rs
        | Plan.Predicates _ -> [])
  in
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun { Ppd.Compile.session; union } ->
      match union with
      | None -> None
      | Some u ->
          let m = session.Ppd.Database.model in
          let key =
            ( Prefs.Ranking.to_array (Rim.Mallows.center m),
              Rim.Mallows.phi m,
              Prefs.Pattern_union.canonical u )
          in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some (Rim.Mallows.to_rim m, u)
          end)
    requests

(* Standalone calls into the parsers, the exact solvers and the upper
   bounds for one request, outside its timing. *)
let probes acc db (e : P.eval) (resp : Engine.Response.t) ~solve =
  (match e.P.query with
  | P.Cq q ->
      let text = Ppd.Query.to_string q in
      probe acc "ppd.parse" (time_per_call 20 (fun () -> Ppd.Parser.parse text))
  | P.Lang { text; _ } ->
      probe acc "lang.parse" (time_per_call 20 (fun () -> Lang.Parser.parse text)));
  let lab = Ppd.Database.labeling db in
  if solve && resp.Engine.Response.stats.Engine.Response.solver_calls > 0 then begin
    let per_solver = Hashtbl.create 3 in
    List.iter
      (fun (model, u) ->
        let s = solver_of_kind (Prefs.Pattern_union.kind u) in
        let t0 = Unix.gettimeofday () in
        ignore (Hardq.Solver.exact_prob s model lab u);
        Hashtbl.replace per_solver s
          ((try Hashtbl.find per_solver s with Not_found -> 0.)
          +. (Unix.gettimeofday () -. t0)))
      (distinct_triples db e);
    Hashtbl.iter
      (fun s secs -> probe acc ("hardq.solve." ^ Hardq.Solver.exact_name s) secs)
      per_solver
  end;
  match e.P.task with
  | Engine.Request.Top_k _ ->
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun (model, u) -> ignore (Hardq.Upper_bound.upper_bound ~k:1 model lab u))
        (distinct_triples db e);
      probe acc "hardq.upper_bound" (Unix.gettimeofday () -. t0)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* One request                                                         *)
(* ------------------------------------------------------------------ *)

let admission : unit Server.Bqueue.t = Server.Bqueue.create ~capacity:64

(* The server's path for one wire line, as a sequence of public calls.
   Returns the decoded request and the engine's response. *)
let serve_line eng db line =
  let e =
    Obs.with_span "server.decode" (fun () ->
        match Result.map P.request_of_json (J.of_string line) with
        | Ok (Ok { P.op = P.Eval e; _ }) -> e
        | _ -> failwith "undecodable request")
  in
  Obs.with_span "server.admit" (fun () ->
      ignore (Server.Bqueue.try_push admission ());
      ignore (Server.Bqueue.try_pop admission));
  let slo = P.slo_of_eval e in
  let req =
    match e.P.query with
    | P.Cq q ->
        Engine.Request.make ~task:e.P.task ~solver:e.P.solver ~seed:e.P.seed
          ?slo db q
    | P.Lang { ast; _ } ->
        let plan = Obs.with_span "plan.compile" (fun () -> Plan.compile db ast) in
        Engine.Request.of_plan ~task:e.P.task ~seed:e.P.seed ?slo plan
  in
  let w0 = Gc.minor_words () in
  let served = Obs.with_span "engine" (fun () -> Engine.serve eng req) in
  let words = Gc.minor_words () -. w0 in
  Obs.with_span "server.encode" (fun () ->
      let resp = served.Engine.response in
      let body =
        P.Answer
          {
            answer = P.answer_of_response resp;
            per_session = None;
            stats = P.stats_of_response ~queue_s:0. ~server_s:0. resp;
            anytime = Option.bind served.Engine.anytime P.anytime_of_engine;
            shards = P.shards_of_response resp;
          }
      in
      ignore
        (Sys.opaque_identity
           (J.to_string (P.reply_to_json { P.reply_id = Some (J.Int 0); result = body }))));
  (e, served.Engine.response, words)

let work_counters =
  [
    "dp.flat.states";
    "dp.flat.calls";
    "solver.general.ie_terms";
  ]

let add_counters acc delta =
  acc.counters <-
    List.map
      (fun name -> (name, Obs.Count (Obs.count acc.counters name + Obs.count delta name)))
      work_counters

(* p90 of the dp.flat.layer_width histogram, as its bucket's upper edge. *)
let layer_width_p90 snap =
  match Obs.find snap "dp.flat.layer_width" with
  | Some (Obs.Hist { count; buckets; _ }) when count > 0 ->
      let target = float_of_int count *. 0.9 in
      let rec go seen = function
        | [] -> 0.
        | (lower, n) :: rest ->
            let seen = seen + n in
            if float_of_int seen >= target then float_of_int (max 1 (2 * lower))
            else go seen rest
      in
      go 0 buckets
  | _ -> 0.

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

let run ~workload:w fl =
  let get k = match List.assoc_opt k fl with Some v -> v | None -> failwith ("missing --" ^ k) in
  let seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") in
  let tolerance = float_of_string (get "tolerance-pct") in
  let st = Workload.stream w ~seed in
  let t_gen = Unix.gettimeofday () in
  let db = Workload.database w in
  let generate_ms = (Unix.gettimeofday () -. t_gen) *. 1e3 in
  let line i =
    J.to_string
      (P.request_to_json { P.id = Some (J.Int i); op = P.Eval (Workload.eval st i) })
  in
  Obs.enable ();
  let eng =
    Engine.create
      Engine.Config.(default |> with_jobs 1)
  in
  Fun.protect ~finally:(fun () -> Engine.shutdown eng) @@ fun () ->
  for i = 0 to w.Workload.warmup - 1 do
    ignore (serve_line eng db (line i))
  done;
  let acc =
    {
      traced = 0;
      untraced_e2e = [];
      traced_e2e = [];
      self = Hashtbl.create 8;
      named = Hashtbl.create 16;
      sessions = 0;
      distinct = 0;
      requests = 0;
      topk_sessions = 0;
      topk_calls = 0;
      minor_words = 0.;
      counters = [];
      probes = Hashtbl.create 8;
      spans = [];
    }
  in
  let hist0 = Obs.snapshot () in
  let deadline = Unix.gettimeofday () +. seconds in
  let solve_probes = ref 0 in
  let i = ref w.Workload.warmup in
  while Unix.gettimeofday () < deadline do
    let traced = (!i - w.Workload.warmup) / 4 mod 2 = 1 in
    let l = line !i in
    if traced then Obs.enable_tracing () else Obs.disable_tracing ();
    let snap0 = Obs.snapshot () in
    let t0 = Unix.gettimeofday () in
    let e, resp, words =
      if traced then Obs.with_span "request" (fun () -> serve_line eng db l)
      else serve_line eng db l
    in
    let dt = Unix.gettimeofday () -. t0 in
    Obs.disable_tracing ();
    let delta = Obs.diff snap0 (Obs.snapshot ()) in
    let s = resp.Engine.Response.stats in
    acc.requests <- acc.requests + 1;
    acc.sessions <- acc.sessions + s.Engine.Response.sessions;
    acc.distinct <- acc.distinct + s.Engine.Response.distinct;
    acc.minor_words <- acc.minor_words +. words;
    add_counters acc delta;
    (match e.P.task with
    | Engine.Request.Top_k _ ->
        acc.topk_sessions <- acc.topk_sessions + s.Engine.Response.sessions;
        acc.topk_calls <- acc.topk_calls + s.Engine.Response.solver_calls
    | _ -> ());
    if traced then begin
      acc.traced <- acc.traced + 1;
      acc.traced_e2e <- dt :: acc.traced_e2e;
      (match List.rev (Obs.trace_roots ()) with
      | root :: _ ->
          let sp = of_obs root in
          charge acc.self sp;
          add_named acc sp;
          acc.spans <- sp :: acc.spans
      | [] -> ());
      Obs.clear_trace ()
    end
    else acc.untraced_e2e <- dt :: acc.untraced_e2e;
    (* At most 20 solver probes per run: a probe re-solves the request
       cold, which costs as much as the request itself. *)
    let solve = !solve_probes < 20 in
    if solve && s.Engine.Response.solver_calls > 0 then incr solve_probes;
    (* the probes' own solver work stays out of the Obs histograms *)
    Obs.disable ();
    probes acc db e resp ~solve;
    Obs.enable ();
    incr i
  done;
  let snap = Obs.diff hist0 (Obs.snapshot ()) in
  let n = float_of_int (max 1 acc.requests) in
  let nt = float_of_int (max 1 acc.traced) in
  let e2e = List.fold_left ( +. ) 0. acc.traced_e2e in
  let self l = try Hashtbl.find acc.self l with Not_found -> 0. in
  let attributed = List.fold_left (fun a l -> a +. self l) 0. layers in
  let unattributed_pct = if e2e > 0. then 100. *. (e2e -. attributed) /. e2e else 0. in
  let named_per_req name = (try Hashtbl.find acc.named name with Not_found -> 0.) /. nt in
  let probe_mean name =
    match Hashtbl.find_opt acc.probes name with
    | Some (s, k) when k > 0 -> s /. float_of_int k
    | _ -> 0.
  in
  let count name = float_of_int (Obs.count acc.counters name) in
  let hardq_ms = self "hardq" *. 1e3 in
  let m_untraced = median acc.untraced_e2e and m_traced = median acc.traced_e2e in
  let metrics =
    [
      ("server.decode_us", named_per_req "server.decode" *. 1e6);
      ("server.encode_us", named_per_req "server.encode" *. 1e6);
      ("server.admit_us", named_per_req "server.admit" *. 1e6);
      ("lang.parse_us", probe_mean "lang.parse" *. 1e6);
      ("ppd.parse_us", probe_mean "ppd.parse" *. 1e6);
      ("plan.compile_us", named_per_req "plan.compile" *. 1e6);
      ("ppd.compile_ms", named_per_req "compile" *. 1e3);
      ("engine.eval_ms", named_per_req "engine" *. 1e3);
      ( "engine.grouping_ratio",
        if acc.sessions = 0 then 0. else float_of_int acc.distinct /. float_of_int acc.sessions );
      ("engine.minor_mwords_per_req", acc.minor_words /. n /. 1e6);
      ( "engine.topk.exact_ratio",
        if acc.topk_sessions = 0 then 0.
        else float_of_int acc.topk_calls /. float_of_int acc.topk_sessions );
      ("hardq.solve_ms.two-label", probe_mean "hardq.solve.two-label" *. 1e3);
      ("hardq.solve_ms.bipartite", probe_mean "hardq.solve.bipartite" *. 1e3);
      ("hardq.solve_ms.general", probe_mean "hardq.solve.general" *. 1e3);
      ("hardq.dp_states_per_req", count "dp.flat.states" /. n);
      ( "hardq.dp_states_per_ms",
        (* states per request over hardq self time per traced request *)
        if hardq_ms > 0. then count "dp.flat.states" /. n /. (hardq_ms /. nt) else 0. );
      ("hardq.dp_layer_width_p90", layer_width_p90 snap);
      ("hardq.ie_terms_per_req", count "solver.general.ie_terms" /. n);
      ("hardq.upper_bound_ms", probe_mean "hardq.upper_bound" *. 1e3);
      ("trace.unattributed_pct", unattributed_pct);
      ( "obs.tracing_overhead_pct",
        if m_untraced > 0. then 100. *. (m_traced -. m_untraced) /. m_untraced else 0. );
      ("trace.e2e_ms", e2e /. nt *. 1e3);
      ("datasets.generate_ms", generate_ms);
    ]
    @ List.map (fun l -> ("trace.self_ms." ^ l, self l /. nt *. 1e3)) layers
  in
  let oc = open_out (get "out") in
  List.iter
    (fun s ->
      output_string oc (J.to_string (span_json s));
      output_char oc '\n')
    (List.rev acc.spans);
  close_out oc;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("requests", J.Int acc.requests);
            ("traced", J.Int acc.traced);
            ("reconciled", J.Bool (Float.abs unattributed_pct <= tolerance));
            ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics));
          ]))
