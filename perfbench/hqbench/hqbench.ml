(* hqbench — the OCaml side of perfbench/run.py.

     hqbench gen --workload W --seed S --count N --out FILE
       Write requests [0, N) of the workload's seeded stream to FILE, one
       wire request per line (ids are stream positions), and print the
       workload's parameters as one JSON line.

     hqbench check --workload W --pairs FILE [--part I/N]
       FILE holds (request line, reply line) pairs. Check every pair
       whose position is I modulo N against the sequential reference and
       print one JSON summary line.

     hqbench trace --workload W --seed S --seconds T --tolerance-pct X --out FILE
       Replay the seeded stream in-process for T seconds with spans at
       every layer boundary, write the spans to FILE and print the
       per-layer metrics as one JSON line (see trace.ml). *)

module P = Server.Protocol
module J = Server.Json

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("hqbench: " ^ s); exit 2) fmt

let rec flags = function
  | [] -> []
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      (String.sub k 2 (String.length k - 2), v) :: flags rest
  | arg :: _ -> die "bad argument %s" arg

let get fl k =
  match List.assoc_opt k fl with Some v -> v | None -> die "missing --%s" k

let get_int fl k =
  match int_of_string_opt (get fl k) with
  | Some n -> n
  | None -> die "--%s wants an integer" k

let workload fl =
  let name = get fl "workload" in
  match Workload.find name with
  | Some w -> w
  | None ->
      die "unknown workload %s (known: %s)" name (String.concat ", " Workload.names)

let gen fl =
  let w = workload fl in
  let st = Workload.stream w ~seed:(get_int fl "seed") in
  let oc = open_out (get fl "out") in
  for i = 0 to get_int fl "count" - 1 do
    output_string oc
      (J.to_string
         (P.request_to_json { P.id = Some (J.Int i); op = P.Eval (Workload.eval st i) }));
    output_char oc '\n'
  done;
  close_out oc;
  let lo, hi = w.Workload.band in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("size", J.Int w.Workload.size);
            ("sessions", J.Int w.Workload.sessions);
            ("warmup", J.Int w.Workload.warmup);
            ("warm_shapes", J.Int (Array.length st.Workload.warm));
            ("timed_shapes", J.Int (Array.length st.Workload.timed));
            ("band", J.List [ J.Float lo; J.Float hi ]);
          ]))

let check fl =
  let w = workload fl in
  let part, parts =
    match String.split_on_char '/' (Option.value ~default:"0/1" (List.assoc_opt "part" fl)) with
    | [ i; n ] -> (int_of_string i, int_of_string n)
    | _ -> die "--part wants I/N"
  in
  let db = Workload.database w in
  let v = { Check.checked = 0; wrong = 0; prob_sum = 0.; notes = []; tie_swaps = 0 } in
  let memo = Hashtbl.create 64 in
  let ic = open_in (get fl "pairs") in
  let rec loop i =
    match input_line ic with
    | exception End_of_file -> ()
    | req ->
        let rep = input_line ic in
        (if i mod parts = part then
           match
             ( Result.map P.request_of_json (J.of_string req),
               Result.bind (J.of_string rep) P.reply_of_json )
           with
           | Ok (Ok { P.op = P.Eval e; _ }), Ok r ->
               Check.check_one v db memo e r.P.result
           | _, Error msg -> Check.note v ("undecodable reply: " ^ msg)
           | _ -> Check.note v "undecodable request");
        loop (i + 1)
  in
  loop 0;
  close_in ic;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("checked", J.Int v.Check.checked);
            ("wrong", J.Int v.Check.wrong);
            ("prob_sum", J.Float v.Check.prob_sum);
            ("tie_swaps", J.Int v.Check.tie_swaps);
            ("notes", J.List (List.rev_map (fun s -> J.String s) v.Check.notes));
          ]))

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: rest -> gen (flags rest)
  | _ :: "check" :: rest -> check (flags rest)
  | _ :: "trace" :: rest ->
      let fl = flags rest in
      Trace.run ~workload:(workload fl) fl
  | _ -> die "usage: hqbench (gen|check|trace) --workload W ..."
