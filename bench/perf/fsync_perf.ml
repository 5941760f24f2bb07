(* fsync_perf: end-to-end and per-layer performance of pull, push and
   swarm gossip over loopback TCP.  See README.md in this directory. *)

module Json = Fsync_obs.Json
open Args
open Pass

let usage =
  {|usage:
  fsync_perf run [--seed S]
      every workload as [bench] runs it, then its traced pass: tables on
      stdout, BENCH_perf.json and BENCH_perf.trace.json (JSONL spans);
      exits 1 if any op failed
  fsync_perf bench --workload W [--seed S] [--seconds T] [--trace 0|1]
      one workload for T seconds; the last stdout line is a JSON result with
      the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
  fsync_perf compare BASE.json... [--vs CAND.json...]
      apply the bounds of ./BENCHMARK.json to two sets of runs (a single
      pair needs no --vs); exits 1 if a metric got worse
  fsync_perf smoke --benchmark BENCHMARK.json
      every workload at tiny sizes, with the checks of the test suite
|}

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let out = "BENCH_perf.json"
let trace_out = "BENCH_perf.trace.json"

let run_cmd args =
  let seed = int_arg "--seed" ~default:1 args in
  let root = scratch () in
  let results =
    List.map
      (fun kind ->
        with_workload ~root ~seed ~quick:false kind (fun ctx drv ->
            let r = full ctx drv ~seconds:(float_of_int run_seconds) in
            Printf.printf "== %s (seed %d) ==\n" (Rigs.name kind) seed;
            Report.print_metrics "end to end" r.metrics;
            Report.print_layers r.traced.layers;
            Report.print_attribution r.traced;
            List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) r.outcome.failures;
            print_newline ();
            (kind, r)))
      Rigs.all
  in
  let doc =
    Report.bench_doc ~seed
      (List.map
         (fun (kind, r) ->
           ( Rigs.name kind,
             Report.workload_doc ~e2e:r.metrics ~traced:r.traced ~outcome:r.outcome
               ~setups:r.e2e.setups ~ops:(List.length r.e2e.samples) ))
         results)
  in
  write_file out (Json.to_string doc ^ "\n");
  write_file trace_out
    (String.concat ""
       (List.concat_map
          (fun (_, r) -> List.map (fun ev -> Json.to_string ev ^ "\n") r.traced.events)
          results));
  Printf.printf "wrote %s and %s\n" out trace_out;
  let failed = List.fold_left (fun a (_, r) -> a + r.outcome.failed) 0 results in
  if failed > 0 then begin
    Printf.printf "%d failed ops or checks\n" failed;
    1
  end
  else 0

(* The BENCHMARK.json contract: one workload for [--seconds], then one
   JSON line. *)
let bench_cmd args =
  let kind =
    match Option.bind (opt "--workload" args) Rigs.of_name with
    | Some k -> k
    | None -> raise (Usage "--workload gcc_pull|web_pull|web_push|swarm_gossip")
  in
  let seed = int_arg "--seed" ~default:1 args in
  let seconds = float_of_int (int_arg "--seconds" ~default:run_seconds args) in
  let traced = not (Int.equal (int_arg "--trace" ~default:0 args) 0) in
  let root = scratch () in
  let outcome, metrics =
    with_workload ~root ~seed ~quick:false kind (fun ctx drv ->
        if not traced then
          let e2e, metrics = end_to_end ctx drv ~seconds in
          (e2e.outcome, metrics)
        else
          (* The untraced ops the traced pass is read against: the
             minimum count, without [setup_s]'s start-ups. *)
          let e2e =
            Measure.end_to_end ctx drv ~setup:false
              ~min_ops:(Rigs.min_ops ~quick:false kind)
              ~seconds:0.0
          in
          let t = Measure.traced ctx drv ~base:e2e ~ops:3 in
          (Measure.merge e2e.outcome t.t_outcome, t.layers))
  in
  List.iter (fun f -> Log.f "FAILED: %s" f) outcome.failures;
  print_endline (Report.result_line ~outcome metrics);
  if Int.equal outcome.failed 0 then 0 else 1

let compare_cmd args =
  let rec split acc = function
    | "--vs" :: rest -> (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> (
        match List.rev acc with
        | [ a; b ] -> ([ a ], [ b ])
        | _ -> raise (Usage "compare: give BASE.json CAND.json, or --vs between the sets"))
  in
  let base, cand = split [] args in
  let load path =
    match Report.read_json path with Ok j -> j | Error e -> raise (Usage e)
  in
  let worse =
    Report.compare ~benchmark:(load "BENCHMARK.json") ~base:(List.map load base)
      ~cand:(List.map load cand)
  in
  if worse > 0 then 1 else 0

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "serve" :: rest -> Serve.run rest
  | _ :: cmd :: rest -> (
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
        [ Sys.sigint; Sys.sigterm ];
      let run =
        match cmd with
        | "run" -> run_cmd
        | "bench" -> bench_cmd
        | "compare" -> compare_cmd
        | "smoke" -> Smoke.run
        | _ -> fun _ -> raise (Usage ("unknown command " ^ cmd))
      in
      match run rest with
      | code -> exit code
      | exception Usage m ->
          prerr_string (m ^ "\n" ^ usage);
          exit 2
      | exception e ->
          Log.f "error: %s" (Rigs.describe e);
          exit 2)
  | _ ->
      prerr_string usage;
      exit 2
