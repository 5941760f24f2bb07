(* Plumbing shared by the commands: scratch space and the two passes
   over one workload. *)

module Io = Fsync_store.Io

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } -> (
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* Scratch space lives under the working directory (the benchmark reads
   and writes nowhere else) and is removed when the process exits. *)
let scratch () =
  let top = Filename.concat (Sys.getcwd ()) ".fsync_perf.tmp" in
  let dir = Filename.concat top (string_of_int (Unix.getpid ())) in
  Io.mkdir_p Io.real dir;
  at_exit (fun () ->
      Proc.stop_all ();
      rm_rf dir;
      try Unix.rmdir top with Unix.Unix_error _ -> ());
  dir

let with_workload ~root ~seed ~quick kind f =
  let dir = Filename.concat root (Printf.sprintf "%s-%d" (Rigs.name kind) seed) in
  Io.mkdir_p Io.real dir;
  let ctx = { Rigs.kind; seed; quick; dir; serial = 0; cleanups = [] } in
  Fun.protect
    ~finally:(fun () ->
      Rigs.close ctx;
      Proc.stop_all ();
      rm_rf dir)
    (fun () -> f ctx (Rigs.driver ctx))

type result = {
  e2e : Measure.e2e;
  metrics : (string * float) list;
  traced : Measure.traced;
  outcome : Measure.outcome;
}

(* Seconds of measured ops in one run: BENCHMARK.json's [run_seconds]. *)
let run_seconds = 10

(* The end-to-end pass over one workload, as [bench --trace 0] runs it:
   every start-up, then the measured ops. *)
let end_to_end ctx (drv : Rigs.driver) ~seconds =
  let kind = ctx.Rigs.kind in
  let min_ops = Rigs.min_ops ~quick:ctx.quick kind in
  Log.f "%s: %d start-ups, then %d+ ops" (Rigs.name kind) drv.startups min_ops;
  let e2e = Measure.end_to_end ctx drv ~setup:true ~min_ops ~seconds in
  (e2e, Measure.e2e_metrics ~kind ~min_ops e2e)

(* Both passes: the end-to-end one, then the traced pass over its ops. *)
let full ctx drv ~seconds =
  let e2e, metrics = end_to_end ctx drv ~seconds in
  Log.f "%s: traced pass" (Rigs.name ctx.Rigs.kind);
  let traced = Measure.traced ctx drv ~base:e2e ~ops:(if ctx.quick then 2 else 3) in
  { e2e; metrics; traced; outcome = Measure.merge e2e.outcome traced.t_outcome }
