(* The test-suite smoke: every workload at tiny sizes, checked
   against BENCHMARK.json, with trace well-formedness and seed
   determinism.  Exits 1 on the first failed check. *)

module Json = Fsync_obs.Json
module Meta_wire = Fsync_collection.Meta_wire
open Args
open Pass

exception Check of string

let check cond fmt =
  Printf.ksprintf (fun s -> if not cond then raise (Check s)) fmt

let str k j = Option.bind (Json.member k j) Json.to_string_opt

let names_units benchmark key =
  List.filter_map
    (fun m ->
      match (str "name" m, str "unit" m) with
      | Some n, Some u -> Some (n, u)
      | _ -> None)
    (Option.value (Option.bind (Json.member key benchmark) Json.to_list_opt) ~default:[])

(* BENCHMARK.json and the catalogue name the same metrics, units,
   directions and workloads. *)
let check_benchmark benchmark =
  let same key (catalog : Catalog.metric list) =
    let declared = names_units benchmark key in
    check (Int.equal (List.length declared) (List.length catalog))
      "%s: BENCHMARK.json lists %d metrics, the benchmark reports %d" key
      (List.length declared) (List.length catalog);
    List.iter
      (fun (n, u) ->
        match Catalog.find n with
        | Some m -> check (String.equal m.unit_ u) "%s: unit %s, reported as %s" n u m.unit_
        | None -> check false "%s: named in BENCHMARK.json but never reported" n)
      declared;
    List.iter
      (fun m ->
        match (str "name" m, str "better" m) with
        | Some n, Some better -> (
            match Catalog.find n with
            | Some { better = Catalog.Lower; _ } ->
                check (String.equal better "lower") "%s: BENCHMARK.json says %s is better" n better
            | Some { better = Catalog.Higher; _ } ->
                check (String.equal better "higher") "%s: BENCHMARK.json says %s is better" n better
            | None -> ())
        | _ -> check false "%s: a metric without a name or direction" key)
      (Option.value (Option.bind (Json.member key benchmark) Json.to_list_opt) ~default:[])
  in
  same "end_to_end" Catalog.end_to_end;
  same "per_layer" Catalog.per_layer;
  let workloads =
    List.filter_map (str "name")
      (Option.value (Option.bind (Json.member "workloads" benchmark) Json.to_list_opt) ~default:[])
  in
  check
    (List.equal String.equal workloads (List.map Rigs.name Rigs.all))
    "BENCHMARK.json workloads differ from the benchmark's"

let check_metrics what declared metrics =
  List.iter
    (fun (n, _) ->
      match List.assoc_opt n metrics with
      | Some v -> check (Float.is_finite v) "%s: %s is not finite" what n
      | None -> check false "%s: %s missing" what n)
    declared

(* Every event survives the JSON reader, and within one (workload,
   trace, role) every parent exists and encloses its children. *)
let check_trace events =
  let events =
    List.map
      (fun ev ->
        match Json.parse (Json.to_string ev) with
        | Ok j -> j
        | Error e -> raise (Check ("trace event does not parse: " ^ e)))
      events
  in
  check (events <> []) "the trace is empty";
  let key ev =
    String.concat "/"
      (List.map (fun k -> Option.value (str k ev) ~default:"") [ "workload"; "trace"; "role" ])
  in
  let num k ev = Option.bind (Json.member k ev) Json.to_float_opt in
  let spans = Hashtbl.create 256 in
  List.iter
    (fun ev ->
      match Option.bind (Json.member "id" ev) Json.to_int_opt with
      | Some id -> Hashtbl.replace spans (key ev, id) ev
      | None -> check false "span without an id")
    events;
  let eps = 1e-6 in
  List.iter
    (fun ev ->
      match Option.bind (Json.member "parent" ev) Json.to_int_opt with
      | None -> ()
      | Some p -> (
          match Hashtbl.find_opt spans (key ev, p) with
          | None -> check false "span %s: parent %d missing" (key ev) p
          | Some parent -> (
              match (num "start_s" ev, num "end_s" ev, num "start_s" parent, num "end_s" parent) with
              | Some s, Some e, Some ps, Some pe ->
                  check
                    (s >= ps -. eps && e <= pe +. eps)
                    "span %s %s [%g, %g] outside its parent [%g, %g]" (key ev)
                    (Option.value (str "name" ev) ~default:"?")
                    s e ps pe
              | _ -> check false "span %s has an open interval" (key ev))))
    events

let byte_metrics = [ "wire_c2s_bytes"; "wire_s2c_bytes"; "slow_link_s" ]

let run args =
  let path = Option.value (opt "--benchmark" args) ~default:"BENCHMARK.json" in
  let benchmark =
    match Report.read_json path with Ok j -> j | Error e -> raise (Usage e)
  in
  let root = scratch () in
  Log.quiet := true;
  match
    check_benchmark benchmark;
    let e2e_names = names_units benchmark "end_to_end" in
    let layer_names = names_units benchmark "per_layer" in
    List.iter
      (fun kind ->
        let what = Rigs.name kind in
        let first, root1 =
          with_workload ~root ~seed:1 ~quick:true kind (fun ctx drv ->
              let r = full ctx drv ~seconds:0.0 in
              ( r,
                Meta_wire.collection_root (drv.probe_tree ()) ))
        in
        check (Int.equal first.outcome.failed 0) "%s: %s" what
          (String.concat "; " first.outcome.failures);
        check_metrics what e2e_names first.metrics;
        check_metrics what layer_names first.traced.layers;
        check_trace first.traced.events;
        (* The same seed again: identical byte metrics. *)
        let again =
          with_workload ~root ~seed:1 ~quick:true kind (fun ctx drv ->
              let min_ops = Rigs.min_ops ~quick:true kind in
              Measure.e2e_metrics ~kind ~min_ops
                (Measure.end_to_end ctx drv ~setup:false ~min_ops ~seconds:0.0))
        in
        List.iter
          (fun n ->
            check
              (Float.equal (List.assoc n first.metrics) (List.assoc n again))
              "%s: %s differs between two runs of seed 1" what n)
          byte_metrics;
        (* Another seed: another dataset. *)
        let root2 =
          with_workload ~root ~seed:2 ~quick:true kind (fun _ drv ->
              Meta_wire.collection_root (drv.probe_tree ()))
        in
        check
          (not (Fsync_hash.Fingerprint.equal root1 root2))
          "%s: seeds 1 and 2 give the same dataset" what;
        Printf.printf "smoke %s: ok (%d ops, %d spans)\n%!" what
          (List.length first.e2e.samples) (List.length first.traced.events))
      Rigs.all
  with
  | () -> 0
  | exception Check m ->
      Printf.printf "smoke: FAILED: %s\n%!" m;
      1
