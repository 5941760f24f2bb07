(* Tables, the BENCH_perf.json document, and [compare]. *)

module Json = Fsync_obs.Json

let unit_of name =
  match Catalog.find name with Some m -> m.unit_ | None -> ""

let metric_obj metrics =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           Json.Obj [ ("value", Json.Float v); ("unit", Json.String (unit_of name)) ]
         ))
       metrics)

(* The result of [bench]: the last line of stdout, as BENCHMARK.json's
   contract asks. *)
let result_line ~(outcome : Measure.outcome) metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (Int.equal outcome.failed 0));
         ("attempted", Json.Int (max 1 outcome.attempted));
         ("failed", Json.Int outcome.failed);
         ("metrics", metric_obj metrics);
       ])

let fmt_value v =
  let a = Float.abs v in
  if Float.is_integer v && a < 1e12 then Printf.sprintf "%.0f" v
  else if a >= 100.0 then Printf.sprintf "%.1f" v
  else if a >= 1.0 then Printf.sprintf "%.3f" v
  else Printf.sprintf "%.4g" v

let print_metrics title metrics =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (name, v) ->
      Printf.printf "    %-26s %14s %s\n" name (fmt_value v) (unit_of name))
    metrics

let print_layers metrics =
  Printf.printf "  per layer (traced pass)\n";
  let layers =
    List.sort_uniq String.compare
      (List.map (fun (m : Catalog.metric) -> m.layer) Catalog.per_layer)
  in
  List.iter
    (fun layer ->
      Printf.printf "    [%s]\n" layer;
      List.iter
        (fun (m : Catalog.metric) ->
          if String.equal m.layer layer then
            match List.assoc_opt m.name metrics with
            | Some v ->
                Printf.printf "      %-26s %14s %s\n" m.name (fmt_value v) m.unit_
            | None -> ())
        Catalog.per_layer)
    layers

(* Every row as a share of the TCP op; the rows cover it up to the part
   of the replay no span accounts for. *)
let print_attribution (t : Measure.traced) =
  let pct s = if t.tcp_s > 0.0 then 100.0 *. s /. t.tcp_s else 0.0 in
  Printf.printf "  attribution of the TCP op (%.4f s)\n" t.tcp_s;
  List.iter
    (fun (row, s) ->
      if Float.abs (pct s) >= 0.05 then
        Printf.printf "    %-34s %10.5f s %6.1f%%\n" row s (pct s))
    t.attribution;
  let total = Stat.sum (List.map snd t.attribution) in
  Printf.printf "    %-34s %10.5f s %6.1f%%\n" "sum of rows" total (pct total)

let bench_doc ~seed workloads =
  Json.Obj
    [
      ("schema", Json.String "fsync-perf/1");
      ("seed", Json.Int seed);
      ("generated_unix_s", Json.Float (Unix.gettimeofday ()));
      ( "host",
        Json.Obj
          [
            ("ocaml", Json.String Sys.ocaml_version);
            ("cpus", Json.Int (Domain.recommended_domain_count ()));
          ] );
      ("workloads", Json.Obj workloads);
    ]

let workload_doc ~(e2e : (string * float) list) ~(traced : Measure.traced)
    ~(outcome : Measure.outcome) ~setups ~ops =
  Json.Obj
    [
      ("ops", Json.Int ops);
      ("attempted", Json.Int outcome.attempted);
      ("failed", Json.Int outcome.failed);
      ("failures", Json.List (List.map (fun f -> Json.String f) outcome.failures));
      ("setups_s", Json.List (List.map (fun s -> Json.Float s) setups));
      ("end_to_end", metric_obj e2e);
      ("per_layer", metric_obj traced.layers);
      ("tcp_op_s", Json.Float traced.tcp_s);
      ( "attribution",
        Json.List
          (List.map
             (fun (row, s) ->
               Json.Obj [ ("row", Json.String row); ("s", Json.Float s) ])
             traced.attribution) );
    ]

let read_json path =
  match Proc.read_file path with
  | None -> Error (path ^ ": cannot read")
  | Some text -> (
      match Json.parse (String.trim text) with
      | Ok j -> Ok j
      | Error e -> Error (path ^ ": " ^ e))

let member_path j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

(* ---- compare ---- *)

type bound = { b_name : string; b_better : Catalog.better; b_bound : float }

let bounds_of benchmark =
  match Option.bind (Json.member "end_to_end" benchmark) Json.to_list_opt with
  | None -> []
  | Some ms ->
      List.filter_map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) Json.to_string_opt,
              Option.bind (Json.member "better" m) Json.to_string_opt,
              Option.bind (Json.member "bound" m) Json.to_float_opt )
          with
          | Some b_name, Some better, Some b_bound ->
              let b_better =
                if String.equal better "higher" then Catalog.Higher else Catalog.Lower
              in
              Some { b_name; b_better; b_bound }
          | _ -> None)
        ms

(* One side's values of a metric across its runs. *)
let side_values docs workload metric =
  List.filter_map
    (fun d ->
      Option.bind
        (member_path d [ "workloads"; workload; "end_to_end"; metric; "value" ])
        Json.to_float_opt)
    docs

type verdict = Within | Worse | Unresolved | Missing

let verdict_name = function
  | Within -> "ok"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Missing -> "missing"

(* A side's median against the other's: worse when it moved the wrong
   way by more than the bound's share of the baseline; unresolved when
   either side's own spread (interquartile range over median, across
   its runs) is wider than the bound, unless every candidate run reads
   better than every baseline run. *)
let judge b base cand =
  match (base, cand) with
  | [], _ | _, [] -> (Missing, 0.0)
  | _ ->
      let mb = Stat.median base and mc = Stat.median cand in
      let change = if Float.equal mb 0.0 then 0.0 else (mc -. mb) /. Float.abs mb in
      let better x y = match b.b_better with Catalog.Lower -> x < y | Catalog.Higher -> x > y in
      let worse =
        match b.b_better with
        | Catalog.Lower -> change > b.b_bound
        | Catalog.Higher -> change < -.b.b_bound
      in
      let all_better = List.for_all (fun c -> List.for_all (better c) base) cand in
      if (Stat.spread base > b.b_bound || Stat.spread cand > b.b_bound) && not all_better
      then (Unresolved, change)
      else if worse then (Worse, change)
      else (Within, change)

let compare ~benchmark ~base ~cand =
  let bounds = bounds_of benchmark in
  let worse = ref 0 in
  Printf.printf "%-14s %-16s %14s %14s %8s  %s\n" "workload" "metric" "base" "candidate"
    "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun b ->
          let vb = side_values base w b.b_name and vc = side_values cand w b.b_name in
          let v, change = judge b vb vc in
          (match v with Worse -> incr worse | Within | Unresolved | Missing -> ());
          Printf.printf "%-14s %-16s %14s %14s %+7.2f%%  %s (bound %.0f%%)\n" w b.b_name
            (fmt_value (Stat.median vb))
            (fmt_value (Stat.median vc))
            (100.0 *. change) (verdict_name v) (100.0 *. b.b_bound))
        bounds)
    (List.map Rigs.name Rigs.all);
  !worse
