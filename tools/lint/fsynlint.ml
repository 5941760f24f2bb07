(* fsynlint command-line driver.

   Usage (from the repository root):

     fsynlint [options] [roots...]

   Default roots are `lib bin bench`; the default mode checks findings
   against the baseline ratchet and exits non-zero on any new violation
   or stale baseline entry.  See `fsynlint --help`. *)

module Lint = Fsynlint_lib.Lint

let default_roots = [ "lib"; "bin"; "bench" ]
let default_baseline = "tools/lint/baseline.txt"

let usage =
  "fsynlint — repo-specific static analysis with a baseline ratchet\n\n\
   usage: fsynlint [options] [roots...]\n\n\
   Parses every .ml/.mli under the roots (default: lib bin bench) and\n\
   enforces the syntactic rules R1-R5 and R10 plus the R6-R9 dataflow\n\
   rules (see --explain).  Findings are compared against the baseline\n\
   (default: tools/lint/baseline.txt): new violations and stale\n\
   baseline entries fail the run.\n\n\
   options:\n\
  \  --baseline FILE     baseline file (default tools/lint/baseline.txt)\n\
  \  --no-baseline       ignore the baseline: report every finding\n\
  \  --update-baseline   rewrite the baseline from the current scan;\n\
  \                      refuses to grow existing debt unless --allow-growth\n\
  \  --allow-growth      permit --update-baseline to record new debt\n\
  \  --list              print every finding (not just deltas) and exit 0\n\
  \  --json FILE         also write the findings (and, in check mode,\n\
  \                      the baseline delta) as JSON to FILE\n\
  \  --explain           print the rationale for each rule and exit\n\
  \  --help              this message\n"

type mode = Check | Update | List_all

type opts = {
  mutable mode : mode;
  mutable baseline : string option;
  mutable allow_growth : bool;
  mutable json : string option;
  mutable roots : string list;
}

let parse_args argv =
  let o =
    { mode = Check; baseline = Some default_baseline; allow_growth = false;
      json = None; roots = [] }
  in
  let rec go = function
    | [] -> o
    | "--help" :: _ | "-h" :: _ ->
        print_string usage;
        exit 0
    | "--explain" :: _ ->
        List.iter
          (fun r -> Printf.printf "%s\n\n" (Lint.explain r))
          Lint.all_rules;
        exit 0
    | "--baseline" :: file :: rest ->
        o.baseline <- Some file;
        go rest
    | "--baseline" :: [] ->
        prerr_endline "fsynlint: --baseline needs a file argument";
        exit 2
    | "--no-baseline" :: rest ->
        o.baseline <- None;
        go rest
    | "--update-baseline" :: rest ->
        o.mode <- Update;
        go rest
    | "--allow-growth" :: rest ->
        o.allow_growth <- true;
        go rest
    | "--list" :: rest ->
        o.mode <- List_all;
        go rest
    | "--json" :: file :: rest ->
        o.json <- Some file;
        go rest
    | "--json" :: [] ->
        prerr_endline "fsynlint: --json needs a file argument";
        exit 2
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "fsynlint: unknown option %s\n%s" arg usage;
        exit 2
    | root :: rest ->
        o.roots <- root :: o.roots;
        go rest
  in
  go (List.tl (Array.to_list argv))

let hint = "      (run with --explain for the rule rationale)"

let write_json o ?verdict findings =
  match o.json with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Lint.json_report ?verdict findings);
      close_out oc

(* "R6:2 R7:1" — totals per rule, in rule order, for the one-line
   failure summary CI surfaces. *)
let per_rule tally =
  Lint.all_rules
  |> List.filter_map (fun r ->
         match tally r with
         | 0 -> None
         | n -> Some (Printf.sprintf "%s:%d" (Lint.rule_name r) n))
  |> String.concat " "

let fail_summary (v : Lint.verdict) =
  let news r =
    List.fold_left
      (fun acc (r', _, fs) ->
        if Lint.rule_equal r r' then acc + List.length fs else acc)
      0 v.new_violations
  in
  let stale r =
    List.fold_left
      (fun acc (r', _, _, _) -> if Lint.rule_equal r r' then acc + 1 else acc)
      0 v.stale
  in
  let parts = [] in
  let parts =
    if v.stale = [] then parts
    else Printf.sprintf "stale entries %s" (per_rule stale) :: parts
  in
  let parts =
    if v.new_violations = [] then parts
    else Printf.sprintf "new violations %s" (per_rule news) :: parts
  in
  Printf.sprintf "fsynlint: FAIL — %s" (String.concat "; " parts)

let () =
  let o = parse_args Sys.argv in
  let roots = if o.roots = [] then default_roots else List.rev o.roots in
  match
    let findings = Lint.scan roots in
    match o.mode with
    | List_all ->
        List.iter
          (fun f -> Format.printf "%a@." Lint.pp_finding f)
          findings;
        write_json o findings;
        Printf.printf "fsynlint: %d finding(s) across %d rule/file pair(s)\n"
          (List.length findings)
          (Lint.KeyMap.cardinal (Lint.counts findings));
        0
    | Update ->
        let file =
          match o.baseline with Some f -> f | None -> default_baseline
        in
        let old = Lint.read_baseline file in
        let grown = Lint.growth ~baseline:old findings in
        if grown <> [] && not o.allow_growth then begin
          Printf.eprintf
            "fsynlint: refusing to grow the baseline (the ratchet only \
             shrinks).  Debt would grow for:\n";
          List.iter
            (fun (r, f) ->
              Printf.eprintf "  %s %s\n" (Lint.rule_name r) f)
            grown;
          Printf.eprintf
            "Fix the new violations, or pass --allow-growth to record them \
             deliberately.\n";
          1
        end
        else begin
          let oc = open_out file in
          output_string oc (Lint.render_baseline (Lint.counts findings));
          close_out oc;
          write_json o findings;
          Printf.printf "fsynlint: baseline %s updated (%d entries)\n" file
            (Lint.KeyMap.cardinal (Lint.counts findings));
          0
        end
    | Check -> (
        match o.baseline with
        | None ->
            List.iter
              (fun f -> Format.printf "%a@." Lint.pp_finding f)
              findings;
            write_json o findings;
            if findings = [] then begin
              print_endline "fsynlint: clean";
              0
            end
            else begin
              Printf.printf "fsynlint: %d finding(s)\n" (List.length findings);
              1
            end
        | Some file ->
            let baseline = Lint.read_baseline file in
            let v = Lint.check ~baseline findings in
            write_json o ~verdict:v findings;
            List.iter
              (fun (r, f, fs) ->
                Printf.printf
                  "fsynlint: new %s violation(s) in %s (baseline allows %d, \
                   found %d):\n"
                  (Lint.rule_name r) f
                  (Option.value
                     (Lint.KeyMap.find_opt (r, f) baseline)
                     ~default:0)
                  (List.length fs);
                List.iter
                  (fun x -> Format.printf "  %a@." Lint.pp_finding x)
                  fs;
                print_endline hint)
              v.new_violations;
            List.iter
              (fun (r, f, b, c) ->
                Printf.printf
                  "fsynlint: stale baseline for %s %s (recorded %d, found \
                   %d) — debt was paid down; lock it in with\n\
                  \  dune exec tools/lint/fsynlint.exe -- --update-baseline\n"
                  (Lint.rule_name r) f b c)
              v.stale;
            if Lint.clean v then begin
              Printf.printf
                "fsynlint: clean (%d finding(s) within baseline across %d \
                 file(s))\n"
                (List.length findings)
                (Lint.KeyMap.cardinal (Lint.counts findings));
              0
            end
            else begin
              print_endline (fail_summary v);
              1
            end)
  with
  | code -> exit code
  | exception Lint.Parse_error msg ->
      Printf.eprintf "fsynlint: %s\n" msg;
      exit 2
