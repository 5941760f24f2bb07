(* Seeded datasets with a fixed shape.

   The library generators ([Source_tree.generate], [Web_collection])
   draw sizes, change classes, edit scripts and text from one PRNG
   stream, so a new seed is a new collection: at gcc scale 0.08 the
   server-to-client bytes swing by 5x between seeds, far more than any
   regression a benchmark bound should let through.  Here the preset's
   own calibrated seed fixes the {e shape}: every file's length, which
   files change, and every edit's kind, position and length.  The run
   seed supplies the {e text}: every byte of content and of inserted
   text.  Seeds are then exchangeable draws of one collection, and a
   metric's spread across seeds measures the code and the machine, not
   the dataset. *)

module Prng = Fsync_util.Prng
module Text_gen = Fsync_workload.Text_gen
module Edit_model = Fsync_workload.Edit_model
module Source_tree = Fsync_workload.Source_tree
module Web = Fsync_workload.Web_collection

type tree = (string * string) list
(** [(path, content)], path-sorted. *)

let sort (t : tree) = List.sort (fun (a, _) (b, _) -> String.compare a b) t

let bytes (t : tree) = List.fold_left (fun n (_, c) -> n + String.length c) 0 t

let mix a b = Int64.logxor (Int64.mul (Int64.of_int (a + 1)) 0x9E3779B97F4A7C15L) (Int64.of_int b)

(* The seed's text stream for one purpose. *)
let text_rng ~seed ~stream = Prng.create (mix seed ((stream * 0x51ED27) + 0x7F4A))

(* A shape stream: one per (preset seed, purpose, item), the same under
   every run seed. *)
let shape_rng (base : int64) ~stream ~item =
  Prng.create (Int64.logxor base (mix stream item))

let filler ~sep rng n =
  let buf = Buffer.create (n + 64) in
  while Buffer.length buf < n do
    Buffer.add_string buf (Text_gen.paragraph rng ~words:6);
    Buffer.add_char buf sep
  done;
  Buffer.sub buf 0 n

(* Generated text cut or padded to exactly [len] bytes. *)
let fit ~sep rng len s =
  let n = String.length s in
  if n >= len then String.sub s 0 len else s ^ filler ~sep rng (len - n)

(* An edit script whose structure comes from [structure] and whose
   inserted text comes from [text]: under a fixed structure stream and
   a fixed input length, every seed edits the same places by the same
   amounts. *)
let edit ~structure ~text ~profile ~sep content =
  Edit_model.mutate structure ~profile ~gen_text:(fun _ n -> filler ~sep text n) content

let dirs = [| "src"; "lib"; "config"; "doc"; "include"; "tools"; "tests" |]

(* Mirrors [Source_tree.generate]: Pareto sizes capped at 30x the mean,
   then each file unchanged / light / medium / heavy by the preset's
   probabilities. *)
let source_pair (p : Source_tree.preset) ~seed =
  let shape = Prng.create p.seed in
  let text = text_rng ~seed ~stream:1 in
  let ext, gen =
    match p.dialect with
    | `C -> (".c", Text_gen.c_like)
    | `Lisp -> (".el", Text_gen.lisp_like)
  in
  let files =
    List.init p.n_files (fun i ->
        let x =
          Prng.pareto shape ~alpha:1.6
            ~x_min:(float_of_int p.mean_file_bytes /. 2.5)
        in
        let size = min (int_of_float x) (p.mean_file_bytes * 30) in
        let dir = Prng.pick shape dirs in
        let r = Prng.float shape 1.0 in
        let path = Printf.sprintf "%s/%s_%04d%s" dir p.preset_name i ext in
        (* [Source_tree]'s [size / 35] lines come out near half [size];
           the length is that of the file drawn from the shape stream. *)
        let lines = max 4 (size / 35) in
        let len = String.length (gen (shape_rng p.seed ~stream:0 ~item:i) ~lines) in
        (i, path, fit ~sep:'\n' text len (gen text ~lines:(lines + (lines / 4))), r))
  in
  let profile r =
    if r < p.p_unchanged then None
    else if r < p.p_unchanged +. p.p_light then Some Edit_model.light
    else if r < p.p_unchanged +. p.p_light +. p.p_medium then Some Edit_model.medium
    else Some Edit_model.heavy
  in
  let new_version =
    List.map
      (fun (i, path, content, r) ->
        match profile r with
        | None -> (path, content)
        | Some profile ->
            let structure = shape_rng p.seed ~stream:1 ~item:i in
            (path, edit ~structure ~text ~profile ~sep:'\n' content))
      files
  in
  (sort (List.map (fun (_, path, c, _) -> (path, c)) files), sort new_version)

(* Mirrors [Web_collection.base]: pages of one site share a template,
   body lengths are Pareto.  A page's length is that of the same page
   generated from the shape stream. *)
let web_base (p : Web.preset) ~seed =
  let shape = Prng.create p.seed in
  let text = text_rng ~seed ~stream:2 in
  let templates = Array.init p.n_sites (fun _ -> Text_gen.boilerplate text) in
  let shape_templates = Array.init p.n_sites (fun _ -> Text_gen.boilerplate shape) in
  sort
    (List.init p.n_pages (fun i ->
         let site = Prng.int shape p.n_sites in
         let words =
           Prng.pareto shape ~alpha:1.8
             ~x_min:(float_of_int p.mean_body_words /. 2.0)
         in
         let words = min (int_of_float words) (p.mean_body_words * 40) in
         let len =
           String.length
             (Text_gen.html_like (shape_rng p.seed ~stream:2 ~item:i)
                ~body_words:words ~boilerplate:shape_templates.(site))
         in
         ( Printf.sprintf "site%03d/page%05d.html" site i,
           fit ~sep:' ' text len
             (Text_gen.html_like text ~body_words:words ~boilerplate:templates.(site)) )))

(* Mirrors one night of [Web_collection.evolve]: churn pages change
   heavily every night, the others with the preset's probability, and
   most changed pages gain a last-updated line. *)
let web_night (p : Web.preset) ~seed ~night (pages : tree) =
  let shape = shape_rng p.seed ~stream:3 ~item:night in
  let text = text_rng ~seed ~stream:(100 + night) in
  List.mapi
    (fun i (path, content) ->
      let churny =
        float_of_int ((i * 2654435761) land 0xffff) /. 65536.0
        < p.churn_fraction
      in
      let changes = Prng.bernoulli shape p.p_change_per_day in
      let stamp = Prng.bernoulli shape 0.7 in
      if not (churny || changes) then (path, content)
      else
        let profile = if churny then Edit_model.medium else Edit_model.light in
        let structure = shape_rng p.seed ~stream:(1000 + night) ~item:i in
        let content = edit ~structure ~text ~profile ~sep:' ' content in
        if stamp then
          ( path,
            content
            ^ Printf.sprintf "<!-- last-updated: day %d; hits: %06d -->\n" night
                (Prng.int text 1_000_000) )
        else (path, content))
    pages

(* The swarm op's local edits: [count] distinct files picked by the
   shape stream of op [op], each given one light edit script. *)
let swarm_edits ~seed ~op ~count (files : tree) =
  let arr = Array.of_list files in
  let n = Array.length arr in
  let shape = shape_rng 0x5A4DL ~stream:4 ~item:op in
  let text = text_rng ~seed ~stream:(1_000 + op) in
  let picked = Hashtbl.create count in
  let order = ref [] in
  while Hashtbl.length picked < min count n do
    let i = Prng.int shape n in
    if not (Hashtbl.mem picked i) then begin
      Hashtbl.replace picked i ();
      order := i :: !order
    end
  done;
  List.rev_map
    (fun i ->
      let path, content = arr.(i) in
      let structure = shape_rng 0x5A4DL ~stream:(5 + op) ~item:i in
      let edited = edit ~structure ~text ~profile:Edit_model.light ~sep:'\n' content in
      (* A short file can draw an empty script; every op must change
         what it picked. *)
      if String.equal edited content then
        (path, content ^ Printf.sprintf ";; op %06d\n" op)
      else (path, edited))
    !order
