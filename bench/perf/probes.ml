(* Micro-probes of single layers, run on the data one op moved: the
   frames the replay captured, the collection, the changed files. *)

module Msg = Fsync_server.Msg
module Sigcache = Fsync_server.Sigcache
module Fingerprint = Fsync_hash.Fingerprint
module Deflate = Fsync_compress.Deflate
module Chunker = Fsync_cdc.Chunker
module Store = Fsync_store.Store
module Protocol = Fsync_core.Protocol
module Config = Fsync_core.Config

(* Run [f] until [min_s] has passed (at least once); seconds per run. *)
let per_run ?(min_s = 0.05) f =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while !n < 1 || Unix.gettimeofday () -. t0 < min_s do
    f ();
    incr n
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !n

let mbps bytes seconds =
  if seconds <= 0.0 then 0.0 else float_of_int bytes /. seconds /. 1e6

let contents tree = List.map snd tree

let throughput tree f =
  let cs = contents tree in
  mbps (Data.bytes tree) (per_run (fun () -> List.iter (fun c -> ignore (f c)) cs))

let fingerprint_mbps tree = throughput tree Fingerprint.of_string

(* The daemon's level hashing: one truncated poly hash per start-size
   block, as [Sigcache] computes on a miss. *)
let level_mbps tree =
  let c = Msg.default_sync_config in
  throughput tree (Sigcache.compute ~size:c.start_block ~bits:c.hash_bits)

let chunker_mbps tree = throughput tree (fun s -> Chunker.chunks s)

let config = Msg.default_sync_config

(* Nanoseconds per frame to decode, and to re-encode the decoded
   message, over every captured frame. *)
let codec frames =
  match frames with
  | [] -> (0.0, 0.0)
  | _ ->
      let n = float_of_int (List.length frames) in
      let decoded = List.map (Msg.decode ~config) frames in
      let dec =
        per_run (fun () -> List.iter (fun f -> ignore (Msg.decode ~config f)) frames)
      in
      let enc =
        per_run (fun () -> List.iter (fun m -> ignore (Msg.encode ~config m)) decoded)
      in
      (dec /. n *. 1e9, enc /. n *. 1e9)

(* Deflate over the literals the op shipped ([Tail] and [Chunk_data]
   bodies): compress and inflate throughput on the raw literals, and the
   compressed share. *)
let deflate frames =
  let literals =
    List.filter_map
      (fun f ->
        match Msg.decode ~config f with
        | Msg.Tail z | Msg.Chunk_data z -> Some (Deflate.decompress z)
        | _ -> None)
      frames
    |> List.filter (fun s -> String.length s > 0)
  in
  match literals with
  | [] -> (0.0, 0.0, 0.0)
  | _ ->
      let raw = List.fold_left (fun a s -> a + String.length s) 0 literals in
      let packed = List.map (fun s -> Deflate.compress s) literals in
      let zipped = List.fold_left (fun a s -> a + String.length s) 0 packed in
      let c = per_run (fun () -> List.iter (fun s -> ignore (Deflate.compress s)) literals) in
      let d = per_run (fun () -> List.iter (fun s -> ignore (Deflate.decompress s)) packed) in
      (mbps raw c, mbps raw d, float_of_int zipped /. float_of_int raw)

(* Milliseconds to put the changed files' chunks into an empty store. *)
let store_put_ms ~dir changed =
  let store = Store.open_store dir in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      let chunks =
        List.concat_map
          (fun (_, s) -> List.map (Chunker.chunk_content s) (Chunker.chunks s))
          changed
      in
      let t0 = Unix.gettimeofday () in
      List.iter (fun c -> ignore (Store.put store c)) chunks;
      (Unix.gettimeofday () -. t0) *. 1000.0)

(* The paper's full protocol ([Config.tuned]) over the same changed
   pairs: total bytes both ways, and new-file bytes per second. *)
let protocol changed =
  match changed with
  | [] -> (0.0, 0.0)
  | _ ->
      let t0 = Unix.gettimeofday () in
      let bytes =
        List.fold_left
          (fun acc (old_file, new_file) ->
            let r = Protocol.run ~config:Config.tuned ~old_file new_file in
            acc + Protocol.total_bytes r.report)
          0 changed
      in
      let dt = Unix.gettimeofday () -. t0 in
      let new_bytes = List.fold_left (fun a (_, n) -> a + String.length n) 0 changed in
      (float_of_int bytes, mbps new_bytes dt)
