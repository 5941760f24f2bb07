(* The four workloads: how each starts its servers, runs one op over
   loopback TCP, and replays the same op in this process.

   A [rig] is one start-up's worth of real servers: [fsync_perf serve]
   children on 127.0.0.1 plus whatever client state the op needs (the
   swarm's local replica).  A [shadow] follows a rig op for op in
   memory — same inputs, same machines, no sockets — so every TCP op
   can be checked against the library's byte-exact reference.  Op 0 is
   a start-up's cold op; measured ops are 1, 2, ... *)

module Scope = Fsync_obs.Scope
module Registry = Fsync_obs.Registry
module Trace_id = Fsync_obs.Trace_id
module Json = Fsync_obs.Json
module Daemon = Fsync_server.Daemon
module Session = Fsync_server.Session
module Puller = Fsync_server.Puller
module Pusher = Fsync_server.Pusher
module Pull = Fsync_server.Pull
module Push = Fsync_server.Push
module Loopback = Fsync_server.Loopback
module Admin = Fsync_server.Admin
module Store = Fsync_store.Store
module Io = Fsync_store.Io
module Replica = Fsync_swarm.Replica
module Gossip = Fsync_swarm.Gossip
module Peer = Fsync_swarm.Peer
module Swarm_loopback = Fsync_swarm.Swarm_loopback
module Snapshot = Fsync_collection.Snapshot
module Source_tree = Fsync_workload.Source_tree
module Web = Fsync_workload.Web_collection

let host = "127.0.0.1"

type kind = Gcc_pull | Web_pull | Web_push | Swarm_gossip

let all = [ Gcc_pull; Web_pull; Web_push; Swarm_gossip ]

let name = function
  | Gcc_pull -> "gcc_pull"
  | Web_pull -> "web_pull"
  | Web_push -> "web_push"
  | Swarm_gossip -> "swarm_gossip"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

(* A run measures ops until their wall time adds up to its seconds and
   at least [min_ops] ran.  The byte metrics and [rss_mb] are taken over
   exactly the first [min_ops] measured ops, so they do not depend on how
   many ops a run's time allowed.  A pull's minimum is one op per
   collection.  web_push's CPU-bound op times are the noisiest; a
   gossip op edits two files, so its bytes need the most ops to average
   out the seed's text. *)
let min_ops ~quick kind =
  if quick then 2
  else match kind with Gcc_pull -> 5 | Web_pull -> 3 | Web_push -> 24 | Swarm_gossip -> 30

type ctx = {
  kind : kind;
  seed : int;
  quick : bool;
  dir : string;  (** scratch directory owned by this workload *)
  mutable serial : int;
  mutable cleanups : (unit -> unit) list;
      (** in-process daemons and stores to close at the end *)
}

let close ctx =
  List.iter (fun f -> f ()) ctx.cleanups;
  ctx.cleanups <- []

(* A pull workload serves several collections of one shape.  Each
   start-up builds one daemon for its own collection and all of them
   stay up; op k pulls collection k mod n.  A 30-bit level hash matches
   a wrong window of a large C file often enough that about one gcc
   collection in five ends in a verified [Full] fallback worth 10-40 KB;
   the byte metrics are medians over one op per collection, so a single
   collision does not decide a run's number.  The web pages are too
   small to collide; their three collections average the text. *)
let pull_sets ctx =
  match ctx.kind with
  | Gcc_pull -> if ctx.quick then 2 else 5
  | Web_pull -> if ctx.quick then 1 else 3
  | Web_push | Swarm_gossip -> 1

let fresh_dir ctx what =
  ctx.serial <- ctx.serial + 1;
  let d = Filename.concat ctx.dir (Printf.sprintf "%s-%d" what ctx.serial) in
  Io.mkdir_p Io.real d;
  d

let write_tree root tree = Snapshot.store_dir root (Snapshot.of_files tree)

(* ---- inputs, generated once per workload run ---- *)

let scale ctx ~full ~quick = if ctx.quick then quick else full

(* Collection [set] of a pull workload: (served, client replica). *)
let pull_inputs ctx set =
  let seed = (ctx.seed * 1000) + set in
  match ctx.kind with
  | Gcc_pull ->
      let preset = Source_tree.gcc_preset ~scale:(scale ctx ~full:0.08 ~quick:0.01) in
      let old_version, new_version = Data.source_pair preset ~seed in
      (new_version, old_version)
  | _ ->
      let preset = Web.default_preset ~scale:(scale ctx ~full:0.04 ~quick:0.005) in
      let day0 = Data.web_base preset ~seed in
      (Data.web_night preset ~seed ~night:1 day0, day0)

let push_preset ctx = Web.default_preset ~scale:(scale ctx ~full:0.08 ~quick:0.005)

let emacs_base ctx =
  let preset = Source_tree.emacs_preset ~scale:(scale ctx ~full:0.08 ~quick:0.01) in
  snd (Data.source_pair preset ~seed:ctx.seed)

(* ---- what one op reports ---- *)

type sample = {
  wall_s : float;
  client_cpu_s : float;
  server_cpu_s : float;
  wire : (int * int) option;
      (** TCP bytes per direction as the client's transport counted them,
          4-byte frame headers included *)
  payload : (int * int) option;
      (** payload bytes per direction as the client machine counted them
          (the swarm dialer exposes no transport) *)
  sync_bytes : int;  (** collection bytes this op verified current *)
  iterations : int;  (** daemon select-loop iterations, with an admin port *)
  cache : int * int;  (** daemon signature-cache (hits, misses) during the op *)
  edits_s : float;  (** swarm: time in [Replica.set] *)
  failure : string option;
}

type rig = {
  servers : Proc.t list;
  op : ?scope:Scope.t -> ?trace_id:Trace_id.t -> int -> sample;
      (** op 0 is the start-up's cold op *)
  finish : check:bool -> string list;
      (** stop the servers; with [check], the failures of the end-of-run
          checks *)
  trace_files : string list;  (** the daemons' per-session trace streams *)
}

type shadow = { replay : int -> Replay.counts }

type fresh = {
  reg : Registry.t option;
  mutable stats : (string * float) list;  (** machine statistics of the op *)
  mutable span : int;  (** the [op:replay] span, when traced *)
}

(* The replayed op proper, without the state building around it. *)
let traced_op f thunk =
  match f.reg with
  | None -> thunk ()
  | Some reg ->
      let id = Registry.span_enter reg "op:replay" in
      f.span <- id;
      Fun.protect ~finally:(fun () -> Registry.span_exit reg id) thunk

type driver = {
  startups : int;  (** start-ups per run, for the median [setup_s] *)
  keep_all : bool;
      (** every start-up's servers stay up and take the measured ops in
          turn (a pull: one collection each); otherwise each start-up
          replaces the previous one *)
  prepare : unit -> unit;
      (** lay the next start-up's inputs on disk, before its clock starts *)
  startup : traced:bool -> int -> rig;
      (** start-up [i]'s servers started; an untraced daemon also opens
          its admin port, read for the per-layer counters *)
  shadow : unit -> shadow;
  replay_fresh : fresh -> Replay.counts;
      (** op 1 in memory from a freshly built state; spans when traced *)
  socketpair_fresh : unit -> float;
      (** wall seconds of op 1 over socketpairs from a freshly built state *)
  probe_tree : unit -> Data.tree;  (** the collection op 1 works on *)
  changed : unit -> (string * string) list;  (** (old, new) pairs of op 1 *)
}

(* The rigs of [keep_all] start-ups as one: op k on rig k mod n. *)
let round_robin = function
  | [ rig ] -> rig
  | rigs ->
      let n = List.length rigs in
      {
        servers = List.concat_map (fun r -> r.servers) rigs;
        op = (fun ?scope ?trace_id k -> (List.nth rigs (k mod n)).op ?scope ?trace_id k);
        finish = (fun ~check -> List.concat_map (fun r -> r.finish ~check) rigs);
        trace_files = List.concat_map (fun r -> r.trace_files) rigs;
      }

let same_tree a b =
  List.equal
    (fun (p, c) (p', c') -> String.equal p p' && String.equal c c')
    (Data.sort a) (Data.sort b)

(* (old, new) contents of the paths whose content differs. *)
let changed_pairs ~before after =
  List.filter_map
    (fun (p, c) ->
      match List.assoc_opt p before with
      | Some old when not (String.equal old c) -> Some (old, c)
      | _ -> None)
    after

let describe e =
  match Fsync_core.Error.of_exn e with
  | Some err -> Fsync_core.Error.to_string err
  | None -> Printexc.to_string e

(* Time [f], with client and server CPU around it. *)
let timed servers f =
  let cpu () = List.fold_left (fun a (p : Proc.t) -> a +. Proc.cpu_s p.pid) 0.0 servers in
  let s0 = cpu () and c0 = Proc.self_cpu_s () and t0 = Unix.gettimeofday () in
  let r = match f () with v -> Ok v | exception e -> Error (describe e) in
  let t1 = Unix.gettimeofday () in
  let c1 = Proc.self_cpu_s () and s1 = cpu () in
  (r, t1 -. t0, c1 -. c0, s1 -. s0)

let empty_sample =
  {
    wall_s = 0.0;
    client_cpu_s = 0.0;
    server_cpu_s = 0.0;
    wire = None;
    payload = None;
    sync_bytes = 0;
    iterations = 0;
    cache = (0, 0);
    edits_s = 0.0;
    failure = None;
  }

(* Daemon counters through its admin plane: (select iterations, cache
   hits, cache misses). *)
let admin_counters (p : Proc.t) =
  if p.admin <= 0 then (0, 0, 0)
  else
    let doc = Admin.status ~host ~port:p.admin () in
    let int path =
      let rec go j = function
        | [] -> Json.to_int_opt j
        | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
      in
      Option.value (go doc path) ~default:0
    in
    ( int [ "select_iterations" ],
      int [ "sigcache"; "hits" ],
      int [ "sigcache"; "misses" ] )

let daemon_args ~root ?store ~admin ~trace_file () =
  [ "daemon"; "--root"; root ]
  @ (match store with Some s -> [ "--store"; s ] | None -> [])
  @ (if admin then [ "--admin" ] else [])
  @ match trace_file with Some f -> [ "--trace-stream"; f ] | None -> []

(* One daemon op: admin counters around a timed client call. *)
let daemon_op (p : Proc.t) run =
  let i0, h0, m0 = admin_counters p in
  let r, wall_s, client_cpu_s, server_cpu_s = timed [ p ] run in
  let i1, h1, m1 = admin_counters p in
  ( r,
    {
      empty_sample with
      wall_s;
      client_cpu_s;
      server_cpu_s;
      iterations = i1 - i0;
      cache = (h1 - h0, m1 - m0);
    } )

(* ---- pulls: gcc_pull, web_pull ---- *)

let trace_file ctx traced =
  if traced then Some (Filename.concat (fresh_dir ctx "trace") "server.jsonl") else None

let pull_driver ctx =
  let sets =
    List.init (pull_sets ctx) (fun set ->
        let server, client = pull_inputs ctx set in
        let root = fresh_dir ctx "served" in
        write_tree root server;
        (server, client, root))
  in
  let nth l k = List.nth l (k mod List.length l) in
  (* Start-up [i] serves collection [i]; every op on it pulls that
     collection. *)
  let startup ~traced i =
    let server, client, root = nth sets i in
    let trace_file = trace_file ctx traced in
    let p = Proc.spawn (daemon_args ~root ~admin:(not traced) ~trace_file ()) in
    let op ?scope ?trace_id _ =
      let r, s =
        daemon_op p (fun () -> Pull.run ?scope ?trace_id ~host ~port:p.port client)
      in
      match r with
      | Error e -> { s with failure = Some e }
      | Ok (o : Pull.outcome) ->
          let failure =
            if not (Int.equal o.attempts 1) then
              Some (Printf.sprintf "pull took %d attempts" o.attempts)
            else if not (same_tree o.files server) then
              Some "pulled replica differs from the served tree"
            else None
          in
          { s with wire = Some (o.c2s_bytes, o.s2c_bytes); sync_bytes = Data.bytes server; failure }
    in
    let finish ~check:_ =
      Proc.stop p;
      []
    in
    { servers = [ p ]; op; finish; trace_files = Option.to_list trace_file }
  in
  let replay_with ?reg ?fresh cache (server, client, _) =
    let puller =
      Replay.in_span reg "puller:create" (fun () ->
          Puller.create ~trace_id:(Trace_id.mint ()) client)
    in
    let session =
      Replay.in_span reg "session:create" (fun () -> Session.create ~cache server)
    in
    let counts =
      Replay.pump ?reg
        ~client:{ Replay.name = "puller"; on_message = Puller.on_message puller }
        ~start:(fun () -> Puller.start puller)
        ~finished:(fun () -> Puller.finished puller)
        ~server:{ Replay.name = "session"; on_message = Session.on_message session }
        ()
    in
    (match fresh with
    | Some f ->
        let ps = Puller.stats puller and ss = Session.stats session in
        f.stats <-
          [
            ("puller.matched_bytes", float_of_int ps.matched_bytes);
            ("puller.literal_bytes", float_of_int ps.literal_bytes);
            ("session.hashes_total", float_of_int ss.hashes_total);
            ("session.hashes_cached", float_of_int ss.hashes_cached);
            ("session.full_fallbacks", float_of_int ss.full_fallbacks);
          ]
    | None -> ());
    counts
  in
  (* Warm, like the measured TCP ops after their cold ops. *)
  let cache = lazy (
    let c = Fsync_server.Sigcache.create () in
    List.iter (fun set -> ignore (replay_with c set)) sets;
    c)
  in
  let shadow () =
    let refs = List.map (fun set -> lazy (replay_with (Lazy.force cache) set)) sets in
    { replay = (fun k -> Lazy.force (nth refs k)) }
  in
  let server, client, _ = nth sets 1 in
  let daemon = lazy (
    let d = Daemon.create server in
    ctx.cleanups <- (fun () -> Daemon.shutdown d) :: ctx.cleanups;
    ignore (Loopback.run_pulls ~daemon:d [ client ]);
    d)
  in
  {
    startups = List.length sets;
    keep_all = true;
    prepare = ignore;
    startup;
    shadow;
    replay_fresh =
      (fun f ->
        let cache = Lazy.force cache in
        traced_op f (fun () -> replay_with ?reg:f.reg ~fresh:f cache (nth sets 1)));
    socketpair_fresh =
      (fun () ->
        let d = Lazy.force daemon in
        let t0 = Unix.gettimeofday () in
        ignore (Loopback.run_pulls ~daemon:d [ client ]);
        Unix.gettimeofday () -. t0);
    probe_tree = (fun () -> server);
    changed = (fun () -> changed_pairs ~before:client server);
  }

(* ---- web_push ---- *)

(* Failures of the end-of-run store check start with this. *)
let fsck_prefix = "fsck: "

(* Op k pushes night k+1 of the chained evolution from day 0. *)
let push_driver ctx =
  let preset = push_preset ctx in
  let day0 = Data.web_base preset ~seed:ctx.seed in
  let nights = Hashtbl.create 64 in
  Hashtbl.replace nights 0 day0;
  (* Ops walk forward through the nights; keeping only the last few
     keeps the benchmark's own heap (and its GC work during timed ops)
     from growing with the run. *)
  let rec night k =
    match Hashtbl.find_opt nights k with
    | Some t -> t
    | None ->
        let t = Data.web_night preset ~seed:ctx.seed ~night:k (night (k - 1)) in
        Hashtbl.replace nights k t;
        if k > 3 then Hashtbl.remove nights (k - 3);
        t
  in
  let root = fresh_dir ctx "day0" in
  write_tree root day0;
  (* Every start-up ingests day 0 into an empty store. *)
  let startup ~traced _ =
    let store = fresh_dir ctx "store" in
    let trace_file = trace_file ctx traced in
    let p = Proc.spawn (daemon_args ~root ~store ~admin:(not traced) ~trace_file ()) in
    let last = ref (-1) in
    let op ?scope ?trace_id k =
      let tree = night (k + 1) in
      let r, s =
        daemon_op p (fun () -> Push.run ?scope ?trace_id ~host ~port:p.port tree)
      in
      last := k;
      match r with
      | Error e -> { s with failure = Some e }
      | Ok (o : Push.outcome) ->
          let failure =
            if not (Int.equal o.attempts 1) then
              Some (Printf.sprintf "push took %d attempts" o.attempts)
            else if not (Int.equal o.stats.files_pushed (List.length tree)) then
              Some "push acknowledged fewer files than it sent"
            else None
          in
          {
            s with
            wire = Some (o.c2s_bytes, o.s2c_bytes);
            sync_bytes = Data.bytes tree;
            failure;
          }
    in
    (* The daemon must now serve exactly the last pushed night — a pull
       from a replica holding it must find nothing to fetch and end on
       the same collection root — and the store it leaves behind must
       fsck clean. *)
    let finish ~check =
      let verify =
        if (not check) || !last < 0 then []
        else
          let expect = night (!last + 1) in
          match Pull.run ~host ~port:p.port expect with
          | o when same_tree o.files expect && Int.equal o.stats.rounds 0 -> []
          | _ -> [ "verifying pull: daemon does not serve the last night" ]
          | exception e -> [ "verifying pull: " ^ describe e ]
      in
      Proc.stop p;
      let fsck =
        if not check then []
        else
        match Store.open_store store with
        | s ->
            let errors = Store.fsck_errors (Store.fsck s) in
            Store.close s;
            List.map
              (fun f -> fsck_prefix ^ Format.asprintf "%a" Store.pp_fsck_finding f)
              errors
        | exception e -> [ fsck_prefix ^ describe e ]
      in
      verify @ fsck
    in
    { servers = [ p ]; op; finish; trace_files = Option.to_list trace_file }
  in
  (* In-process state equal to a fresh daemon's: the store holds day 0,
     the collection is what pushes published.  The shadow only needs the
     store's residency answers and keeps it in memory; the timed replays
     write it to disk like the daemon does, so their spans hold the
     store's I/O and the TCP rows only the transport. *)
  let fresh_state ~disk =
    let store =
      if disk then Store.open_store (fresh_dir ctx "replay-store")
      else begin
        ctx.serial <- ctx.serial + 1;
        Store.open_store ~io:(Memfs.create ())
          (Filename.concat ctx.dir (Printf.sprintf "mem-store-%d" ctx.serial))
      end
    in
    let d = Daemon.create ~store day0 in
    (d, store, ref (Daemon.files d))
  in
  (* What the daemon does with a verified pushed file (Daemon.publish):
     the served collection, path-sorted, with the new content in place.
     The replayed session pays the same cost the daemon's does. *)
  let publish files ~path ~content =
    files :=
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        ((path, content) :: List.filter (fun (p, _) -> not (String.equal p path)) !files)
  in
  let replay_push ?reg ?fresh (d, store, files) tree =
    let pusher =
      Replay.in_span reg "pusher:create" (fun () ->
          Pusher.create ~trace_id:(Trace_id.mint ()) tree)
    in
    let session =
      Replay.in_span reg "session:create" (fun () ->
          Session.create ~store ~publish:(publish files) ~cache:(Daemon.cache d) !files)
    in
    let counts =
      Replay.pump ?reg
        ~client:{ Replay.name = "pusher"; on_message = Pusher.on_message pusher }
        ~start:(fun () -> Pusher.start pusher)
        ~finished:(fun () -> Pusher.finished pusher)
        ~server:{ Replay.name = "session"; on_message = Session.on_message session }
        ()
    in
    (match fresh with
    | Some f ->
        let ps = Pusher.stats pusher in
        f.stats <-
          [
            ("pusher.chunks_total", float_of_int ps.chunks_total);
            ("pusher.chunks_sent", float_of_int ps.chunks_sent);
            ("pusher.bytes_sent", float_of_int ps.bytes_sent);
            ("pusher.bytes_deduped", float_of_int ps.bytes_deduped);
          ]
    | None -> ());
    counts
  in
  let close_state (d, store, _) =
    Daemon.shutdown d;
    Store.close store
  in
  let shadow () =
    let st = fresh_state ~disk:false in
    ctx.cleanups <- (fun () -> close_state st) :: ctx.cleanups;
    { replay = (fun k -> replay_push st (night (k + 1))) }
  in
  {
    startups = (if ctx.quick then 1 else 3);
    keep_all = false;
    prepare = ignore;
    startup;
    shadow;
    replay_fresh =
      (fun f ->
        let st = fresh_state ~disk:true in
        Fun.protect
          ~finally:(fun () -> close_state st)
          (fun () ->
            ignore (replay_push st (night 1));
            let tree = night 2 in
            traced_op f (fun () -> replay_push ?reg:f.reg ~fresh:f st tree)));
    socketpair_fresh =
      (fun () ->
        let ((d, _, _) as st) = fresh_state ~disk:true in
        Fun.protect
          ~finally:(fun () -> close_state st)
          (fun () ->
            ignore (Loopback.run_pushes ~daemon:d [ night 1 ]);
            let tree = night 2 in
            let t0 = Unix.gettimeofday () in
            ignore (Loopback.run_pushes ~daemon:d [ tree ]);
            Unix.gettimeofday () -. t0));
    probe_tree = (fun () -> night 2);
    changed = (fun () -> changed_pairs ~before:(night 1) (night 2));
  }

(* ---- swarm_gossip ---- *)

let peer_ids = [ "r0"; "r1"; "r2" ]

(* Three replicas of the base tree with a shared causal history: each
   loads the tree as its own edits, then a seeded anti-entropy run
   merges the vectors (persisted with the replicas), so the measured ops
   see only their own edits. *)
let build_replicas ctx base =
  let dir = fresh_dir ctx "swarm" in
  List.iter (fun id -> write_tree (Filename.concat dir id) base) peer_ids;
  let replicas =
    List.map (fun id -> Replica.load ~root:(Filename.concat dir id) ~peer:id ()) peer_ids
  in
  ignore (Swarm_loopback.run (Swarm_loopback.create ~seed:1L replicas));
  (dir, replicas)

let load_r0 dir = Replica.load ~root:(Filename.concat dir "r0") ~peer:"r0" ()

(* Seconds to open a replica of the swarm's base tree from disk. *)
let replica_load_s ctx =
  let dir, _ = build_replicas ctx (emacs_base ctx) in
  let t0 = Unix.gettimeofday () in
  ignore (load_r0 dir);
  Unix.gettimeofday () -. t0

(* Op k's two local edits of r0, as generated text; no op's clock runs
   while they are generated. *)
let edits_for ctx r0 k = Data.swarm_edits ~seed:ctx.seed ~op:k ~count:2 (Replica.files r0)

let apply r0 edits = List.iter (fun (path, content) -> Replica.set r0 ~path content) edits

let gossip_driver ctx =
  let base = emacs_base ctx in
  (* [prepare] lays out the next start-up's replicas, history merged, so
     that a start-up is what restarting the peers costs: r0 opened here,
     r1 and r2 by their peers, then the cold op. *)
  let staged = ref None in
  let startup ~traced _ =
    let dir =
      match !staged with
      | Some dir ->
          staged := None;
          dir
      | None -> fst (build_replicas ctx base)
    in
    let r0 = load_r0 dir in
    let peers =
      List.map
        (fun id ->
          Proc.spawn
            ([ "peer"; "--replica"; Filename.concat dir id; "--peer"; id ]
            @ if traced then [ "--traced" ] else []))
        [ "r1"; "r2" ]
    in
    let op ?scope ?trace_id:_ k =
      let edits = edits_for ctx r0 k in
      let r, wall_s, client_cpu_s, server_cpu_s =
        timed peers (fun () ->
            let t0 = Unix.gettimeofday () in
            apply r0 edits;
            let edits_s = Unix.gettimeofday () -. t0 in
            let stats =
              List.map
                (fun (p : Proc.t) -> Peer.gossip ?scope ~host ~port:p.port r0)
                peers
            in
            (edits_s, stats))
      in
      let s = { empty_sample with wall_s; client_cpu_s; server_cpu_s } in
      match r with
      | Error e -> { s with failure = Some e }
      | Ok (edits_s, stats) ->
          let out = List.fold_left (fun a (g : Gossip.stats) -> a + g.bytes_out) 0 stats in
          let inn = List.fold_left (fun a (g : Gossip.stats) -> a + g.bytes_in) 0 stats in
          {
            s with
            payload = Some (out, inn);
            sync_bytes = 2 * Data.bytes (Replica.files r0);
            edits_s;
          }
    in
    let finish ~check:_ =
      List.iter Proc.stop peers;
      []
    in
    { servers = peers; op; finish; trace_files = [] }
  in
  let session_replay ?reg ?fresh ini resp =
    let i = Replay.in_span reg "initiator:create" (fun () -> Gossip.Initiator.create ini) in
    let r = Replay.in_span reg "responder:create" (fun () -> Gossip.Responder.create resp) in
    let counts =
      Replay.pump ?reg
        ~client:{ Replay.name = "initiator"; on_message = Gossip.Initiator.on_message i }
        ~start:(fun () -> Gossip.Initiator.start i)
        ~finished:(fun () -> Gossip.Initiator.finished i)
        ~server:{ Replay.name = "responder"; on_message = Gossip.Responder.on_message r }
        ()
    in
    (match fresh with
    | Some f ->
        let a = Gossip.Initiator.stats i and b = Gossip.Responder.stats r in
        let so_far =
          Option.value (List.assoc_opt "gossip.files_pulled" f.stats) ~default:0.0
        in
        f.stats <-
          [
            ( "gossip.files_pulled",
              so_far +. float_of_int (a.files_pulled + b.files_pulled) );
          ]
    | None -> ());
    counts
  in
  (* Op k on [r0 :: peers]; the edits are made before [during] runs. *)
  let replay_op ?(during = fun f -> f ()) ?reg ?fresh replicas k =
    let r0 = List.nth replicas 0 in
    let edits = edits_for ctx r0 k in
    during (fun () ->
        Replay.in_span reg "replica:set" (fun () -> apply r0 edits);
        List.fold_left
          (fun acc peer -> Replay.add acc (session_replay ?reg ?fresh r0 peer))
          Replay.zero (List.tl replicas))
  in
  let shadow () =
    let _, replicas = build_replicas ctx base in
    { replay = (fun k -> replay_op replicas k) }
  in
  {
    startups = (if ctx.quick then 1 else 3);
    keep_all = false;
    prepare = (fun () -> staged := Some (fst (build_replicas ctx base)));
    startup;
    shadow;
    replay_fresh =
      (fun f ->
        let _, replicas = build_replicas ctx base in
        ignore (replay_op replicas 0);
        replay_op ~during:(traced_op f) ?reg:f.reg ~fresh:f replicas 1);
    socketpair_fresh =
      (fun () ->
        let _, replicas = build_replicas ctx base in
        let r0 = List.nth replicas 0 in
        let peers = List.map (fun r -> Peer.create r) (List.tl replicas) in
        let gossip_all () =
          List.iter
            (fun peer ->
              let i = Gossip.Initiator.create r0 in
              Replay.over_socketpair
                ~add_connection:(Peer.add_connection peer)
                ~step:(fun () -> Peer.step ~timeout_s:0.0 peer)
                ~start:(fun () -> Gossip.Initiator.start i)
                ~on_message:(Gossip.Initiator.on_message i)
                ~finished:(fun () -> Gossip.Initiator.finished i))
            peers
        in
        Fun.protect
          ~finally:(fun () -> List.iter Peer.shutdown peers)
          (fun () ->
            apply r0 (edits_for ctx r0 0);
            gossip_all ();
            let edits = edits_for ctx r0 1 in
            let t0 = Unix.gettimeofday () in
            apply r0 edits;
            gossip_all ();
            Unix.gettimeofday () -. t0));
    probe_tree = (fun () -> base);
    changed =
      (fun () ->
        let _, replicas = build_replicas ctx base in
        let r0 = List.nth replicas 0 in
        apply r0 (edits_for ctx r0 0);
        let before = Replica.files r0 in
        apply r0 (edits_for ctx r0 1);
        changed_pairs ~before (Replica.files r0));
  }

let driver ctx =
  match ctx.kind with
  | Gcc_pull | Web_pull -> pull_driver ctx
  | Web_push -> push_driver ctx
  | Swarm_gossip -> gossip_driver ctx
