(* The two passes over one workload.

   [end_to_end]: start-ups (each with its cold op) give [setup_s]; the
   last start-up's servers then take a closed loop of ops, one at a time
   from this process, each checked against the shadow replay.  Timings
   are rescaled to the reference host ([Calib]).

   [traced]: a fresh start-up with tracing on for the [obs.*] figures,
   then op 1 replayed three times over socketpairs and three times over
   the in-memory pump, whose per-call spans split the op by layer. *)

module Registry = Fsync_obs.Registry
module Scope = Fsync_obs.Scope
module Trace_id = Fsync_obs.Trace_id
module Trace_report = Fsync_obs.Trace_report
module Json = Fsync_obs.Json

let header = Fsync_net.Fd_transport.header_bytes

type outcome = {
  attempted : int;
  failed : int;  (** ops that raised, failed a check or retried *)
  failures : string list;  (** every failed check, for the log *)
}

let outcome ?(attempted = 0) failures =
  { attempted; failed = List.length failures; failures }

let no_failures = outcome []

let merge a b =
  {
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    failures = a.failures @ b.failures;
  }

(* TCP bytes per direction: the transport's own count, or the payload
   plus one 4-byte header per frame the replay carried. *)
let wire (s : Rigs.sample) (r : Replay.counts) =
  match (s.wire, s.payload) with
  | Some w, _ -> w
  | None, Some (c, d) -> (c + (header * r.frames_c2s), d + (header * r.frames_s2c))
  | None, None -> (0, 0)

(* TCP bytes minus framing equal the replay's payload, per direction. *)
let parity (s : Rigs.sample) (r : Replay.counts) =
  match (s.wire, s.payload) with
  | Some (c, d), _ ->
      Int.equal (c - (header * r.frames_c2s)) r.c2s
      && Int.equal (d - (header * r.frames_s2c)) r.s2c
  | None, Some (c, d) -> Int.equal c r.c2s && Int.equal d r.s2c
  | None, None -> false

let op_problem (s : Rigs.sample) (r : Replay.counts option) =
  match (s.failure, r) with
  | Some f, _ -> Some f
  | None, None -> Some "the shadow replay failed"
  | None, Some r ->
      if parity s r then None
      else
        let c, d = wire s r in
        Some
          (Printf.sprintf
             "TCP bytes %d/%d less %d/%d frame headers differ from the \
              replay's payload %d/%d"
             c d r.frames_c2s r.frames_s2c r.c2s r.s2c)

type e2e = {
  setups : float list;  (** rescaled to the reference host ([Calib]) *)
  samples : Rigs.sample list;  (** measured ops, in order *)
  refs : Replay.counts list;  (** the shadow's counts for the same ops *)
  speeds : float list;  (** host speed around each measured op *)
  probes : float list;  (** probe seconds, before the first op and after each *)
  rss_mib : float;
  outcome : outcome;
}

let safe f = match f () with v -> Some v | exception _ -> None

let cpu_of (s : Rigs.sample) = s.client_cpu_s +. s.server_cpu_s

(* Peak RSS of the median server (gcc_pull runs five daemons, the
   swarm two peers). *)
let rss (rig : Rigs.rig) =
  Stat.median (List.map (fun (p : Proc.t) -> Proc.hwm_mib p.pid) rig.servers)

(* Ops 1, 2, ... until at least [min_ops] ran and their wall time adds
   up to [seconds], with a host-speed probe between ops.  Each op starts
   on a collected heap, so the shadow replay's garbage is not swept on
   the op's clock.  Server RSS is read after op [rss_at]: the swarm's
   replicas grow with every op, and a run's length must not move it. *)
let closed_loop ~what (rig : Rigs.rig) (shadow : Rigs.shadow) calib ~min_ops ~rss_at
    ~seconds =
  let samples = ref [] and refs = ref [] and checked = ref no_failures in
  let before = ref (Calib.measure calib) in
  let speeds = ref [] and probes = ref [ !before ] in
  let rss_mib = ref 0.0 in
  let total = ref 0.0 and k = ref 1 in
  while !k <= min_ops || !total < seconds do
    Gc.full_major ();
    let s = rig.op !k in
    let after = Calib.measure calib in
    let speed = Calib.speed ~before:!before ~after in
    before := after;
    Log.f "%s op %d: %.4f s, cpu %.4f + %.4f s, host speed %.3f" what !k s.wall_s
      s.client_cpu_s s.server_cpu_s speed;
    if Int.equal !k rss_at then rss_mib := rss rig;
    let r = safe (fun () -> shadow.replay !k) in
    let problem = Option.map (Printf.sprintf "%s op %d: %s" what !k) (op_problem s r) in
    checked := merge !checked (outcome ~attempted:1 (Option.to_list problem));
    samples := s :: !samples;
    refs := Option.value r ~default:Replay.zero :: !refs;
    speeds := speed :: !speeds;
    probes := after :: !probes;
    total := !total +. s.wall_s;
    incr k
  done;
  ( List.rev !samples,
    List.rev !refs,
    List.rev !speeds,
    List.rev !probes,
    !rss_mib,
    !checked )

(* Start-up [i]: its wall time including the cold op, rescaled.  Its CPU
   is the client's over the interval plus all of the servers', which
   started inside it. *)
let startup calib (drv : Rigs.driver) ~traced i =
  drv.prepare ();
  let before = Calib.measure calib in
  let c0 = Proc.self_cpu_s () and t0 = Unix.gettimeofday () in
  let rig = drv.startup ~traced i in
  let cold = rig.op 0 in
  let wall = Unix.gettimeofday () -. t0 in
  let cpu =
    Proc.self_cpu_s () -. c0
    +. Stat.sum (List.map (fun (p : Proc.t) -> Proc.cpu_s p.pid) rig.servers)
  in
  let k = Calib.speed ~before ~after:(Calib.measure calib) in
  let setup = Calib.rescale ~k ~wall ~cpu in
  (rig, setup, outcome (Option.to_list (Option.map (( ^ ) "cold op: ") cold.failure)))

let finish (rig : Rigs.rig) ~check = outcome (rig.finish ~check)

(* [startups] start-ups — all of a [keep_all] driver's, whatever is
   asked — and the rig that serves the measured ops. *)
let boot calib (drv : Rigs.driver) ~startups =
  let n = if drv.keep_all then drv.startups else startups in
  let rec go i kept setups outcome =
    let rig, setup, o = startup calib drv ~traced:false i in
    let outcome = merge outcome o in
    if i + 1 >= n then (Rigs.round_robin (List.rev (rig :: kept)), List.rev (setup :: setups), outcome)
    else if drv.keep_all then go (i + 1) (rig :: kept) (setup :: setups) outcome
    else go (i + 1) kept (setup :: setups) (merge outcome (finish rig ~check:false))
  in
  go 0 [] [] no_failures

(* [setup] runs every start-up [drv] declares, for [setup_s]; without
   it, only those the measured ops need. *)
let end_to_end (ctx : Rigs.ctx) (drv : Rigs.driver) ~setup ~min_ops ~seconds =
  let what = Rigs.name ctx.kind in
  let calib = Calib.start ~quick:ctx.quick in
  Fun.protect
    ~finally:(fun () -> Calib.stop calib)
    (fun () ->
      let rig, setups, outcome =
        boot calib drv ~startups:(if setup then drv.startups else 1)
      in
      let shadow = drv.shadow () in
      ignore (safe (fun () -> shadow.replay 0));
      let samples, refs, speeds, probes, rss_mib, loop =
        closed_loop ~what rig shadow calib ~min_ops
          ~rss_at:(Rigs.min_ops ~quick:ctx.quick ctx.kind)
          ~seconds
      in
      let outcome = merge (merge outcome loop) (finish rig ~check:true) in
      { setups; samples; refs; speeds; probes; rss_mib; outcome })

(* ---- end-to-end metrics ---- *)

(* Op wall times on the reference host. *)
let rescaled (r : e2e) =
  List.map2
    (fun (s : Rigs.sample) k -> Calib.rescale ~k ~wall:s.wall_s ~cpu:(cpu_of s))
    r.samples r.speeds

(* A pull's ops pull distinct collections, and about one gcc collection
   in five ends in a verified [Full] fallback after a level-hash
   collision: the median keeps one such collection from deciding the
   number.  A push's or a gossip's ops are successive steps of one
   collection whose sizes differ by design: their mean varies least
   across seeds. *)
let typical (kind : Rigs.kind) =
  match kind with Gcc_pull | Web_pull -> Stat.median | Web_push | Swarm_gossip -> Stat.mean

let e2e_metrics ~kind ~min_ops (r : e2e) =
  let typical = typical kind in
  let firsts = Stat.take min_ops (List.combine r.samples r.refs) in
  let per_op f = List.map (fun (s, c) -> f s c) firsts in
  let c2s = per_op (fun s c -> float_of_int (fst (wire s c))) in
  let s2c = per_op (fun s c -> float_of_int (snd (wire s c))) in
  let slow =
    per_op (fun s c ->
        let a, b = wire s c in
        (0.1 *. float_of_int c.round_trips) +. (8.0 *. float_of_int (a + b) /. 1e6))
  in
  let walls = rescaled r in
  let synced =
    List.fold_left (fun a (s : Rigs.sample) -> a + s.sync_bytes) 0 r.samples
  in
  [
    ("setup_s", Stat.median r.setups);
    ("op_s_p50", Stat.median walls);
    ("sync_MBps", Probes.mbps synced (Stat.sum walls));
    ("wire_c2s_bytes", typical c2s);
    ("wire_s2c_bytes", typical s2c);
    ("slow_link_s", typical slow);
    ("rss_mb", r.rss_mib);
  ]

(* ---- the traced pass ---- *)

type traced = {
  layers : (string * float) list;
  attribution : (string * float) list;  (** row, seconds per op *)
  tcp_s : float;  (** the TCP op wall time the rows divide *)
  events : Json.t list;  (** spans for the trace file *)
  t_outcome : outcome;
}

let machine_of name =
  match String.index_opt name ':' with Some i -> String.sub name 0 i | None -> name

let label_of name =
  match String.index_opt name ':' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* Which gossip stage a machine call belongs to.  The call whose replies
   carry [Bye] (and the initiator's handling of it) is where a side
   applies its plan. *)
let gossip_stage (s : Registry.span) =
  if Hashtbl.mem Replay.bye_calls s.id || String.equal s.name "initiator:srv:bye"
  then "gossip.apply_s"
  else
    match label_of s.name with
    | "swarm:recon" | "srv:hello" | "srv:welcome" | "create" | "start" -> "gossip.recon_s"
    | "swarm:table" -> "gossip.table_s"
    | _ -> "gossip.transfer_s"

(* Spans of one registry as trace-file events: each root op and its
   descendants share one trace id. *)
let export_spans ~workload ~trace_of reg =
  let spans = Registry.spans reg in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Registry.span) -> Hashtbl.replace by_id s.id s) spans;
  let rec root (s : Registry.span) =
    match Hashtbl.find_opt by_id s.parent with Some p -> root p | None -> s.id
  in
  let minted = Hashtbl.create 16 in
  let trace r =
    match (trace_of r, Hashtbl.find_opt minted r) with
    | Some t, _ | None, Some t -> t
    | None, None ->
        let t = Trace_id.to_hex (Trace_id.mint ()) in
        Hashtbl.replace minted r t;
        t
  in
  List.map
    (fun (s : Registry.span) ->
      let at t = if t >= 0.0 then Json.Float (t -. origin) else Json.Null in
      Json.Obj
        [
          ("type", Json.String "span");
          ("workload", Json.String workload);
          ("trace", Json.String (trace (root s)));
          ("role", Json.String "client");
          ("id", Json.Int s.id);
          ("parent", if s.parent < 0 then Json.Null else Json.Int s.parent);
          ("name", Json.String s.name);
          ("start_s", at s.t0);
          ("end_s", at s.t1);
          ("dur_s", if s.t1 >= 0.0 then Json.Float (s.t1 -. s.t0) else Json.Null);
        ])
    spans

(* The daemon's per-session stream, spans only, tagged with the
   workload. *)
let server_events ~workload file =
  List.filter_map
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj fields as ev) -> (
          match Option.bind (Json.member "type" ev) Json.to_string_opt with
          | Some "span" -> Some (Json.Obj (("workload", Json.String workload) :: fields))
          | _ -> None)
      | _ -> None)
    (String.split_on_char '\n' (Option.value (Proc.read_file file) ~default:""))

(* [ops] TCP ops against a fresh start-up whose daemon streams
   per-session traces, each under an [op:tcp] span carrying the trace
   id the client announces; with each op's wall time rescaled like the
   untraced ones, for the tracing overhead.  It is start-up 1, whose
   collection (for a pull) is the one the replays pull. *)
let traced_tcp (drv : Rigs.driver) reg calib ~workload ~ops =
  let rig, _, booted = startup calib drv ~traced:true 1 in
  let scope = Scope.of_registry reg in
  let traces = Hashtbl.create 8 in
  let before = ref (Calib.measure calib) in
  let samples =
    List.init ops (fun i ->
        let trace_id = Trace_id.mint () in
        let id = Registry.span_enter reg "op:tcp" in
        let s = rig.op ~scope ~trace_id (i + 1) in
        Registry.span_exit reg id;
        Hashtbl.replace traces id (Trace_id.to_hex trace_id);
        let after = Calib.measure calib in
        let k = Calib.speed ~before:!before ~after in
        before := after;
        (s, Calib.rescale ~k ~wall:s.wall_s ~cpu:(cpu_of s)))
  in
  let samples, walls = List.split samples in
  let checked =
    outcome ~attempted:ops
      (List.filter_map
         (fun (s : Rigs.sample) -> Option.map (( ^ ) "traced op: ") s.failure)
         samples)
  in
  let result = merge (merge booted checked) (finish rig ~check:true) in
  let server = List.concat_map (server_events ~workload) rig.trace_files in
  (walls, traces, server, result)

(* Client phase spans over the client session span, per traced op (the
   swarm dialer opens no phase spans: 0). *)
let phase_coverage events traces =
  let client =
    List.filter
      (fun ev ->
        Option.equal String.equal
          (Option.bind (Json.member "role" ev) Json.to_string_opt)
          (Some "client"))
      events
  in
  let traced hex = Hashtbl.fold (fun _ t acc -> acc || String.equal t hex) traces false in
  Stat.mean
    (List.filter_map
       (fun (s : Trace_report.session) -> if traced s.trace then Some s.coverage else None)
       (Trace_report.of_events client))

type replayed = {
  spans : Registry.span list;  (** one [op:replay] span per replay *)
  calls : Registry.span list;  (** their children *)
  counts : Replay.counts;  (** of the last replay *)
  stats : (string * float) list;  (** of the last replay *)
  frames : string list;  (** every frame the last replay carried *)
}

let replay_three (drv : Rigs.driver) reg =
  let runs =
    List.init 3 (fun _ ->
        Replay.captured := [];
        let f = { Rigs.reg = Some reg; stats = []; span = -1 } in
        let counts = drv.replay_fresh f in
        (f, counts, List.rev_map snd !Replay.captured))
  in
  let spans =
    List.filter_map (fun ((f : Rigs.fresh), _, _) -> Replay.find_span reg f.span) runs
  in
  let last_counts, stats, frames =
    List.fold_left (fun _ ((f : Rigs.fresh), c, fr) -> (c, f.stats, fr)) (Replay.zero, [], []) runs
  in
  {
    spans;
    calls = List.concat_map (fun (s : Registry.span) -> Replay.children reg s.id) spans;
    counts = last_counts;
    stats;
    frames;
  }

(* Self time per span kind over the replays, in first-seen order. *)
let self_times reg calls =
  let kinds = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (s : Registry.span) ->
      let self = Replay.dur s -. Stat.sum (List.map Replay.dur (Replay.children reg s.id)) in
      match Hashtbl.find_opt kinds s.name with
      | Some v -> Hashtbl.replace kinds s.name (v +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace kinds s.name self)
    calls;
  List.rev_map (fun name -> (name, Hashtbl.find kinds name)) !order

let tagged tag frames = List.filter (fun f -> String.length f > 0 && Char.equal f.[0] tag) frames
let frame_bytes fs = float_of_int (List.fold_left (fun a f -> a + String.length f) 0 fs)
let ratio a b = if b > 0.0 then a /. b else 0.0

let traced (ctx : Rigs.ctx) (drv : Rigs.driver) ~(base : e2e) ~ops =
  let workload = Rigs.name ctx.kind in
  let reg = Registry.create () in
  Hashtbl.reset Replay.bye_calls;
  let traced_walls, traces, server, outcome =
    let calib = Calib.start ~quick:ctx.quick in
    Fun.protect
      ~finally:(fun () -> Calib.stop calib)
      (fun () -> traced_tcp drv reg calib ~workload ~ops)
  in
  let socketpair = List.init 3 (fun _ -> drv.socketpair_fresh ()) in
  let r = replay_three drv reg in
  let n_replays = float_of_int (List.length r.spans) in
  let kinds = List.map (fun (k, v) -> (k, v /. n_replays)) (self_times reg r.calls) in
  let per_op name = Option.value (List.assoc_opt name kinds) ~default:0.0 in
  let machine_s m =
    Stat.sum (List.filter_map (fun (k, v) -> if String.equal (machine_of k) m then Some v else None) kinds)
  in
  let gossip_s stage =
    Stat.sum
      (List.filter_map
         (fun (s : Registry.span) ->
           match machine_of s.name with
           | ("initiator" | "responder") when String.equal (gossip_stage s) stage ->
               Some (Replay.dur s)
           | _ -> None)
         r.calls)
    /. n_replays
  in
  let stat k = Option.value (List.assoc_opt k r.stats) ~default:0.0 in
  let walls = List.map Replay.dur r.spans in
  (* a mean, like the per-kind self times, so the attribution rows add
     up even when one replay's disk writes stall *)
  let replay_s = Stat.mean walls in
  let sp_s = Stat.median socketpair in
  let wall (s : Rigs.sample) = s.wall_s in
  let tcp_s = Stat.median (List.map wall base.samples) in
  let tcp_total = Stat.sum (List.map wall base.samples) in
  let sum f = Stat.sum (List.map f base.samples) in
  let n = float_of_int (List.length base.samples) in
  let client_cpu = sum (fun s -> s.client_cpu_s) and server_cpu = sum (fun s -> s.server_cpu_s) in
  let hits = sum (fun s -> float_of_int (fst s.cache)) in
  let misses = sum (fun s -> float_of_int (snd s.cache)) in
  let tree = drv.probe_tree () and changed = drv.changed () in
  let decode_ns, encode_ns = Probes.codec r.frames in
  let z_compress, z_inflate, z_ratio = Probes.deflate r.frames in
  let tuned_bytes, protocol_mbps = Probes.protocol changed in
  let events = export_spans ~workload ~trace_of:(Hashtbl.find_opt traces) reg @ server in
  let matched = stat "puller.matched_bytes" and literal = stat "puller.literal_bytes" in
  let deduped = stat "pusher.bytes_deduped" in
  let layers =
    [
      ("net.transport_s", tcp_s -. replay_s);
      ("net.socketpair_s", sp_s -. replay_s);
      ("net.tcp_s", tcp_s -. sp_s);
      ("net.idle_share", 1.0 -. ratio (client_cpu +. server_cpu) tcp_total);
      ("net.frames_c2s", float_of_int r.counts.frames_c2s);
      ("net.frames_s2c", float_of_int r.counts.frames_s2c);
      ("net.round_trips", float_of_int r.counts.round_trips);
      ( "daemon.select_iterations",
        Stat.median (List.map (fun (s : Rigs.sample) -> float_of_int s.iterations) base.samples) );
      ("client.cpu_s", ratio client_cpu n);
      ("server.cpu_s", ratio server_cpu n);
      ("replay.wall_s", replay_s);
      ("replay.coverage", ratio (Stat.sum (List.map Replay.dur r.calls)) (Stat.sum walls));
      ("session.announce_s", per_op "session:linear:announce");
      ("session.matched_s", per_op "session:srv:matched");
      ("session.ack_s", per_op "session:srv:ack");
      ("puller.welcome_s", per_op "puller:srv:welcome");
      ("puller.hashes_s", per_op "puller:srv:hashes");
      ("puller.tail_s", per_op "puller:srv:tail");
      ("puller.bye_s", per_op "puller:srv:bye");
      ("puller.match_ratio", ratio matched (matched +. literal));
      ("session.cache_hit_rate", ratio (stat "session.hashes_cached") (stat "session.hashes_total"));
      ("session.full_fallbacks", stat "session.full_fallbacks");
      ("pusher.calls_s", machine_s "pusher");
      ("session.push_begin_s", per_op "session:push:begin");
      ("session.chunk_data_s", per_op "session:push:data");
      ("push.dedup_ratio", ratio deduped (deduped +. stat "pusher.bytes_sent"));
      ("push.manifest_bytes", frame_bytes (tagged 'P' r.frames));
      ("gossip.recon_s", gossip_s "gossip.recon_s");
      ("gossip.table_s", gossip_s "gossip.table_s");
      ("gossip.transfer_s", gossip_s "gossip.transfer_s");
      ("gossip.apply_s", gossip_s "gossip.apply_s");
      ("gossip.recon_frames", float_of_int (List.length (tagged 'J' r.frames)));
      ("gossip.files_pulled", stat "gossip.files_pulled");
      ( "replica.set_ms",
        Stat.median (List.map (fun (s : Rigs.sample) -> s.edits_s *. 500.0) base.samples) );
      ("replica.load_s", match ctx.kind with Swarm_gossip -> Rigs.replica_load_s ctx | _ -> 0.0);
      ("meta.announce_bytes", frame_bytes (tagged 'A' r.frames));
      ("meta.verdict_bytes", frame_bytes (tagged 'V' r.frames));
      ("msg.decode_ns", decode_ns);
      ("msg.encode_ns", encode_ns);
      ("hash.fingerprint_MBps", Probes.fingerprint_mbps tree);
      ("hash.level_MBps", Probes.level_mbps tree);
      ("sigcache.hit_rate", ratio hits (hits +. misses));
      ("deflate.compress_MBps", z_compress);
      ("deflate.inflate_MBps", z_inflate);
      ("deflate.ratio", z_ratio);
      ("chunker.MBps", Probes.chunker_mbps tree);
      ( "store.put_ms",
        match ctx.kind with
        | Web_push -> Probes.store_put_ms ~dir:(Rigs.fresh_dir ctx "put-store") changed
        | _ -> 0.0 );
      ( "store.fsck_errors",
        float_of_int
          (List.length (List.filter (String.starts_with ~prefix:Rigs.fsck_prefix) outcome.failures))
      );
      ("protocol.tuned_bytes", tuned_bytes);
      ("protocol.MBps", protocol_mbps);
      ( "obs.overhead_pct",
        (* against the untraced ops with the same indices (a push's
           later nights cost more than its first), both rescaled *)
        let untraced = Stat.take (List.length traced_walls) (rescaled base) in
        100.0 *. (ratio (Stat.median traced_walls) (Stat.median untraced) -. 1.0) );
      ("obs.phase_coverage", phase_coverage events traces);
      ("host.probe_ms", 1000.0 *. Stat.median base.probes);
      ("host.raw_op_s", tcp_s);
    ]
  in
  let attribution =
    [ ("tcp wait", tcp_s -. sp_s); ("socketpair overhead", sp_s -. replay_s) ] @ kinds
  in
  { layers; attribution; tcp_s; events; t_outcome = outcome }
