(* The server side of a rig, run as [fsync_perf serve ...]:

     serve daemon --root DIR [--store DIR] [--admin] [--trace-stream FILE]
     serve peer --replica DIR --peer ID [--traced]
     serve probe

   A daemon serves the tree under [--root] the way [fsync serve] does
   (with [--store], ingested into that chunk store); a peer serves a
   swarm replica the way [fsync swarm serve] does; a probe times the
   host-speed work of [Calib].  All listen on 127.0.0.1:0, announce
   their ports on stdout and run until SIGTERM. *)

module Scope = Fsync_obs.Scope
module Registry = Fsync_obs.Registry
module Daemon = Fsync_server.Daemon
module Store = Fsync_store.Store
module Replica = Fsync_swarm.Replica
module Peer = Fsync_swarm.Peer
module Snapshot = Fsync_collection.Snapshot

let host = "127.0.0.1"

let run args =
  let stop = ref (fun () -> ()) in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> !stop ())))
    [ Sys.sigterm; Sys.sigint ];
  (* A benchmark killed outright never sends SIGTERM: once a second,
     check that it is still the parent, and stop when it is not. *)
  let parent = Unix.getppid () in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ -> if not (Int.equal (Unix.getppid ()) parent) then !stop ()));
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 1.0; it_value = 1.0 });
  let path k =
    match Args.opt k args with
    | Some p -> p
    | None -> raise (Args.Usage ("serve: missing " ^ k))
  in
  let scope traced =
    if traced then Scope.of_registry (Registry.create ()) else Scope.disabled
  in
  match args with
  | "daemon" :: _ ->
      let files = Snapshot.files (Snapshot.load_dir (path "--root")) in
      let trace = Args.opt "--trace-stream" args in
      let store = Option.map (fun d -> Store.open_store d) (Args.opt "--store" args) in
      let d = Daemon.create ~scope:(scope (Option.is_some trace)) ?store files in
      Option.iter (fun f -> Daemon.set_trace_stream d f) trace;
      let port = Daemon.listen d ~host ~port:0 in
      let admin =
        if Args.flag "--admin" args then Daemon.admin_listen d ~host ~port:0 else 0
      in
      stop := (fun () -> Daemon.request_stop d);
      Proc.announce ~port ~admin;
      Daemon.run d;
      Option.iter Store.close store
  | "peer" :: _ ->
      let replica = Replica.load ~root:(path "--replica") ~peer:(path "--peer") () in
      let p = Peer.create ~scope:(scope (Args.flag "--traced" args)) replica in
      let port = Peer.listen p ~host ~port:0 in
      stop := (fun () -> Peer.request_stop p);
      Proc.announce ~port ~admin:0;
      Peer.run p
  | "probe" :: _ ->
      stop := (fun () -> exit 0);
      Calib.serve ()
  | _ -> raise (Args.Usage "serve: expected daemon, peer or probe")
