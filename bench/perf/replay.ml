(* Replaying an op inside the benchmark process.

   [pump] drives a client and a server state machine over an in-memory
   [Fsync_net.Channel] in the order [Loopback.run_in_memory] uses, so
   its byte, frame and round-trip counts are the library's own
   reference.  With a registry it puts one span around every machine
   call, named [<machine>:<wire label of the frame fed in>]; those spans
   nest under whatever span the caller has open (the op span), and
   their self time is the per-layer attribution. *)

module Channel = Fsync_net.Channel
module Fd_transport = Fsync_net.Fd_transport
module Registry = Fsync_obs.Registry
module Msg = Fsync_server.Msg

type counts = {
  c2s : int;  (** payload bytes, client to server *)
  s2c : int;
  frames_c2s : int;
  frames_s2c : int;
  round_trips : int;
}

let zero = { c2s = 0; s2c = 0; frames_c2s = 0; frames_s2c = 0; round_trips = 0 }

let add a b =
  {
    c2s = a.c2s + b.c2s;
    s2c = a.s2c + b.s2c;
    frames_c2s = a.frames_c2s + b.frames_c2s;
    frames_s2c = a.frames_s2c + b.frames_s2c;
    round_trips = a.round_trips + b.round_trips;
  }

type machine = { name : string; on_message : string -> string list }

(* Frames the last traced pumps carried, for the codec, deflate and
   store probes. *)
let captured : (Channel.direction * string) list ref = ref []

(* Span ids of calls whose replies included a [Bye]: the call in which
   a gossip endpoint applies its plan. *)
let bye_calls : (int, unit) Hashtbl.t = Hashtbl.create 16

let in_span reg name f =
  match reg with
  | None -> f ()
  | Some reg -> Registry.with_span reg name f

let call reg (m : machine) frame =
  match reg with
  | None -> m.on_message frame
  | Some reg ->
      let id = Registry.span_enter reg (m.name ^ ":" ^ Msg.wire_label frame) in
      let replies =
        Fun.protect
          ~finally:(fun () -> Registry.span_exit reg id)
          (fun () -> m.on_message frame)
      in
      if List.exists (fun r -> String.length r > 0 && Char.equal r.[0] 'Y') replies
      then Hashtbl.replace bye_calls id ();
      replies

let count ch =
  let dir d =
    List.length
      (List.filter
         (fun (d', _, _) ->
           match (d, d') with
           | Channel.Client_to_server, Channel.Client_to_server
           | Channel.Server_to_client, Channel.Server_to_client ->
               true
           | _ -> false)
         (Channel.transcript ch))
  in
  {
    c2s = Channel.bytes ch Channel.Client_to_server;
    s2c = Channel.bytes ch Channel.Server_to_client;
    frames_c2s = dir Channel.Client_to_server;
    frames_s2c = dir Channel.Server_to_client;
    round_trips = Channel.roundtrips ch;
  }

exception Stalled of string

let pump ?reg ~client ~start ~finished ~server () =
  let ch = Channel.create () in
  let capture = Option.is_some reg in
  let send dir m =
    if capture then captured := (dir, m) :: !captured;
    Channel.send ch ~label:(Msg.wire_label m) dir m
  in
  List.iter (send Channel.Client_to_server)
    (in_span reg (client.name ^ ":start") start);
  let progress = ref true in
  while !progress do
    match Channel.recv_opt ch Channel.Client_to_server with
    | Some m -> List.iter (send Channel.Server_to_client) (call reg server m)
    | None -> (
        match Channel.recv_opt ch Channel.Server_to_client with
        | Some m -> List.iter (send Channel.Client_to_server) (call reg client m)
        | None -> progress := false)
  done;
  if not (finished ()) then
    raise (Stalled (client.name ^ " stalled before completion"));
  count ch

(* The same exchange over a socketpair against a server loop stepped in
   this process (the swarm's counterpart of [Loopback.run_pulls]). *)
let over_socketpair ~add_connection ~step ~start ~on_message ~finished =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  add_connection b;
  let tr = Fd_transport.of_fd a in
  Fun.protect
    ~finally:(fun () -> Fd_transport.close tr)
    (fun () ->
      let ch = Fd_transport.channel tr in
      let send = List.iter (Channel.send ch Channel.Client_to_server) in
      send (start ());
      let iter = ref 0 in
      while (not (finished ())) && !iter < 1_000_000 do
        incr iter;
        step ();
        match Channel.recv_opt ch Channel.Server_to_client with
        | Some frame -> send (on_message frame)
        | None -> ()
      done;
      if not (finished ()) then raise (Stalled "socketpair exchange stalled"))

(* ---- reading spans back ---- *)

let children reg id =
  List.filter (fun (s : Registry.span) -> Int.equal s.parent id) (Registry.spans reg)

let dur (s : Registry.span) = if s.t1 < 0.0 then 0.0 else s.t1 -. s.t0

let find_span reg id =
  List.find_opt (fun (s : Registry.span) -> Int.equal s.id id) (Registry.spans reg)
