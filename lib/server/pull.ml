module Channel = Fsync_net.Channel
module Fd_transport = Fsync_net.Fd_transport
module Fault = Fsync_net.Fault
module Error = Fsync_core.Error
module Trace = Fsync_net.Trace
module Prng = Fsync_util.Prng
module Scope = Fsync_obs.Scope
module Trace_id = Fsync_obs.Trace_id
module Monotonic = Fsync_obs.Monotonic

type outcome = {
  files : (string * string) list;
  stats : Puller.stats;
  c2s_bytes : int;
  s2c_bytes : int;
  attempts : int;
  backoff_s : float;
}

let attempt ?fault ?seed ~idle_timeout_s ~host ~port puller =
  let tr = Fd_transport.of_fd (Fd_transport.connect ~host ~port) in
  let ch = Fd_transport.channel tr in
  (match fault with
  | Some spec -> ignore (Fault.attach ?seed ch spec)
  | None -> ());
  let send msgs =
    List.iter
      (fun m ->
        Channel.send ch ~label:(Msg.wire_label m) Channel.Client_to_server m)
      msgs
  in
  let go () =
    send (Puller.start puller);
    let deadline = ref (Monotonic.now () +. idle_timeout_s) in
    while not (Puller.finished puller) do
      if Monotonic.now () > !deadline then
        Error.fail
          (Error.Channel_empty
             (Printf.sprintf "Pull: no server reply within %.1f s"
                idle_timeout_s));
      match Channel.recv_opt ch Channel.Server_to_client with
      | Some frame ->
          deadline := Monotonic.now () +. idle_timeout_s;
          send (Puller.on_message puller frame)
      | None ->
          ignore
            (Fd_transport.wait_readable tr Channel.Server_to_client
               ~timeout_s:0.2)
    done;
    {
      files = Puller.result puller;
      stats = Puller.stats puller;
      c2s_bytes = Channel.bytes ch Channel.Client_to_server;
      s2c_bytes = Channel.bytes ch Channel.Server_to_client;
      attempts = 1;
      backoff_s = 0.0;
    }
  in
  match go () with
  | r ->
      Fd_transport.close tr;
      r
  | exception e ->
      Fd_transport.close tr;
      raise e

(* Over a faulty link any typed protocol error is a link symptom
   (corruption decodes as Malformed, a cut header as Limit_exceeded, a
   lost frame as Channel_empty after the idle timeout); a fresh attempt
   with a fresh fault schedule is the repair.  Genuine bugs are not
   typed and still propagate. *)
let retryable = function
  | Error.E _ -> true
  | Fault.Disconnected _ -> true
  | Fsync_net.Fd_transport.Closed -> true
  | Unix.Unix_error
      ( (Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOTCONN),
        _,
        _ ) ->
      true
  | _ -> false

let run ?(attempts = 3) ?fault ?(seed = 0) ?(idle_timeout_s = 30.0)
    ?(scope = Scope.disabled) ?trace_id ~host ~port files =
  let attempts = max 1 attempts in
  (* One id for the whole run: retried attempts re-announce it, so the
     daemon's per-attempt sessions all join under the same trace. *)
  let trace_id =
    match trace_id with Some id -> id | None -> Trace_id.mint ()
  in
  (match Scope.registry scope with
  | Some reg ->
      Fsync_obs.Registry.set_trace reg ~trace:(Trace_id.to_hex trace_id)
        ~role:"client"
  | None -> ());
  let prng = Prng.create (Int64.of_int ((seed * 0x9e3779b1) lxor 0x7075)) in
  let backoff = ref 0.0 in
  let resume = ref None in
  let rec go n =
    (* Each retry reseeds the schedule so a deterministic fault does not
       strike the identical frame forever; the resume token carries the
       completed files across, so only the remainder re-transfers. *)
    let puller =
      match !resume with
      | Some token -> Puller.create ~scope ~trace_id ~resume:token files
      | None -> Puller.create ~scope ~trace_id files
    in
    match
      attempt ?fault ~seed:(seed + n) ~idle_timeout_s ~host ~port puller
    with
    | r -> { r with attempts = n + 1; backoff_s = !backoff }
    | exception e when retryable e && n + 1 < attempts ->
        resume := Puller.resume_token puller;
        let delay = Backoff.delay_s prng ~failed:(n + 1) e in
        backoff := !backoff +. delay;
        Trace.log "pull: attempt %d/%d failed (%s), retrying in %.3f s"
          (n + 1) attempts
          (match Error.of_exn e with
          | Some err -> Error.to_string err
          | None -> Printexc.to_string e)
          delay;
        Unix.sleepf delay;
        go (n + 1)
  in
  go 0
