(* One-shot blocking client for the daemon's admin plane: connect, send
   one framed request ("metrics" or "status"), read one framed reply,
   close.  Shares the 4-byte framing with the data plane via
   {!Fsync_net.Fd_transport}, so there is exactly one wire format to
   harden. *)

module Channel = Fsync_net.Channel
module Fd_transport = Fsync_net.Fd_transport
module Error = Fsync_core.Error
module Monotonic = Fsync_obs.Monotonic

let request ?(timeout_s = 5.0) ~host ~port body =
  let tr = Fd_transport.of_fd (Fd_transport.connect ~host ~port) in
  let ch = Fd_transport.channel tr in
  let go () =
    Channel.send ch ~label:"admin" Channel.Client_to_server body;
    let deadline = Monotonic.now () +. timeout_s in
    let rec recv () =
      match Channel.recv_opt ch Channel.Server_to_client with
      | Some reply -> reply
      | None ->
          if Monotonic.now () > deadline then
            Error.fail
              (Error.Channel_empty
                 (Printf.sprintf "Admin: no reply to %S within %.1f s" body
                    timeout_s));
          ignore
            (Fd_transport.wait_readable tr Channel.Server_to_client
               ~timeout_s:0.2);
          recv ()
    in
    recv ()
  in
  match go () with
  | reply ->
      Fd_transport.close tr;
      reply
  | exception e ->
      Fd_transport.close tr;
      raise e

let metrics ?timeout_s ~host ~port () =
  request ?timeout_s ~host ~port "metrics"

let status ?timeout_s ~host ~port () =
  match Fsync_obs.Json.parse (request ?timeout_s ~host ~port "status") with
  | Ok doc -> doc
  | Error e ->
      Error.malformed "Admin: status reply is not valid JSON: %s" e
