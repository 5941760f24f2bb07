(* R6: acquired fds/channels must be released on every path. *)

let payload = Bytes.create 8

(* The PR-5 peer-gone shape: the error arm drops the accepted fd. *)
let serve_once listener =
  match Unix.accept listener with
  | fd, _ -> (
      try
        let n = Unix.write fd payload 0 (Bytes.length payload) in
        ignore n;
        Unix.close fd
      with Unix.Unix_error (Unix.EPIPE, _, _) -> ())
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()

(* Never closed at all. *)
let probe path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let buf = Bytes.create 16 in
  Unix.read fd buf 0 16

(* Closed on one branch only. *)
let maybe_close cond path =
  let ic = open_in_bin path in
  if cond then close_in ic else ()

(* Dialed through Fd_transport, then dropped when the write fails. *)
let ping ~host ~port =
  let fd = Fd_transport.connect ~host ~port in
  match Unix.write fd payload 0 (Bytes.length payload) with
  | _ -> Unix.close fd
  | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
