(* R10: TCP sockets are made only in lib/net/fd_transport.ml. *)

let dial addr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  fd

let serve addr slot =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd addr;
  slot := Some fd

let next listener = Unix.accept listener

let open_raw addr = Unix.open_connection addr

let connect_fn = Unix.connect
