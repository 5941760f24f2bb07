(* R10 true negatives: TCP through Fd_transport's setup, and socketpairs,
   which make no TCP socket. *)

let dial ~host ~port = Fd_transport.of_fd (Fd_transport.connect ~host ~port)

let serve slot ~host ~port =
  let fd, bound = Fd_transport.listen ~host ~port in
  slot := Some fd;
  bound

let next listener slot = slot := Some (Fd_transport.accept listener)

let pair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
