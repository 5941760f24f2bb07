module Error = Fsync_core.Error
module Fd_transport = Fsync_net.Fd_transport

(* Writes to a peer that already vanished raise EPIPE only when the
   default kill-the-process SIGPIPE disposition is disabled; do it once
   for any process that owns connections. *)
let ignore_sigpipe =
  lazy
    (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
    | () -> ()
    | exception Invalid_argument _ -> ()
    | exception Sys_error _ -> ())

type t = {
  fd : Unix.file_descr;
  inbox : Fd_transport.reader;    (* raw bytes read, not yet framed out *)
  outbox : Bytes.t Queue.t;       (* framed messages awaiting the socket *)
  mutable out_head_pos : int;     (* bytes of the queue head already sent *)
  mutable out_bytes : int;        (* total unsent bytes in the outbox *)
  max_outbox : int;
  mutable closed : bool;
  mutable peer_gone : bool;       (* a write hit a dead peer; fd still open *)
  mutable bytes_in : int;         (* payload bytes received *)
  mutable bytes_out : int;        (* payload bytes queued for sending *)
}

let create ?(max_outbox = 4 * 1024 * 1024) fd =
  Lazy.force ignore_sigpipe;
  Unix.set_nonblock fd;
  {
    fd;
    inbox = Fd_transport.reader fd;
    outbox = Queue.create ();
    out_head_pos = 0;
    out_bytes = 0;
    max_outbox;
    closed = false;
    peer_gone = false;
    bytes_in = 0;
    bytes_out = 0;
  }

let fd t = t.fd

let closed t = t.closed

let peer_gone t = t.peer_gone

let bytes_in t = t.bytes_in

let bytes_out t = t.bytes_out

let pending_out t = t.out_bytes

let wants_write t = (not t.closed) && (not t.peer_gone) && t.out_bytes > 0

(* Backpressure: while more than [max_outbox] bytes sit unsent, the
   event loop stops reading from this connection (and from producing
   more replies for it) until the socket drains. *)
let over_backpressure t = t.out_bytes > t.max_outbox

let queue_msg t payload =
  let len = String.length payload in
  if len > Fd_transport.max_frame then Error.limit "Conn: frame of %d bytes" len;
  if not (t.closed || t.peer_gone) then begin
    let framed = Fd_transport.frame payload in
    Queue.add framed t.outbox;
    t.out_bytes <- t.out_bytes + Bytes.length framed;
    t.bytes_out <- t.bytes_out + len
  end

(* Pop every complete frame out of the input buffer. *)
let rec read_frames t acc =
  match Fd_transport.read_frame t.inbox with
  | Some frame ->
      t.bytes_in <- t.bytes_in + String.length frame;
      read_frames t (frame :: acc)
  | None -> List.rev acc
  | exception Fd_transport.Oversized len ->
      Error.limit "Conn: incoming frame of %d bytes" len

let handle_readable t =
  if t.closed || t.peer_gone then `Eof
  else
    let eof = Fd_transport.fill t.inbox in
    match read_frames t [] with
    | [] when eof -> `Eof
    | frames -> `Msgs (frames, eof)

let handle_writable t =
  if not (t.closed || t.peer_gone) then begin
    let continue = ref true in
    while !continue && not (Queue.is_empty t.outbox) do
      let head = Queue.peek t.outbox in
      let remaining = Bytes.length head - t.out_head_pos in
      match Unix.write t.fd head t.out_head_pos remaining with
      | n ->
          t.out_bytes <- t.out_bytes - n;
          if Int.equal n remaining then begin
            ignore (Queue.pop t.outbox);
            t.out_head_pos <- 0
          end
          else t.out_head_pos <- t.out_head_pos + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN), _, _) ->
          (* The peer is gone: nothing queued can ever be delivered.
             Drop the outbox but leave [closed] to {!close}, so the fd
             is actually released and the owner still sees this
             connection (to account the session) before reaping it. *)
          t.peer_gone <- true;
          Queue.clear t.outbox;
          t.out_head_pos <- 0;
          t.out_bytes <- 0;
          continue := false
    done
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    match Unix.close t.fd with
    | () -> ()
    | exception Unix.Unix_error _ -> ()
  end
