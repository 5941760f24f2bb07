exception Closed

exception Oversized of int

(* 4-byte big-endian length prefix; one frame per logical message. *)
let header_bytes = 4

let max_frame = 1 lsl 28 (* 256 MB: nothing in the protocol comes close *)

(* Inbound bytes are read straight into [buf], one buffer per endpoint
   for its lifetime: the unconsumed bytes are [len] bytes from
   [start]. *)
type endpoint = {
  write_fd : Unix.file_descr;
  read_fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
}

type reader = endpoint

let chunk_len = 65536

let new_endpoint ~write_fd ~read_fd =
  { write_fd; read_fd; buf = Bytes.create chunk_len; start = 0; len = 0 }

let reader fd = new_endpoint ~write_fd:fd ~read_fd:fd

type t = {
  ch : Channel.t;
  c2s : endpoint;
  s2c : endpoint;
  single : bool; (* both endpoints are the same record (one fd) *)
  owned : Unix.file_descr list;
  mutable closed : bool;
}

let endpoint t = function
  | Channel.Client_to_server -> t.c2s
  | Channel.Server_to_client -> t.s2c

(* ---- byte-level plumbing ---- *)

let frame payload =
  let len = String.length payload in
  if len > max_frame then raise (Oversized len);
  let b = Bytes.create (header_bytes + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b header_bytes len;
  b

(* Room for one more [chunk_len] read after the unconsumed bytes: slide
   them to the front when that frees enough space, otherwise grow
   geometrically, so an n-byte frame costs O(n) amortized. *)
let reserve ep =
  let cap = Bytes.length ep.buf in
  if ep.start + ep.len + chunk_len > cap then begin
    let buf =
      if ep.len + chunk_len <= cap then ep.buf
      else Bytes.create (max (2 * cap) (ep.len + chunk_len))
    in
    Bytes.blit ep.buf ep.start buf 0 ep.len;
    ep.buf <- buf;
    ep.start <- 0
  end

(* Read whatever is available right now without blocking; true iff the
   peer has closed its end. *)
let fill ep =
  let rec loop () =
    reserve ep;
    match Unix.read ep.read_fd ep.buf (ep.start + ep.len) chunk_len with
    | 0 -> true
    | n ->
        ep.len <- ep.len + n;
        loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  in
  loop ()

let frame_len_opt ep =
  if ep.len < header_bytes then None
  else
    let hi = Bytes.get_uint16_be ep.buf ep.start in
    let len = (hi lsl 16) lor Bytes.get_uint16_be ep.buf (ep.start + 2) in
    if len > max_frame then raise (Oversized len) else Some len

let has_frame ep =
  match frame_len_opt ep with
  | None -> false
  | Some len -> ep.len >= header_bytes + len

let read_frame ep =
  match frame_len_opt ep with
  | Some len when ep.len >= header_bytes + len ->
      let payload = Bytes.sub_string ep.buf (ep.start + header_bytes) len in
      ep.start <- ep.start + header_bytes + len;
      ep.len <- ep.len - header_bytes - len;
      if Int.equal ep.len 0 then ep.start <- 0;
      Some payload
  | Some _ | None -> None

let write_frame t ep payload =
  let data = frame payload in
  let total = Bytes.length data in
  let pos = ref 0 in
  while !pos < total do
    match Unix.write ep.write_fd data !pos (total - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* The kernel buffer is full.  In single-process (socketpair)
           use the reader lives in this very process, so drain both
           inbound buffers while we wait — otherwise a large in-flight
           payload deadlocks against our own unread data. *)
        ignore (fill t.c2s);
        if not t.single then ignore (fill t.s2c);
        (match Unix.select [] [ ep.write_fd ] [] 0.05 with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception
        Unix.Unix_error
          ((Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN), _, _) ->
        raise Closed
  done

(* ---- the session layer installed on the channel ---- *)

let session_send t ~label dir payload =
  if t.closed then raise Closed;
  List.iter
    (fun tx ->
      match tx with
      | Channel.Delivered p ->
          write_frame t (endpoint t dir) p;
          Channel.note t.ch ~label dir (String.length p + header_bytes)
      | Channel.Lost n ->
          (* Dropped on the simulated wire: the bytes never reach the fd
             but the sender still paid for them. *)
          Channel.note t.ch ~label dir (n + header_bytes))
    (Channel.apply_wire_hook t.ch dir payload)

let session_recv t dir =
  if t.closed then raise Closed;
  let ep = endpoint t dir in
  (* On a single-fd transport this process is one peer and the frames it
     receives were sent by the other, so they must be accounted here for
     the channel's byte/round-trip bookkeeping to cover both directions.
     On a socketpair both peers share this very channel and the send
     side already accounted every frame. *)
  let noted f =
    (match f with
    | Some p when t.single ->
        Channel.note t.ch dir (String.length p + header_bytes)
    | Some _ | None -> ());
    f
  in
  match read_frame ep with
  | Some _ as f -> noted f
  | None ->
      let eof = fill ep in
      let f = read_frame ep in
      (match f with
      | Some _ -> noted f
      | None -> if eof then raise Closed else None)

let make ~latency_s ~bandwidth_bps ~c2s ~s2c ~single ~owned =
  let ch = Channel.create ?latency_s ?bandwidth_bps () in
  let t = { ch; c2s; s2c; single; owned; closed = false } in
  List.iter (fun fd -> Unix.set_nonblock fd) owned;
  Channel.set_session ch
    ~send:(fun _ ~label dir payload -> session_send t ~label dir payload)
    ~recv:(fun _ dir -> session_recv t dir);
  t

let of_socketpair ?latency_s ?bandwidth_bps () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* [a] is the client's end, [b] the server's: client-to-server frames
     enter at [a] and leave at [b], and symmetrically. *)
  let c2s = new_endpoint ~write_fd:a ~read_fd:b in
  let s2c = new_endpoint ~write_fd:b ~read_fd:a in
  make ~latency_s ~bandwidth_bps ~c2s ~s2c ~single:false ~owned:[ a; b ]

let of_fd ?latency_s ?bandwidth_bps fd =
  let ep = new_endpoint ~write_fd:fd ~read_fd:fd in
  make ~latency_s ~bandwidth_bps ~c2s:ep ~s2c:ep ~single:true ~owned:[ fd ]

let channel t = t.ch

let wait_readable t dir ~timeout_s =
  let ep = endpoint t dir in
  if has_frame ep then true
  else
    match Unix.select [ ep.read_fd ] [] [] timeout_s with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let close_quietly fd =
  match Unix.close fd with () -> () | exception Unix.Unix_error _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter close_quietly t.owned
  end

(* ---- TCP setup: the only place a TCP socket is made ---- *)

(* A server turn is often two frames (File_begin, then Hashes) written
   one after the other.  With Nagle's algorithm on, the kernel holds the
   second until the first is ACKed, and the peer delays that ACK (40 ms
   or more on Linux): every such turn would stall.  So every TCP fd,
   dialed or accepted, gets TCP_NODELAY here.  An accepted socket
   inheriting the option from its listener is Linux-only behaviour, so
   [accept] sets it again. *)
let nodelay fd =
  match Unix.setsockopt fd Unix.TCP_NODELAY true with
  | () -> fd
  | exception e ->
      close_quietly fd;
      raise e

let connect ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () -> nodelay fd
  | exception e ->
      close_quietly fd;
      raise e

let listen ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd 16;
    Unix.set_nonblock fd;
    Unix.getsockname fd
  with
  | Unix.ADDR_INET (_, bound) -> (fd, bound)
  | Unix.ADDR_UNIX _ -> (fd, port)
  | exception e ->
      close_quietly fd;
      raise e

let accept listener =
  let fd, _ = Unix.accept listener in
  nodelay fd
