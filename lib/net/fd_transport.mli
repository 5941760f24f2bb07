(** A {!Channel} backed by real file descriptors.

    Everything above the channel — protocol drivers, fault schedules,
    byte accounting, transcripts — is written against the in-memory
    [Channel.t].  This module gives the same interface a real kernel
    transport: each logical message crosses a socket as one
    length-prefixed frame, and the channel's accounting reflects what
    was actually written (payload plus the {!header_bytes} prefix).

    Fault injection composes: {!Fault.attach} installs its wire hook on
    the channel as usual, and this transport asks the channel (via
    [Channel.apply_wire_hook]) what physically crosses the link before
    writing, so drop / corrupt / truncate / duplicate schedules apply to
    real sockets exactly as they do to the in-memory queues.

    The transport installs itself as the channel's session layer, so it
    cannot be combined with {!Frame} on the same channel (framing,
    ordering and integrity are the kernel's job here; corruption
    injected by a fault schedule is caught by the decoders above). *)

exception Closed
(** The peer closed the connection (raised from [recv_opt] on EOF and
    from [send] after {!close}). *)

exception Oversized of int
(** A frame length exceeded {!max_frame} — wire corruption or a
    protocol error, never a legitimate message. *)

val header_bytes : int
(** Per-frame overhead: a 4-byte big-endian payload length. *)

val max_frame : int

type t

val of_socketpair :
  ?latency_s:float -> ?bandwidth_bps:float -> unit -> t
(** Both ends of a [Unix.socketpair] in one process: client-to-server
    sends enter the client's fd and are received from the server's fd,
    and symmetrically — so a whole in-process protocol run
    ([Driver.sync], the resilience tests) exercises real kernel
    buffers.  Writes that fill the kernel buffer drain the opposite
    buffers while waiting, so single-process runs cannot deadlock
    against their own unread data. *)

val of_fd : ?latency_s:float -> ?bandwidth_bps:float -> Unix.file_descr -> t
(** One endpoint of a connected socket (e.g. a TCP connection to the
    daemon).  Both directions map to the same fd: sends are written to
    it, receives read from it; the [direction] argument only drives
    accounting.  The fd is owned by the transport from here on (set
    non-blocking now, closed by {!close}). *)

val channel : t -> Channel.t
(** The channel protocol code holds.  [send] writes a frame through the
    wire hook; [recv_opt] returns a complete frame if one is buffered or
    readable right now, [None] otherwise, and raises {!Closed} on EOF. *)

val wait_readable : t -> Channel.direction -> timeout_s:float -> bool
(** Block (up to [timeout_s]) until a receive in the given direction
    could make progress: true if a complete frame is already buffered or
    the fd became readable. *)

val close : t -> unit
(** Close the owned fd(s); idempotent. *)

(** {1 Framing for event loops}

    The daemon's non-blocking connections ([Fsync_server.Conn]) frame
    and reassemble with these rather than keep a copy. *)

val frame : string -> Bytes.t
(** The payload behind its {!header_bytes} length prefix, ready to write.
    @raise Oversized past {!max_frame}. *)

type reader
(** The receive side of one non-blocking fd: bytes read but not yet
    framed out, in one buffer kept for the reader's lifetime. *)

val reader : Unix.file_descr -> reader

val fill : reader -> bool
(** Read everything available now without blocking; true iff the peer
    closed its end. *)

val read_frame : reader -> string option
(** The next complete buffered frame, if any.
    @raise Oversized when a buffered header declares more than
    {!max_frame}. *)

(** {1 TCP setup}

    Every TCP socket in the library is made here, so each one gets
    [TCP_NODELAY]: a turn of the protocol can be two frames written
    back to back, and with Nagle's algorithm on the second would wait
    for the peer's delayed ACK (DESIGN.md §10, "Latency").  Each
    function closes the socket it made before re-raising a failure. *)

val connect : host:string -> port:int -> Unix.file_descr
(** A blocking TCP connection to [host] (numeric, e.g. ["127.0.0.1"])
    and [port], with [TCP_NODELAY] set.  Hand it to {!of_fd}.
    @raise Unix.Unix_error when the connection fails. *)

val listen : host:string -> port:int -> Unix.file_descr * int
(** A non-blocking listener bound to [host] and [port] with
    [SO_REUSEADDR], and the port it is bound to (useful with port [0]).
    @raise Unix.Unix_error on bind failure. *)

val accept : Unix.file_descr -> Unix.file_descr
(** The next pending connection on a {!listen}er, with [TCP_NODELAY]
    set on it (accepted sockets inherit the option only on Linux).
    @raise Unix.Unix_error as [Unix.accept] does ([EAGAIN] when none is
    pending). *)
