(* The rule vocabulary shared by the syntactic pass ({!Lint}) and the
   dataflow engine ({!Dataflow}): identifiers, rationale text, and the
   finding record both passes produce.

   R1-R5 and R10 are syntactic (pattern matching on the Parsetree);
   R6-R9 are dataflow rules (per-function environments tracking
   acquired resources, wire-tainted integers, and call context).  Each
   rule
   machine-checks an invariant that was once restored by hand in a
   reviewed bug fix — the rationale strings name the incident. *)

type t = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10

let all = [ R1; R2; R3; R4; R5; R6; R7; R8; R9; R10 ]

let name = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"

let of_name s =
  match String.lowercase_ascii s with
  | "r1" -> Some R1
  | "r2" -> Some R2
  | "r3" -> Some R3
  | "r4" -> Some R4
  | "r5" -> Some R5
  | "r6" -> Some R6
  | "r7" -> Some R7
  | "r8" -> Some R8
  | "r9" -> Some R9
  | "r10" -> Some R10
  | _ -> None

let equal a b = String.equal (name a) (name b)

let explain = function
  | R1 ->
      "R1 polymorphic-comparison: no `=`, `<>`, `compare` or `Hashtbl.hash` \
       in wire-sensitive libraries (core, net, reconcile, hashing, rsync, \
       delta, server) or in bin/ and bench/, which handle the same protocol \
       values.  Polymorphic comparison walks runtime representations, so \
       its verdict depends on in-memory layout rather than the wire \
       encoding both endpoints agreed on, and it is also slower than the \
       monomorphic equivalent on hot paths.  Use `String.equal`, \
       `Int.equal`, `Option.is_some`, a dedicated `equal`/`compare` for \
       the type, or pattern matching.  Comparisons against immediate \
       literals (`= 0`, `<> '\\n'`, `= true`, `= []`, `= ()`) are exempt: \
       the compiler specializes them and no protocol type is involved."
  | R2 ->
      "R2 crash-point: no `failwith`, `invalid_arg`, `assert false`, \
       `List.hd` or `Option.get` in library code.  Malformed or truncated \
       input reaching a decode/receive path must surface as a typed \
       `Fsync_core.Error`, never as an untyped exception that callers \
       cannot distinguish from a bug."
  | R3 ->
      "R3 direct-output: no `Printf.printf`, `print_string`, `prerr_*` \
       and friends in `lib/`.  Libraries report through `Fsync_net.Trace` \
       (or return data); only binaries talk to stdout/stderr."
  | R4 ->
      "R4 missing-interface: every `lib/**/*.ml` has a corresponding \
       `.mli`.  An unconstrained module leaks representation details the \
       wire format must not depend on."
  | R5 ->
      "R5 codec-asymmetry: every top-level `write_x`/`put_x` in a \
       wire-sensitive library has a matching `read_x`/`get_x` in the same \
       module.  An encoder without its decoder is either dead weight or a \
       message the peer cannot parse."
  | R6 ->
      "R6 resource-leak: a file descriptor or channel acquired with \
       `Unix.openfile`/`socket`/`accept`/`opendir`/`open_in*`/`open_out*` \
       or `Fd_transport.connect`/`listen`/`accept` must reach its close call on every control-flow path, be protected \
       by `Fun.protect ~finally`, or be handed off to an owner (returned, \
       stored, or passed to a wrapper that takes ownership).  A branch — \
       especially an error branch — that drops the value leaks one fd per \
       occurrence, and the daemon multiplies every per-session leak by \
       its session count.  PR 5 shipped exactly this bug: a write to a \
       dead peer dropped the outbox but left the fd open until the \
       process ran out of descriptors."
  | R7 ->
      "R7 tainted-length: an integer decoded from the wire (`Varint.read`, \
       a `get_*`/`read_*` reader in Msg/Wire/Frame/Meta_wire) is \
       attacker-controlled and must flow through a bounds guard — an \
       explicit comparison against a limit, or a `min`/`max` clamp — \
       before it reaches an allocation (`Bytes.create`, `String.make`, \
       `Array.make`, `*_init`) or any multiplication.  Multiplying first \
       and checking the product is not a guard: PR 5's `'S'` decode \
       multiplied a hostile varint near 2^61 by the hash width, \
       overflowed negative, and slipped past a sum-based check."
  | R8 ->
      "R8 event-loop-blocking: nothing inside `Daemon.step`/`Conn` \
       readable-writable paths may block the single-threaded select \
       loop: no `Unix.sleep*`/`Thread.delay`, no `Unix.system`/ \
       `Sys.command`/`Unix.wait*`, no `Unix.select` with a negative \
       (infinite) timeout, and no raw `Unix.read`/`write` outside the \
       non-blocking `Conn` buffers.  One blocking call parks every \
       session behind the slowest peer — the backpressure design \
       (DESIGN.md \xc2\xa710) only works because the loop never waits on any \
       single fd."
  | R9 ->
      "R9 io-mediated-syscalls: in `lib/store` and `lib/collection`, \
       mutating filesystem calls (`rename`, `unlink`/`remove`, `mkdir`, \
       `rmdir`, `fsync`, `open_out*`, `Unix.openfile` with write flags) \
       must go through the `Fsync_store.Io` record, never raw \
       `Unix`/`Sys`.  `Fault_io`'s crash-point sweep (the torture \
       harness) can only prove crash safety for syscalls it can \
       intercept; a raw call is an untested crash window.  `lib/store/ \
       io.ml` itself is the sanctioned boundary and is exempt."
  | R10 ->
      "R10 tcp-setup: in `lib/` and `bin/`, `Unix.socket`, `Unix.connect`, \
       `Unix.bind`, `Unix.accept`, `Unix.open_connection` and \
       `Unix.establish_server` appear only in `lib/net/fd_transport.ml`; \
       everything else dials with `Fd_transport.connect`, listens with \
       `Fd_transport.listen` and accepts with `Fd_transport.accept`, which \
       set `TCP_NODELAY` on every TCP fd.  (`Unix.socketpair` makes no TCP \
       socket and stays allowed.)  A server turn is often two frames \
       written back to back (`File_begin`, then `Hashes`); with Nagle's \
       algorithm on, the kernel holds the second until the first is \
       ACKed, and the client delays that ACK by at least 40 ms.  The \
       benchmark's first record (bench/perf) caught the stall: pulls and \
       gossip spent 86-97% of their loopback wall time waiting on TCP, \
       about 42 ms per two-frame turn, because four private `connect` \
       copies and two listeners each made their sockets by hand and none \
       set the option."

type finding = { rule : t; file : string; line : int; col : int; msg : string }

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare (name a.rule) (name b.rule)
          | c -> c)
      | c -> c)
  | c -> c

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col (name f.rule)
    f.msg

let finding_of_loc rule ~file (loc : Location.t) msg =
  let p = loc.loc_start in
  { rule; file; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; msg }
