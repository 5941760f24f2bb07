(* Tests for Fsync_net.Channel: byte accounting, round-trip counting, the
   message queue, and the simulated link time. *)

open Fsync_net

(* [Channel.recv] is gone from the API (protocol code must handle an
   empty queue as a typed condition); tests materialize the option. *)
let recv_exn ch dir =
  match Channel.recv_opt ch dir with
  | Some p -> p
  | None -> Alcotest.fail "expected a pending message"

let test_byte_counters () =
  let ch = Channel.create () in
  Channel.send ch Channel.Client_to_server "abc";
  Channel.send ch Channel.Server_to_client "defgh";
  Channel.send ch Channel.Client_to_server "";
  Alcotest.(check int) "c2s" 3 (Channel.bytes ch Channel.Client_to_server);
  Alcotest.(check int) "s2c" 5 (Channel.bytes ch Channel.Server_to_client);
  Alcotest.(check int) "total" 8 (Channel.total_bytes ch);
  Alcotest.(check int) "messages" 3 (Channel.messages ch)

let test_roundtrips () =
  let ch = Channel.create () in
  Alcotest.(check int) "none yet" 0 (Channel.roundtrips ch);
  Channel.send ch Channel.Client_to_server "q1";
  (* Consecutive same-direction messages piggyback on one trip. *)
  Channel.send ch Channel.Client_to_server "q2";
  Channel.send ch Channel.Server_to_client "a1";
  Alcotest.(check int) "one roundtrip" 1 (Channel.roundtrips ch);
  Channel.send ch Channel.Client_to_server "q3";
  Channel.send ch Channel.Server_to_client "a2";
  Alcotest.(check int) "two roundtrips" 2 (Channel.roundtrips ch)

let test_queue_fifo () =
  let ch = Channel.create () in
  Channel.send ch Channel.Client_to_server "first";
  Channel.send ch Channel.Client_to_server "second";
  Alcotest.(check string) "fifo 1" "first" (recv_exn ch Channel.Client_to_server);
  Alcotest.(check string) "fifo 2" "second" (recv_exn ch Channel.Client_to_server);
  Alcotest.(check (option string)) "empty" None
    (Channel.recv_opt ch Channel.Client_to_server)

let test_directions_independent () =
  let ch = Channel.create () in
  Channel.send ch Channel.Client_to_server "up";
  Channel.send ch Channel.Server_to_client "down";
  Alcotest.(check string) "down" "down" (recv_exn ch Channel.Server_to_client);
  Alcotest.(check string) "up" "up" (recv_exn ch Channel.Client_to_server)

let test_elapsed () =
  let ch = Channel.create ~latency_s:0.1 ~bandwidth_bps:8000.0 () in
  Channel.send ch Channel.Client_to_server (String.make 1000 'x');
  Channel.send ch Channel.Server_to_client "ok";
  (* 1 roundtrip * 2 * 0.1s + 1002 bytes / 1000 B/s *)
  let t = Channel.elapsed_s ch in
  Alcotest.(check bool) (Printf.sprintf "elapsed %.3f" t) true
    (t > 1.19 && t < 1.22)

let test_transcript_and_reset () =
  let ch = Channel.create () in
  Channel.send ch ~label:"hello" Channel.Client_to_server "xy";
  let tr = Channel.transcript ch in
  (match tr with
  | [ (Channel.Client_to_server, "hello", 2) ] -> ()
  | _ -> Alcotest.fail "unexpected transcript");
  Channel.reset ch;
  Alcotest.(check int) "reset bytes" 0 (Channel.total_bytes ch);
  Alcotest.(check int) "reset messages" 0 (Channel.messages ch);
  Alcotest.(check (list unit)) "reset transcript" []
    (List.map (fun _ -> ()) (Channel.transcript ch))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i =
    i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1))
  in
  nn = 0 || loop 0

let test_trace_render () =
  let ch = Channel.create () in
  Channel.send ch ~label:"hello" Channel.Client_to_server "abc";
  Channel.send ch ~label:"info" Channel.Server_to_client "defg";
  Channel.send ch ~label:"resp" Channel.Client_to_server "x";
  let out = Fsync_net.Trace.render ch in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains out needle))
    [ "hello"; "info"; "resp"; "round trip 2" ]

let test_trace_summary () =
  let ch = Channel.create () in
  Channel.send ch ~label:"a" Channel.Client_to_server "12345";
  Channel.send ch ~label:"b" Channel.Server_to_client "123";
  Channel.send ch ~label:"a" Channel.Client_to_server "12";
  match Fsync_net.Trace.summary_by_label ch with
  | [ ("a", 2, 7); ("b", 1, 3) ] -> ()
  | other ->
      Alcotest.failf "unexpected summary: %s"
        (String.concat ";"
           (List.map (fun (l, c, b) -> Printf.sprintf "%s/%d/%d" l c b) other))

let test_trace_roundtrip_numbering () =
  (* Render numbers trips exactly like Channel.roundtrips: a c2s message
     after s2c traffic (or at the very start) opens the next trip. *)
  let ch = Channel.create () in
  Channel.send ch ~label:"q1" Channel.Client_to_server "aa";
  Channel.send ch ~label:"a1" Channel.Server_to_client "bb";
  Channel.send ch ~label:"q2" Channel.Client_to_server "cc";
  Channel.send ch ~label:"q2b" Channel.Client_to_server "dd";
  Channel.send ch ~label:"a2" Channel.Server_to_client "ee";
  Channel.send ch ~label:"q3" Channel.Client_to_server "ff";
  let out = Fsync_net.Trace.render ch in
  let index needle =
    let nn = String.length needle and nh = String.length out in
    let rec loop i =
      if i + nn > nh then Alcotest.failf "missing %S in render" needle
      else if String.sub out i nn = needle then i
      else loop (i + 1)
    in
    loop 0
  in
  let i1 = index "-- round trip 1 --"
  and i2 = index "-- round trip 2 --"
  and i3 = index "-- round trip 3 --" in
  Alcotest.(check bool) "trips in order" true (i1 < i2 && i2 < i3);
  Alcotest.(check bool) "no fourth trip" true (not (contains out "round trip 4"));
  (* The trailing q3 has no reply yet: the channel counts completed
     trips (2) while render numbers each initiated one (3). *)
  Alcotest.(check bool) "footer agrees" true (contains out "2 round trips");
  Alcotest.(check int) "channel agrees" 2 (Channel.roundtrips ch)

let test_trace_summary_ties () =
  (* Equal byte totals must come back in a deterministic order: label
     ascending. *)
  let ch = Channel.create () in
  Channel.send ch ~label:"zeta" Channel.Client_to_server "1234";
  Channel.send ch ~label:"alpha" Channel.Server_to_client "12";
  Channel.send ch ~label:"alpha" Channel.Client_to_server "34";
  Channel.send ch ~label:"mid" Channel.Server_to_client "123456";
  match Fsync_net.Trace.summary_by_label ch with
  | [ ("mid", 1, 6); ("alpha", 2, 4); ("zeta", 1, 4) ] -> ()
  | other ->
      Alcotest.failf "unexpected summary: %s"
        (String.concat ";"
           (List.map (fun (l, c, b) -> Printf.sprintf "%s/%d/%d" l c b) other))

let test_bytes_with_prefix () =
  let ch = Channel.create () in
  Channel.send ch ~label:"recon:level-1" Channel.Client_to_server "abc";
  Channel.send ch ~label:"recon:level-1" Channel.Server_to_client "defgh";
  Channel.send ch ~label:"recon" Channel.Client_to_server "zz";
  Channel.send ch ~label:"file" Channel.Server_to_client "0123456";
  (* The empty prefix matches every label. *)
  Alcotest.(check (pair int int)) "empty prefix = totals" (5, 12)
    (Fsync_net.Trace.bytes_with_prefix ch "");
  (* A prefix exactly as long as the label still matches it. *)
  Alcotest.(check (pair int int)) "exact-length label" (5, 5)
    (Fsync_net.Trace.bytes_with_prefix ch "recon");
  Alcotest.(check (pair int int)) "longer prefix excludes short label" (3, 5)
    (Fsync_net.Trace.bytes_with_prefix ch "recon:");
  Alcotest.(check (pair int int)) "no match" (0, 0)
    (Fsync_net.Trace.bytes_with_prefix ch "recon:level-10")

(* ---- Fd_transport: the fd-backed channel ---- *)

let test_fd_transport_roundtrip () =
  let tr = Fd_transport.of_socketpair () in
  let ch = Fd_transport.channel tr in
  Channel.send ch ~label:"t" Channel.Client_to_server "hello daemon";
  Channel.send ch ~label:"t" Channel.Server_to_client "hello client";
  Alcotest.(check (option string))
    "c2s frame" (Some "hello daemon")
    (Channel.recv_opt ch Channel.Client_to_server);
  Alcotest.(check (option string))
    "s2c frame" (Some "hello client")
    (Channel.recv_opt ch Channel.Server_to_client);
  Alcotest.(check (option string))
    "empty again" None
    (Channel.recv_opt ch Channel.Client_to_server);
  (* Accounting covers payload plus the 4-byte frame header. *)
  Alcotest.(check int)
    "c2s bytes" (12 + 4)
    (Channel.bytes ch Channel.Client_to_server);
  Fd_transport.close tr

let test_fd_transport_framing () =
  (* Several frames in flight arrive intact and in order, including an
     empty one. *)
  let tr = Fd_transport.of_socketpair () in
  let ch = Fd_transport.channel tr in
  let payloads = [ "a"; ""; String.make 100_000 'x'; "tail" ] in
  List.iter
    (fun p -> Channel.send ch ~label:"t" Channel.Client_to_server p)
    payloads;
  List.iter
    (fun expect ->
      Alcotest.(check (option string))
        "in order" (Some expect)
        (Channel.recv_opt ch Channel.Client_to_server))
    payloads;
  Fd_transport.close tr

let test_fd_transport_faults () =
  (* The same wire hooks the in-memory channel runs — a lost frame never
     reaches the fd but is still charged to the sender. *)
  let tr = Fd_transport.of_socketpair () in
  let ch = Fd_transport.channel tr in
  Channel.set_wire_hook ch
    (Some
       (fun _dir payload ->
         if String.length payload > 5 then
           [ Channel.Lost (String.length payload) ]
         else [ Channel.Delivered payload ]));
  Channel.send ch ~label:"t" Channel.Client_to_server "dropped frame";
  Channel.send ch ~label:"t" Channel.Client_to_server "ok";
  Alcotest.(check (option string))
    "survivor only" (Some "ok")
    (Channel.recv_opt ch Channel.Client_to_server);
  Alcotest.(check int)
    "both charged"
    (13 + 4 + 2 + 4)
    (Channel.bytes ch Channel.Client_to_server);
  Fd_transport.close tr

let test_fd_transport_closed () =
  let tr = Fd_transport.of_socketpair () in
  let ch = Fd_transport.channel tr in
  Fd_transport.close tr;
  Alcotest.check_raises "send after close" Fd_transport.Closed (fun () ->
      Channel.send ch ~label:"t" Channel.Client_to_server "x")

(* Receive every frame the peer sends until [n] have arrived. *)
let recv_n tr n =
  let ch = Fd_transport.channel tr in
  let rec go acc =
    if List.length acc >= n then List.rev acc
    else
      match Channel.recv_opt ch Channel.Server_to_client with
      | Some f -> go (f :: acc)
      | None ->
          if
            not
              (Fd_transport.wait_readable tr Channel.Server_to_client
                 ~timeout_s:5.0)
          then Alcotest.failf "only %d of %d frames arrived" (List.length acc) n;
          go acc
  in
  go []

let test_fd_transport_tcp_nodelay () =
  (* Every TCP fd made through Fd_transport has Nagle's algorithm off,
     the dialed end and the accepted end alike; without it the second
     frame of a two-frame turn waits for the peer's delayed ACK. *)
  let listener, port = Fd_transport.listen ~host:"127.0.0.1" ~port:0 in
  let dialed = Fd_transport.connect ~host:"127.0.0.1" ~port in
  ignore (Unix.select [ listener ] [] [] 5.0);
  let accepted = Fd_transport.accept listener in
  Unix.close listener;
  Alcotest.(check bool) "dialed fd" true
    (Unix.getsockopt dialed Unix.TCP_NODELAY);
  Alcotest.(check bool) "accepted fd" true
    (Unix.getsockopt accepted Unix.TCP_NODELAY);
  let client = Fd_transport.of_fd dialed in
  let server = Fd_transport.of_fd accepted in
  Fun.protect
    ~finally:(fun () ->
      Fd_transport.close client;
      Fd_transport.close server)
    (fun () ->
      let turn = [ "file begin"; String.make 3000 'h' ] in
      List.iter
        (Channel.send (Fd_transport.channel client) ~label:"t"
           Channel.Client_to_server)
        turn;
      Alcotest.(check (list string)) "c2s burst" turn (recv_n server 2);
      List.iter
        (Channel.send (Fd_transport.channel server) ~label:"t"
           Channel.Server_to_client)
        turn;
      Alcotest.(check (list string)) "s2c burst" turn (recv_n client 2))

let test_fd_transport_chunked_frames () =
  (* The twin of the server's conn chunked-frames test: a 200 KB frame
     and a small one, written in 8 KB pieces, reassemble byte-identically
     through one endpoint's receive buffer. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let tr = Fd_transport.of_fd b in
  let ch = Fd_transport.channel tr in
  let frame s =
    let len = String.length s in
    String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff)) ^ s
  in
  let big = String.init 200_000 (fun i -> Char.chr (i mod 251)) in
  let small = "tiny" in
  let raw = frame big ^ frame small in
  let frames = ref [] in
  let drain () =
    let rec go () =
      match Channel.recv_opt ch Channel.Server_to_client with
      | Some f ->
          frames := !frames @ [ f ];
          go ()
      | None -> ()
    in
    go ()
  in
  let pos = ref 0 in
  while !pos < String.length raw do
    let n = min 8192 (String.length raw - !pos) in
    pos := !pos + Unix.write_substring a raw !pos n;
    drain ()
  done;
  drain ();
  (match !frames with
  | [ f1; f2 ] ->
      Alcotest.(check string) "big frame intact" big f1;
      Alcotest.(check string) "small frame intact" small f2
  | fs -> Alcotest.failf "expected 2 frames, got %d" (List.length fs));
  Alcotest.(check int) "accounting"
    (String.length raw)
    (Channel.bytes ch Channel.Server_to_client);
  Fd_transport.close tr;
  Unix.close a

let test_fd_transport_idle_polls_do_not_allocate () =
  (* Polling an idle connection reuses the endpoint's receive buffer:
     a hundred empty receives allocate far less than one 64 KiB read
     chunk each. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let tr = Fd_transport.of_fd b in
  let ch = Fd_transport.channel tr in
  let before = Gc.allocated_bytes () in
  for _ = 1 to 100 do
    ignore (Channel.recv_opt ch Channel.Server_to_client)
  done;
  let spent = Gc.allocated_bytes () -. before in
  Fd_transport.close tr;
  Unix.close a;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes for 100 idle polls" spent)
    true (spent < 65536.0)

let suite =
  [
    ("byte counters", `Quick, test_byte_counters);
    ("roundtrip counting", `Quick, test_roundtrips);
    ("queue fifo", `Quick, test_queue_fifo);
    ("directions independent", `Quick, test_directions_independent);
    ("elapsed time", `Quick, test_elapsed);
    ("transcript and reset", `Quick, test_transcript_and_reset);
    ("trace render", `Quick, test_trace_render);
    ("trace summary", `Quick, test_trace_summary);
    ("trace roundtrip numbering", `Quick, test_trace_roundtrip_numbering);
    ("trace summary ties", `Quick, test_trace_summary_ties);
    ("trace bytes_with_prefix", `Quick, test_bytes_with_prefix);
    ("fd transport roundtrip", `Quick, test_fd_transport_roundtrip);
    ("fd transport framing", `Quick, test_fd_transport_framing);
    ("fd transport faults", `Quick, test_fd_transport_faults);
    ("fd transport closed", `Quick, test_fd_transport_closed);
    ("fd transport tcp nodelay", `Quick, test_fd_transport_tcp_nodelay);
    ("fd transport chunked frames", `Quick, test_fd_transport_chunked_frames);
    ( "fd transport idle polls do not allocate",
      `Quick,
      test_fd_transport_idle_polls_do_not_allocate );
  ]
