(* Host speed, and timings rescaled to a reference host.

   The machine of record is a 2-vCPU VM on a shared host.  Its CPU speed
   drifts with the neighbours' load: a fixed piece of work (below) takes
   40 ms one second and 60-90 ms the next, and stays slow for minutes at
   a time.  Latency-bound ops barely notice, but a CPU-bound one does:
   web_push's median op time spread 17-25% across ten seeds.  Stolen
   time is charged to whichever guest process was running, so CPU times
   inflate the same way.

   So a probe process runs that work between ops, and the CPU share of
   each timing is rescaled by the ratio of the probe's reference time to
   its time around the op: [wall + cpu * (k - 1)] with
   [k = ref_s / probe].  The wait share (timers, the network) is left as
   measured.  The probe uses the OCaml standard library only — no code of
   this repository — and runs in its own process, so neither a change to
   the program nor the size of the benchmark's heap can move it. *)

(* The probe's time on the reference host: the fast state of the
   machine of record. *)
let ref_s = 0.040

let sink = ref 0

(* Allocation, major-heap strings, hashing, a hash table and a sort: the
   mix of the sync ops themselves, which purely compute-bound or
   copy-bound probes tracked worse. *)
let work () =
  let t0 = Unix.gettimeofday () in
  let b = Buffer.create 4096 in
  for i = 0 to 60_000 do
    Buffer.add_string b (string_of_int (i * 7919))
  done;
  let s = Buffer.contents b in
  let d = ref (Digest.string s) in
  for _ = 1 to 4 do
    d := Digest.string (String.concat !d [ s; s ])
  done;
  let tbl = Hashtbl.create 1024 in
  for i = 0 to 40_000 do
    Hashtbl.replace tbl (string_of_int ((i * 7919) land 0xffff)) i
  done;
  let a = Array.init 60_000 (fun i -> (i * 104729) land 0xfffff) in
  Array.sort Int.compare a;
  sink := !sink + Hashtbl.length tbl + a.(0) + String.length !d;
  Unix.gettimeofday () -. t0

let rec retry f = match f () with v -> v | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry f

(* The probe process ([fsync_perf serve probe]): one connection; each
   byte read, a digit [n], is answered with the median seconds of [n]
   runs of [work]. *)
let serve () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 1;
  let port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0
  in
  Proc.announce ~port ~admin:0;
  let fd, _ = retry (fun () -> Unix.accept sock) in
  Unix.close sock;
  let byte = Bytes.create 1 in
  while retry (fun () -> Unix.read fd byte 0 1) > 0 do
    let runs = max 1 (min 9 (Char.code (Bytes.get byte 0) - Char.code '0')) in
    let s = Stat.median (List.init runs (fun _ -> work ())) in
    let reply = Bytes.of_string (Printf.sprintf "%.9f\n" s) in
    ignore (retry (fun () -> Unix.write fd reply 0 (Bytes.length reply)))
  done

type t = { proc : Proc.t; ic : in_channel; oc : out_channel; runs : int }

(* Three runs a measurement: one is noisier than the ops it rescales.
   The smoke's tiny sizes make do with one. *)
let start ~quick =
  let proc = Proc.spawn [ "probe" ] in
  let ic, oc = Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, proc.port)) in
  Unix.setsockopt (Unix.descr_of_out_channel oc) Unix.TCP_NODELAY true;
  { proc; ic; oc; runs = (if quick then 1 else 3) }

let stop t =
  Unix.shutdown_connection t.ic;
  close_in_noerr t.ic;
  Proc.stop t.proc

(* Seconds of the probe's work, now. *)
let measure t =
  output_char t.oc (Char.chr (Char.code '0' + t.runs));
  flush t.oc;
  match float_of_string_opt (input_line t.ic) with
  | Some s when s > 0.0 -> s
  | _ -> Proc.fail "the host-speed probe answered nonsense"

(* Host speed over an interval with a probe on each side. *)
let speed ~before ~after = ref_s /. ((before +. after) /. 2.0)

(* [wall] seconds, [cpu] of them busy, on the reference host. *)
let rescale ~k ~wall ~cpu = wall +. (Float.min cpu wall *. (k -. 1.0))
