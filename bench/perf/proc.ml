(* Server processes and what /proc says about them.

   Every daemon and swarm peer is this executable re-run with the
   [serve] command, so the server's CPU time and peak RSS are its own —
   a plain fork would carry the benchmark's heap into the child's
   resident set.  The child builds its state, listens on 127.0.0.1:0,
   prints one [ready PORT ADMIN_PORT] line on its stdout pipe, and
   serves until SIGTERM. *)

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type t = { pid : int; port : int; admin : int }

(* Children not yet reaped; [stop_all] runs at exit so no run, however
   it ends, leaves a server behind. *)
let live = ref []

let rec wait_exit pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Unix.gettimeofday () > deadline then false
      else begin
        Unix.sleepf 0.005;
        wait_exit pid ~deadline
      end
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~deadline
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let signal pid s =
  match Unix.kill pid s with () -> () | exception Unix.Unix_error _ -> ()

let stop_pid pid =
  signal pid Sys.sigterm;
  if not (wait_exit pid ~deadline:(Unix.gettimeofday () +. 10.0)) then begin
    signal pid Sys.sigkill;
    ignore (wait_exit pid ~deadline:infinity)
  end;
  live := List.filter (fun p -> not (Int.equal p pid)) !live

let stop t = stop_pid t.pid
let stop_all () = List.iter stop_pid !live
let () = at_exit stop_all

let read_line fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 256 in
  let rec loop () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Some (Buffer.sub buf 0 i)
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> loop ()
          | _ ->
              let n = Unix.read fd chunk 0 (Bytes.length chunk) in
              if Int.equal n 0 then None
              else begin
                Buffer.add_subbytes buf chunk 0 n;
                loop ()
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    match
      Unix.create_process exe
        (Array.of_list (exe :: "serve" :: args))
        Unix.stdin w Unix.stderr
    with
    | pid -> pid
    | exception e ->
        Unix.close r;
        Unix.close w;
        raise e
  in
  Unix.close w;
  live := pid :: !live;
  let line =
    Fun.protect
      ~finally:(fun () -> Unix.close r)
      (fun () -> read_line r ~timeout_s:120.0)
  in
  let ready =
    match Option.map (String.split_on_char ' ') line with
    | Some [ "ready"; port; admin ] -> (
        match (int_of_string_opt port, int_of_string_opt admin) with
        | Some port, Some admin -> Some { pid; port; admin }
        | _ -> None)
    | _ -> None
  in
  match ready with
  | Some t -> t
  | None ->
      stop_pid pid;
      fail "server %s did not start" (String.concat " " args)

(* The child's half of the handshake. *)
let announce ~port ~admin =
  Printf.printf "ready %d %d\n%!" port admin

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

(* CPU seconds from /proc/<pid>/schedstat, which counts nanoseconds:
   clock ticks (10 ms) are as long as a whole swarm op's client CPU. *)
let sched_s pid =
  match read_file (Printf.sprintf "/proc/%d/schedstat" pid) with
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | ns :: _ -> Option.map (fun ns -> ns /. 1e9) (float_of_string_opt ns)
      | [] -> None)
  | None -> None

(* CPU seconds consumed so far; /proc/<pid>/stat is the fallback. *)
let cpu_s pid =
  match sched_s pid with
  | Some s -> s
  | None -> (
      match read_file (Printf.sprintf "/proc/%d/stat" pid) with
      | None -> 0.0
      | Some line -> (
          match String.rindex_opt line ')' with
          | None -> 0.0
          | Some i ->
              let fields =
                Array.of_list
                  (String.split_on_char ' '
                     (String.sub line (i + 2) (String.length line - i - 2)))
              in
              if Array.length fields < 13 then 0.0
              else
                (float_of_string fields.(11) +. float_of_string fields.(12))
                /. 100.0))

(* Peak resident set, MiB. *)
let hwm_mib pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.0
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' s)

(* This process's CPU seconds (user + system). *)
let self_cpu_s () =
  match sched_s (Unix.getpid ()) with
  | Some s -> s
  | None ->
      let t = Unix.times () in
      t.Unix.tms_utime +. t.Unix.tms_stime
