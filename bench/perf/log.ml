(* Progress lines on stderr (stdout carries the results); the smoke
   turns them off. *)

let quiet = ref false

let f fmt =
  Printf.ksprintf (fun s -> if not !quiet then prerr_endline ("fsync_perf: " ^ s)) fmt
