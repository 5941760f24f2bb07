(* An in-memory filesystem behind [Fsync_store.Io]: the shadow replays
   keep a chunk store whose residency answers exactly as the daemon's
   on-disk one does, without paying (or timing) its fsyncs. *)

module Io = Fsync_store.Io

let create () =
  let files : (string, Buffer.t) Hashtbl.t = Hashtbl.create 1024 in
  let dirs : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let enoent op path = raise (Unix.Unix_error (Unix.ENOENT, op, path)) in
  let find op path =
    match Hashtbl.find_opt files path with Some b -> b | None -> enoent op path
  in
  let open_out ~append path =
    let buf =
      match Hashtbl.find_opt files path with
      | Some b when append -> b
      | _ ->
          let b = Buffer.create 256 in
          Hashtbl.replace files path b;
          b
    in
    {
      Io.h_write = Buffer.add_string buf;
      h_fsync = (fun () -> ());
      h_close = (fun () -> ());
    }
  in
  let rename ~src ~dst =
    let b = find "rename" src in
    Hashtbl.remove files src;
    Hashtbl.replace files dst b
  in
  let unlink path =
    ignore (find "unlink" path);
    Hashtbl.remove files path
  in
  let readdir dir =
    let prefix = dir ^ "/" in
    let names = Hashtbl.create 16 in
    let add path =
      if String.starts_with ~prefix path then
        let rest = String.sub path (String.length prefix) (String.length path - String.length prefix) in
        match String.index_opt rest '/' with
        | Some i -> Hashtbl.replace names (String.sub rest 0 i) ()
        | None -> Hashtbl.replace names rest ()
    in
    Hashtbl.iter (fun p _ -> add p) files;
    Hashtbl.iter (fun p () -> add p) dirs;
    Array.of_seq (Hashtbl.to_seq_keys names)
  in
  {
    Io.open_out;
    rename;
    unlink;
    mkdir = (fun d -> Hashtbl.replace dirs d ());
    rmdir = (fun d -> Hashtbl.remove dirs d);
    read_file = (fun path -> Buffer.contents (find "read" path));
    exists = (fun path -> Hashtbl.mem files path || Hashtbl.mem dirs path);
    is_dir = (fun path -> Hashtbl.mem dirs path);
    readdir;
  }
