val payload : bytes
val serve_once : Unix.file_descr -> unit
val probe : string -> int
val maybe_close : bool -> string -> unit
val ping : host:string -> port:int -> unit
