val dial : host:string -> port:int -> Fd_transport.t
val serve : Unix.file_descr option ref -> host:string -> port:int -> int
val next : Unix.file_descr -> Unix.file_descr option ref -> unit
val pair : unit -> Unix.file_descr * Unix.file_descr
