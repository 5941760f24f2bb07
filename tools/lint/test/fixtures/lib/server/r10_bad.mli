val dial : Unix.sockaddr -> Unix.file_descr
val serve : Unix.sockaddr -> Unix.file_descr option ref -> unit
val next : Unix.file_descr -> Unix.file_descr * Unix.sockaddr
val open_raw : Unix.sockaddr -> in_channel * out_channel
val connect_fn : Unix.file_descr -> Unix.sockaddr -> unit
