external now_ns : unit -> int = "pb_now_ns" [@@noalloc]
external yield : unit -> unit = "pb_yield" [@@noalloc]
