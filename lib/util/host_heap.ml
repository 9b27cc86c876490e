external retain : unit -> bool = "warden_host_heap_retain" [@@noalloc]
