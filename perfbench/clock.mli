(** Monotonic clock for the benchmark (the library's [Mclock] reads
    [gettimeofday], whose microsecond grain is too coarse for per-call
    timings of nanosecond-scale operations). *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in integer nanoseconds. *)


val yield : unit -> unit
(** [sched_yield]: let another runnable thread have this CPU. *)
