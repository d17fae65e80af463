(** In-memory span recorder for the traced benchmark run.

    A span is a name, a start and an end (monotonic nanoseconds) and the
    id of the span that caused it ([-1] for a root).  Spans live in
    growable arrays until {!write} dumps them as JSON lines, so
    recording costs a few array stores and no I/O. *)

val set_enabled : bool -> unit
(** Turn recording on or off (off by default: {!record} is then a
    no-op that returns [-1]).  Recorded spans are kept either way. *)

val record : name:string -> parent:int -> start_ns:int -> end_ns:int -> int
(** Store one finished span and return its id.  [name] should be a
    literal: names are kept by reference, not copied. *)

val around : name:string -> parent:int -> (int -> 'a) -> 'a
(** [around ~name ~parent f] runs [f id] inside a span whose id is
    [id], so [f] can parent child spans on it; the span is closed when
    [f] returns or raises. *)

val count : unit -> int

val write : string -> unit
(** Write every span as one JSON object per line
    ([{"id":..,"parent":..,"name":..,"start_ns":..,"end_ns":..}]). *)
