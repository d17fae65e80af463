(** Load generator for the [gdpd] wire protocol (PROTOCOL.md).

    One thread drives a small set of connections through [Unix.select].
    Every connection is lockstep — at most one frame in flight — like
    the library's blocking client, so the generator never relies on
    pipelining the server does not promise.

    {b Open loop.}  Requests are due on a fixed schedule, independent
    of replies.  A request is sent on the first idle connection once it
    is due; when every connection is busy it waits, and that wait is
    the generator running late.  Latency is taken from the {e due}
    time, so a stall is charged to every request scheduled behind it
    instead of vanishing from the samples (coordinated omission).

    {b Closed loop.}  Each connection sends its next Batch frame as
    soon as the previous reply arrives — the capacity measurement. *)

type conn

val connect : string -> conn
(** Connect to a listening Unix-domain socket. *)

val of_fd : Unix.file_descr -> conn
val close : conn -> unit

val recv : conn -> (string -> unit) -> unit
(** Block for one read, then pass the payload of every complete frame
    received so far to the callback (partial frames stay buffered).
    Raises [End_of_file] when the peer closed, [Codec.Corrupt] on a
    checksum failure. *)

val send : conn -> string -> unit
(** Write already framed bytes. *)

val poisson_due : Random.State.t -> rate:float -> seconds:float -> int array
(** Due times in nanoseconds from the phase start: exponential gaps at
    mean rate [rate] per second, until [seconds] have elapsed. *)

type open_result = {
  start_ns : int;  (** the phase start, on {!Clock.now_ns}'s scale *)
  due_ns : int array;  (** scheduled send, from the phase start *)
  sent_ns : int array;  (** actual send *)
  done_ns : int array;  (** reply fully read *)
  replies : string array;  (** reply payloads, in request order *)
}

val open_loop :
  ?poll:bool ->
  ?on_done:(int -> due:int -> sent:int -> fin:int -> unit) ->
  conn array ->
  due:int array ->
  payload:(int -> string) ->
  open_result
(** Send request [i] (the framed [payload i]) at [due.(i)] or as soon
    after as a connection is idle.  [on_done i ~due ~sent ~fin] runs as
    each reply arrives, with absolute {!Clock.now_ns} times.

    With [poll] (the default) the generator polls between events,
    yielding the CPU each time round, instead of sleeping: a sleeping
    thread on a virtual machine wakes tens of microseconds to
    milliseconds late, which would swamp microsecond latencies.  It
    keeps one CPU busy for the phase, so for millisecond-scale,
    CPU-bound services [~poll:false] sleeps until the next due time or
    reply instead.  Raises [Failure] if no reply arrives for 10 s. *)

val latency_ns : open_result -> int -> int
(** [done_ns.(i) - due_ns.(i)]: the request's latency from its
    scheduled send. *)

val late_ns : open_result -> int -> int
(** [sent_ns.(i) - due_ns.(i)]: how late the generator sent it. *)

val rtt_ns : open_result -> int -> int
(** [done_ns.(i) - sent_ns.(i)]: send to reply. *)

type closed_result = {
  requests : int;  (** requests whose reply arrived *)
  elapsed_ns : int;  (** first send to last reply *)
}

val closed_loop :
  conn array ->
  seconds:float ->
  batch:int ->
  payload:(int -> string) ->
  on_reply:(int -> string -> unit) ->
  closed_result
(** Lockstep Batch frames of [batch] requests each: frame [j] is
    [payload j]; [on_reply j reply] sees its reply payload.  No frame
    is sent after [seconds]; in-flight frames are drained. *)

val percentile : int array -> float -> int
(** Nearest-rank percentile of an already sorted array ([0] if empty). *)
