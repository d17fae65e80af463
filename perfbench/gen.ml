module Codec = Gdpn_engine.Codec

type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

let of_fd fd = { fd; buf = Bytes.create 65536; len = 0 }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> of_fd fd
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then begin
    let w = Unix.write_substring fd s off len in
    write_all fd s (off + w) (len - w)
  end

let send c framed = write_all c.fd framed 0 (String.length framed)

(* Read what the socket has and hand every complete frame's payload to
   [f]; a partial frame stays buffered.  A frame whose checksum fails
   raises [Codec.Corrupt]. *)
let recv c f =
  if c.len = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  let r = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if r = 0 then raise End_of_file;
  c.len <- c.len + r;
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    if c.len - !pos < 4 then continue := false
    else begin
      let plen = Int32.to_int (Bytes.get_int32_le c.buf !pos) land 0xffffffff in
      let total = plen + Codec.frame_overhead in
      if c.len - !pos < total then continue := false
      else begin
        (match Codec.read_frame (Bytes.sub_string c.buf !pos total) 0 with
        | Some (payload, _) -> f payload
        | None -> raise (Codec.Corrupt "reply frame checksum"));
        pos := !pos + total
      end
    end
  done;
  if !pos > 0 then begin
    Bytes.blit c.buf !pos c.buf 0 (c.len - !pos);
    c.len <- c.len - !pos
  end

let poisson_due rng ~rate ~seconds =
  let horizon = seconds *. 1e9 and mean_gap = 1e9 /. rate in
  let rec go t acc =
    let t = t -. (mean_gap *. log (1. -. Random.State.float rng 1.)) in
    if t >= horizon then Array.of_list (List.rev acc)
    else go t (int_of_float t :: acc)
  in
  go 0. []

type open_result = {
  start_ns : int;
  due_ns : int array;
  sent_ns : int array;
  done_ns : int array;
  replies : string array;
}

let latency_ns r i = r.done_ns.(i) - r.due_ns.(i)
let late_ns r i = r.sent_ns.(i) - r.due_ns.(i)
let rtt_ns r i = r.done_ns.(i) - r.sent_ns.(i)

let stall_limit_ns = 10_000_000_000

let open_loop ?(poll = true) ?(on_done = fun _ ~due:_ ~sent:_ ~fin:_ -> ()) conns ~due
    ~payload =
  let n = Array.length due in
  let nconn = Array.length conns in
  let sent = Array.make n 0 and fin = Array.make n 0 in
  let replies = Array.make n "" in
  let inflight = Array.make nconn (-1) in
  let frames = Array.init n (fun i -> Codec.frame (payload i)) in
  let t0 = Clock.now_ns () + 2_000_000 in
  let next = ref 0 and completed = ref 0 in
  let last_progress = ref (Clock.now_ns ()) in
  let idle () =
    let rec find c = if c = nconn then -1 else if inflight.(c) < 0 then c else find (c + 1) in
    find 0
  in
  while !completed < n do
    let now = Clock.now_ns () in
    let c = ref (idle ()) in
    while !c >= 0 && !next < n && t0 + due.(!next) <= now do
      let i = !next in
      inflight.(!c) <- i;
      sent.(i) <- Clock.now_ns () - t0;
      send conns.(!c) frames.(i);
      incr next;
      c := idle ()
    done;
    let busy = ref [] in
    Array.iteri (fun c i -> if i >= 0 then busy := conns.(c).fd :: !busy) inflight;
    let timeout =
      if !next >= n then 0.5
      else if poll then 0.
      else if !c >= 0 then Float.max 0. (float (t0 + due.(!next) - Clock.now_ns ()) *. 1e-9)
      else 0.5
    in
    let readable, _, _ =
      try Unix.select !busy [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if poll && readable = [] && !next < n then Clock.yield ();
    List.iter
      (fun fd ->
        Array.iteri
          (fun c conn ->
            if conn.fd = fd then
              recv conn (fun p ->
                  let i = inflight.(c) in
                  if i < 0 then failwith "reply without a request in flight";
                  fin.(i) <- Clock.now_ns () - t0;
                  replies.(i) <- p;
                  inflight.(c) <- -1;
                  incr completed;
                  on_done i ~due:(t0 + due.(i)) ~sent:(t0 + sent.(i)) ~fin:(t0 + fin.(i))))
          conns)
      readable;
    if readable <> [] then last_progress := Clock.now_ns ()
    else if !busy <> [] && Clock.now_ns () - !last_progress > stall_limit_ns then
      failwith "open loop: no reply for 10 s"
  done;
  { start_ns = t0; due_ns = due; sent_ns = sent; done_ns = fin; replies }

type closed_result = { requests : int; elapsed_ns : int }

let closed_loop conns ~seconds ~batch ~payload ~on_reply =
  let nconn = Array.length conns in
  let inflight = Array.make nconn (-1) in
  let start = Clock.now_ns () in
  let stop = start + int_of_float (seconds *. 1e9) in
  let next = ref 0 and requests = ref 0 and last = ref start in
  let launch c =
    if Clock.now_ns () < stop then begin
      inflight.(c) <- !next;
      send conns.(c) (Codec.frame (payload !next));
      incr next
    end
  in
  for c = 0 to nconn - 1 do
    launch c
  done;
  while Array.exists (fun i -> i >= 0) inflight do
    let busy = ref [] in
    Array.iteri (fun c i -> if i >= 0 then busy := conns.(c).fd :: !busy) inflight;
    let readable, _, _ =
      try Unix.select !busy [] [] 10.
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if readable = [] then failwith "closed loop: no reply for 10 s";
    List.iter
      (fun fd ->
        Array.iteri
          (fun c conn ->
            if conn.fd = fd then
              recv conn (fun p ->
                  let j = inflight.(c) in
                  last := Clock.now_ns ();
                  requests := !requests + batch;
                  inflight.(c) <- -1;
                  launch c;
                  on_reply j p))
          conns)
      readable
  done;
  { requests = !requests; elapsed_ns = !last - start }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))
