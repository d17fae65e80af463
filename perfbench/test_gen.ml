(* Self-test of the open-loop generator against a stub responder that
   stalls once.  The stub (a child process on two socket pairs) answers
   every Solve frame at once, except the [stall_at]-th, before which it
   sleeps [stall_ms]; it serves both connections from one loop, so the
   stall blocks both.  It reports the stall's start and end on a pipe.

   What must hold, by construction rather than by timing luck:
   - a request due inside the stall reaches the stub while it sleeps,
     so its reply cannot come before the stall ends: counted from its
     due time, its latency is at least [stall_end - due];
   - once both connections hold a request, later requests cannot be
     sent until the stall ends, so the generator runs late, and the
     requests due in the first half of the stall are more than 1% of
     all requests: the reported p99 lateness is at least half the
     stall. *)

open Perfbench_lib
module Codec = Gdpn_engine.Codec
module Protocol = Gdpn_server.Protocol

let stall_at = 300
let stall_ns = 60_000_000
let rate = 2000.
let seconds = 0.6

let stub fds report =
  let conns = Array.map Gen.of_fd fds in
  let reply = Codec.frame (Protocol.encode_response (Protocol.Outcome (Protocol.Plan [ 0; 1 ]))) in
  let seen = ref 0 in
  let live = ref (Array.to_list fds) in
  while !live <> [] do
    let readable, _, _ = Unix.select !live [] [] (-1.) in
    List.iter
      (fun fd ->
        let c = conns.(if fd = fds.(0) then 0 else 1) in
        match
          Gen.recv c (fun _ ->
              incr seen;
              if !seen = stall_at then begin
                let t0 = Clock.now_ns () in
                Unix.sleepf (float stall_ns *. 1e-9);
                let line = Printf.sprintf "%d %d\n" t0 (Clock.now_ns ()) in
                ignore (Unix.write_substring report line 0 (String.length line))
              end;
              Gen.send c reply)
        with
        | () -> ()
        | exception End_of_file -> live := List.filter (( <> ) fd) !live)
      readable
  done

let () =
  let pairs = Array.init 2 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Array.iter (fun (a, _) -> Unix.close a) pairs;
    Unix.close rd;
    stub (Array.map snd pairs) wr;
    Unix._exit 0
  | pid ->
    Array.iter (fun (_, b) -> Unix.close b) pairs;
    Unix.close wr;
    let conns = Array.map (fun (a, _) -> Gen.of_fd a) pairs in
    let due = Gen.poisson_due (Random.State.make [| 7 |]) ~rate ~seconds in
    let payload = Protocol.encode_request (Protocol.Solve { inst = 0; faults = [] }) in
    let r = Gen.open_loop conns ~due ~payload:(fun _ -> payload) in
    Array.iter Gen.close conns;
    ignore (Unix.waitpid [] pid);
    let ic = Unix.in_channel_of_descr rd in
    let stall_start, stall_end = Scanf.sscanf (input_line ic) "%d %d" (fun a b -> (a, b)) in
    let n = Array.length due in
    let fails = ref 0 in
    let charged = ref 0 in
    for i = 0 to n - 1 do
      let due_abs = r.Gen.start_ns + r.Gen.due_ns.(i) in
      if due_abs >= stall_start && due_abs < stall_end then begin
        incr charged;
        if Gen.latency_ns r i < stall_end - due_abs then begin
          incr fails;
          Printf.printf "request %d due %d us into the stall not charged for the rest of it\n" i
            ((due_abs - stall_start) / 1000)
        end
      end
    done;
    let late = Array.init n (Gen.late_ns r) in
    Array.sort compare late;
    let late_p99 = Gen.percentile late 99. in
    Printf.printf "%d requests, %d due during the %d ms stall, late p99 = %.1f ms\n" n !charged
      (stall_ns / 1_000_000) (float late_p99 *. 1e-6);
    if !charged < 50 then begin
      print_endline "too few requests fell inside the stall";
      incr fails
    end;
    if late_p99 < stall_ns / 2 then begin
      print_endline "the stall does not show in the generator's p99 lateness";
      incr fails
    end;
    if !fails > 0 then exit 1
