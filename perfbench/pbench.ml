(* pbench — the in-process half of the repository benchmark (run.py
   orchestrates it).  Subcommands, each printing one JSON object on stdout:

     load            drive a running gdpd: open-loop latency, closed-loop
                     capacity, then check every reply against a local
                     Engine.solve replay
     setup           time a verification's set-up (instance build and,
                     with --symmetry, the symmetry group) in-process
     layers-verify   one exhaustive verification in-process, with spans
                     around each layer's entry point and counter deltas
                     from Metrics.snapshot
     layers-serve    replay the serving layers in-process on a request
                     pool: canonicalisation, store lookup, L1 probe,
                     Engine.solve, protocol and framing

   Options are [--name value] pairs. *)

module Family = Gdpn_core.Family
module Instance = Gdpn_core.Instance
module Pipeline = Gdpn_core.Pipeline
module Verify = Gdpn_core.Verify
module Auto = Gdpn_graph.Auto
module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Engine = Gdpn_engine.Engine
module Codec = Gdpn_engine.Codec
module Plan_store = Gdpn_engine.Plan_store
module Shard_cache = Gdpn_engine.Shard_cache
module Metrics = Gdpn_obs.Metrics
module Protocol = Gdpn_server.Protocol
module Client = Gdpn_server.Client
module Server = Gdpn_server.Server
open Perfbench_lib

let opts = Hashtbl.create 16

let opt name = Hashtbl.find_opt opts name

let req name =
  match opt name with
  | Some v -> v
  | None -> failwith ("missing --" ^ name)

let flag name = opt name = Some "1"

(* ---------------------------------------------------------------- *)
(* Small helpers                                                     *)
(* ---------------------------------------------------------------- *)

let median_f a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean_f a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float (Array.length a)

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "}"

let jf x = Printf.sprintf "%.10g" x
let ji = string_of_int

let time_ns f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.now_ns () - t0)

(* Every fault set of size 0..k over the instance's nodes. *)
let all_sets inst =
  let acc = ref [] in
  Combinat.iter_subsets_up_to (Instance.order inst) inst.Instance.k
    (fun buf len -> acc := Array.sub buf 0 len :: !acc);
  Array.of_list (List.rev !acc)

(* The request pool: [pool_size] fault sets drawn uniformly, with
   replacement, from every fault set of size <= k.  The RNG continues
   into the arrival schedule, so one seed fixes both.  Batch sizes must
   divide it, so Batch frames tile the pool. *)
let pool_size = 2048

(* Connections per daemon: at most one per CPU of the 2-CPU host the
   benchmark was defined on. *)
let nconn = 2

let make_pool rng inst =
  let sets = all_sets inst in
  Array.init pool_size (fun _ -> sets.(Random.State.int rng (Array.length sets)))

let mask_of inst set =
  let m = Bitset.create (Instance.order inst) in
  Array.iter (Bitset.add m) set;
  m

let snapshot_delta before after name =
  Metrics.counter_in after name - Metrics.counter_in before name

let hist_sum snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram h) -> h.Metrics.hsum
  | _ -> 0

(* ---------------------------------------------------------------- *)
(* load                                                              *)
(* ---------------------------------------------------------------- *)

(* Per-request latency summary of one open-loop segment, in µs. *)
let open_summary (r : Gen.open_result) =
  let n = Array.length r.Gen.due_ns in
  let sorted f =
    let a = Array.init n f in
    Array.sort compare a;
    a
  in
  let lat = sorted (Gen.latency_ns r) in
  let late = sorted (Gen.late_ns r) in
  let rtt = sorted (Gen.rtt_ns r) in
  let us a p = float (Gen.percentile a p) /. 1e3 in
  [
    ("samples", float n);
    ("p50_us", us lat 50.);
    ("p90_us", us lat 90.);
    ("p99_us", us lat 99.);
    ("late_p50_us", us late 50.);
    ("late_p99_us", us late 99.);
    ("rtt_p50_us", us rtt 50.);
    ("rtt_p99_us", us rtt 99.);
  ]

(* Daemons are summarised one by one and combined by the median of
   each statistic (samples are summed): where the machine places a
   daemon's threads shifts its whole latency distribution, so a single
   daemon would report its placement rather than the code. *)
let combine summaries =
  match summaries with
  | [] -> "{}"
  | first :: _ ->
    json_obj
      (List.map
         (fun (name, _) ->
           let xs = Array.of_list (List.map (List.assoc name) summaries) in
           let v =
             if name = "samples" then Array.fold_left ( +. ) 0. xs else median_f xs
           in
           (name, jf v))
         first)

(* Reply verdicts.  A reply passes when it equals the oracle's outcome,
   or when both are plans and the served one is a valid pipeline for
   the fault set: a daemon may legitimately serve a different valid
   plan than a sequential replay when its cache was filled in another
   order (warm-up order, two workers racing to insert). *)
type verdicts = {
  mutable attempted : int;
  mutable failed : int;
  mutable exact : int;
  mutable first_error : string;
}

let load () =
  let sockets = String.split_on_char ',' (req "socket") in
  let n = int_of_string (req "n") and k = int_of_string (req "k") in
  let seed = int_of_string (req "seed") in
  let rate = float_of_string (req "rate") in
  let open_s = float_of_string (req "open-s") in
  let closed_s = float_of_string (req "closed-s") in
  let batch = int_of_string (req "batch") in
  let traced = flag "trace" in
  let poll = flag "poll" in
  let inst = Family.build ~n ~k in
  let order = Instance.order inst in
  let rng = Random.State.make [| seed |] in
  let pool = make_pool rng inst in
  let pool_lists = Array.map Array.to_list pool in
  (* Requests draw pool entries at random, so every phase sees the
     pool's whole working set: single requests one entry each, Batch
     frames one of the pool's [batches] tiles each. *)
  let batches = pool_size / batch in
  let tile_seq = Array.init 65536 (fun _ -> Random.State.int rng batches) in
  let tile j = tile_seq.(j land 65535) in
  let batch_payload j =
    Protocol.encode_request
      (Protocol.Batch
         { inst = 0; masks = Array.to_list (Array.sub pool_lists (tile j * batch) batch) })
  in
  (* Replies are kept for the check after the window.  Closed-loop ones
     are kept once per distinct (tile, bytes) with a count:
     identical bytes get identical verdicts, and the capacity phase
     answers far more requests than memory should hold. *)
  let kept = Hashtbl.create 256 in
  let keep_batch j p =
    let key = (tile j, p) in
    match Hashtbl.find_opt kept key with
    | Some c -> incr c
    | None -> Hashtbl.add kept key (ref 1)
  in
  let open_kept = ref [] in
  (* One open-loop segment on fresh connections. *)
  let segment ~seconds ~trace conns =
    let due = Gen.poisson_due rng ~rate ~seconds in
    let entry = Array.map (fun _ -> Random.State.int rng pool_size) due in
    (* Traced: one root span per request, children for the generator's
       wait and the wire round trip, recorded as each reply arrives. *)
    let on_done _ ~due ~sent ~fin =
      let id = Spans.record ~name:"request" ~parent:(-1) ~start_ns:due ~end_ns:fin in
      ignore (Spans.record ~name:"gen.wait" ~parent:id ~start_ns:due ~end_ns:sent);
      ignore (Spans.record ~name:"wire" ~parent:id ~start_ns:sent ~end_ns:fin)
    in
    Spans.set_enabled trace;
    let r =
      Gen.open_loop ~poll ~on_done conns ~due ~payload:(fun i ->
          Protocol.encode_request
            (Protocol.Solve { inst = 0; faults = pool_lists.(entry.(i)) }))
    in
    Spans.set_enabled false;
    open_kept := (entry, r) :: !open_kept;
    open_summary r
  in
  (* Each daemon in turn: warm-up, open loop (in a traced run: an
     untraced half, then a traced half), closed loop.  A worker serves
     one connection until it closes, so the Hello and Metrics exchanges
     go over a control connection of their own, opened while the
     generator's connections are closed. *)
  let control socket f =
    let client = Client.connect (Server.Unix_sock socket) in
    Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)
  in
  let per_daemon =
    List.map
      (fun socket ->
        (match control socket Client.hello with
        | [ i ] when i.Protocol.i_n = n && i.Protocol.i_k = k && i.Protocol.i_order = order -> ()
        | _ -> failwith "daemon does not serve exactly the expected instance");
        let with_conns f =
          let conns = Array.init nconn (fun _ -> Gen.connect socket) in
          Fun.protect ~finally:(fun () -> Array.iter Gen.close conns) (fun () -> f conns)
        in
        (* Warm-up: let the L1 reach its steady state before timing. *)
        with_conns (fun conns ->
            ignore
              (Gen.closed_loop conns ~seconds:0.2 ~batch ~payload:batch_payload
                 ~on_reply:keep_batch));
        let before = control socket Client.metrics in
        let plain, with_spans =
          if traced then
            let a = with_conns (segment ~seconds:(open_s /. 2.) ~trace:false) in
            (a, Some (with_conns (segment ~seconds:(open_s /. 2.) ~trace:true)))
          else (with_conns (segment ~seconds:open_s ~trace:false), None)
        in
        let closed =
          with_conns (fun conns ->
              Gen.closed_loop conns ~seconds:closed_s ~batch ~payload:batch_payload
                ~on_reply:keep_batch)
        in
        let after = control socket Client.metrics in
        (plain, with_spans, closed, before, after))
      sockets
  in
  (* Check every kept reply against the oracle. *)
  let oracle =
    Engine.create ?cache_limit:(Option.map int_of_string (opt "cache-limit")) inst
  in
  (match opt "store" with
  | None -> ()
  | Some path -> (
    match Engine.attach_store oracle ~path with
    | Ok () -> ()
    | Error e -> failwith ("oracle store: " ^ e)));
  let memo = Hashtbl.create 4096 in
  let want i =
    let set = pool.(i) in
    match Hashtbl.find_opt memo set with
    | Some o -> o
    | None ->
      let o =
        Protocol.outcome_of_reconfig
          (Engine.solve_list oracle ~faults:(Array.to_list set))
      in
      Hashtbl.add memo set o;
      o
  in
  let v = { attempted = 0; failed = 0; exact = 0; first_error = "" } in
  let judge ~count i got =
    v.attempted <- v.attempted + count;
    let w = want i in
    let ok, exact =
      if Protocol.equal_outcome got w then (true, true)
      else
        match (got, w) with
        | Protocol.Plan nodes, Protocol.Plan _ ->
          ( Pipeline.is_valid inst ~faults:(mask_of inst pool.(i)) nodes,
            false )
        | _ -> (false, false)
    in
    if exact then v.exact <- v.exact + count;
    if not ok then begin
      v.failed <- v.failed + count;
      if v.first_error = "" then
        v.first_error <-
          Format.asprintf "request for [%s]: got %a, want %a"
            (String.concat "," (List.map string_of_int pool_lists.(i)))
            Protocol.pp_outcome got Protocol.pp_outcome w
    end
  in
  let reject ~count what =
    v.attempted <- v.attempted + count;
    v.failed <- v.failed + count;
    if v.first_error = "" then v.first_error <- what
  in
  Spans.set_enabled traced;
  Spans.around ~name:"check" ~parent:(-1) (fun _ ->
      List.iter
        (fun (entry, (r : Gen.open_result)) ->
          Array.iteri
            (fun i p ->
              match Protocol.decode_response p with
              | Protocol.Outcome o -> judge ~count:1 entry.(i) o
              | _ -> reject ~count:1 "solve answered with another message"
              | exception e -> reject ~count:1 (Printexc.to_string e))
            r.Gen.replies)
        !open_kept;
      Hashtbl.iter
        (fun (t, p) count ->
          match Protocol.decode_response p with
          | Protocol.Outcomes os when List.length os = batch ->
            List.iteri (fun m o -> judge ~count:!count ((t * batch) + m) o) os
          | _ -> reject ~count:(!count * batch) "batch answered with another message"
          | exception e -> reject ~count:(!count * batch) (Printexc.to_string e))
        kept);
  Spans.set_enabled false;
  (match opt "spans-out" with Some path when traced -> Spans.write path | _ -> ());
  let rps =
    List.map
      (fun (_, _, c, _, _) ->
        float c.Gen.requests *. 1e9 /. float (max 1 c.Gen.elapsed_ns))
      per_daemon
  in
  print_endline
    (json_obj
       [
         ("daemons", ji (List.length per_daemon));
         ("open", combine (List.map (fun (p, _, _, _, _) -> p) per_daemon));
         ("open_traced", combine (List.filter_map (fun (_, t, _, _, _) -> t) per_daemon));
         ( "daemon_p50_us",
           "["
           ^ String.concat ", "
               (List.map (fun (p, _, _, _, _) -> jf (List.assoc "p50_us" p)) per_daemon)
           ^ "]" );
         ( "closed",
           json_obj
             [
               ( "requests",
                 ji (List.fold_left (fun a (_, _, c, _, _) -> a + c.Gen.requests) 0 per_daemon) );
               ("rps", jf (median_f (Array.of_list rps)));
               ("batch", ji batch);
             ] );
         ( "check",
           json_obj
             [
               ("attempted", ji v.attempted);
               ("failed", ji v.failed);
               ("exact", ji v.exact);
               ("distinct_sets", ji (Hashtbl.length memo));
               ("first_error", "\"" ^ Metrics.json_escape v.first_error ^ "\"");
             ] );
         ("spans", ji (Spans.count ()));
         ( "metrics",
           "["
           ^ String.concat ", "
               (List.map
                  (fun (_, _, _, b, a) -> json_obj [ ("before", b); ("after", a) ])
                  per_daemon)
           ^ "]" );
       ])

(* ---------------------------------------------------------------- *)
(* setup                                                             *)
(* ---------------------------------------------------------------- *)

(* What [gdp verify] does before it enumerates: build the instance and,
   with --symmetry, compute its symmetry group.  Repeated for the
   window; the median is reported. *)
let setup () =
  let n = int_of_string (req "n") and k = int_of_string (req "k") in
  let symmetry = flag "symmetry" in
  let seconds = float_of_string (req "seconds") in
  let once () =
    snd
      (time_ns (fun () ->
           let inst = Family.build ~n ~k in
           if symmetry then ignore (Sys.opaque_identity (Instance.symmetry inst))))
  in
  let start = Clock.now_ns () in
  let times = ref [] and reps = ref 0 in
  while !reps < 15 || float (Clock.now_ns () - start) *. 1e-9 < seconds do
    times := float (once ()) *. 1e-9 :: !times;
    incr reps
  done;
  print_endline
    (json_obj [ ("reps", ji !reps); ("setup_s", jf (median_f (Array.of_list !times))) ])

(* ---------------------------------------------------------------- *)
(* layers-verify                                                     *)
(* ---------------------------------------------------------------- *)

let layers_verify () =
  let n = int_of_string (req "n") and k = int_of_string (req "k") in
  let symmetry = flag "symmetry" in
  let domains = int_of_string (req "domains") in
  let seconds = float_of_string (req "seconds") in
  let want_sets = int_of_string (req "expect-sets") in
  let want_calls = int_of_string (req "expect-solver-calls") in
  let module P = Engine.Parallel in
  (* One verification, traced or not.  The traced form wraps each layer
     call in a span and reads the metrics registry around run_task. *)
  let run_once ~trace =
    Spans.set_enabled trace;
    let out = ref [] in
    let wall =
      snd
        (time_ns (fun () ->
             Spans.around ~name:"verify" ~parent:(-1) (fun root ->
                 let inst, build_ns =
                   time_ns (fun () ->
                       Spans.around ~name:"instance.build" ~parent:root (fun _ ->
                           Family.build ~n ~k))
                 in
                 let group, group_ns =
                   time_ns (fun () ->
                       if symmetry then
                         Some
                           (Spans.around ~name:"auto.group" ~parent:root (fun _ ->
                                Instance.symmetry inst))
                       else None)
                 in
                 let task, task_ns =
                   time_ns (fun () ->
                       Spans.around ~name:"parallel.task" ~parent:root (fun _ ->
                           P.Task.exhaustive ?symmetry:group inst))
                 in
                 let snap0 = if trace then Metrics.snapshot () else [] in
                 let gc0 = Gc.quick_stat () in
                 let report, run_ns =
                   time_ns (fun () ->
                       Spans.around ~name:"parallel.run_task" ~parent:root (fun _ ->
                           P.run_task ~domains task))
                 in
                 let gc1 = Gc.quick_stat () in
                 let snap1 = if trace then Metrics.snapshot () else [] in
                 if report.Verify.fault_sets_checked <> want_sets
                    || report.Verify.solver_calls <> want_calls
                    || report.Verify.failures <> [] || report.Verify.gave_up <> 0
                 then
                   failwith
                     (Format.asprintf "wrong verification report: %a"
                        Verify.pp_report report);
                 let d = snapshot_delta snap0 snap1 in
                 let ms ns = float ns *. 1e-6 in
                 let busy_ns =
                   hist_sum snap1 "engine.parallel_shard_ns"
                   - hist_sum snap0 "engine.parallel_shard_ns"
                 in
                 let splices = d "verify.splices" and fails = d "verify.splice_failures" in
                 out :=
                   [
                     ("instance.build_ms", ms build_ns);
                     ("auto.group_ms", ms group_ns);
                     ("auto.orbit_enum_ms", ms task_ns);
                     ("auto.orbit_reps", float (if symmetry then report.Verify.solver_calls else 0));
                     ("hamilton.searches", float (d "hamilton.searches"));
                     ("hamilton.expansions", float (d "hamilton.expansions"));
                     ("hamilton.backtracks", float (d "hamilton.backtracks"));
                     ( "hamilton.busy_ms",
                       ms (hist_sum snap1 "hamilton.search_ns" - hist_sum snap0 "hamilton.search_ns") );
                     ("verify.solver_calls", float (d "verify.solver_calls"));
                     ("verify.splices", float splices);
                     ("verify.splice_failures", float fails);
                     ( "verify.splice_ratio",
                       if splices + fails = 0 then 0. else float splices /. float (splices + fails) );
                     ("engine.run_task_ms", ms run_ns);
                     ("engine.parallel_steals", float (d "engine.parallel_steals"));
                     ("engine.domain_busy_ms", ms busy_ns);
                     ( "engine.domain_idle_pct",
                       100. *. (1. -. (float busy_ns /. float (max 1 (run_ns * domains)))) );
                     ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
                     ( "gc.major_collections",
                       float (gc1.Gc.major_collections - gc0.Gc.major_collections) );
                     ("engine.cache_hits", float (d "engine.cache_hits"));
                     ("engine.cache_misses", float (d "engine.cache_misses"));
                     ("engine.cache_evictions", float (d "engine.cache_evictions"));
                     ("engine.store_hits", float (d "engine.store_hits"));
                     ("engine.store_misses", float (d "engine.store_misses"));
                     ("engine.store_transports", float (d "engine.store_transports"));
                     ("engine.full_solves", float (d "engine.full_solves"));
                   ])))
    in
    Spans.set_enabled false;
    (float wall *. 1e-6, !out)
  in
  (* Untraced and traced runs alternate, in alternating order, for the
     window; the first round warms the domain pool and is discarded.
     The per-layer figures all come from one run, the traced run of
     median wall time, so that its parts can be added up. *)
  let start = Clock.now_ns () in
  let plain = ref [] and traced = ref [] in
  let rounds = ref 0 in
  while !rounds < 3 || float (Clock.now_ns () - start) *. 1e-9 < seconds do
    let a, b =
      if !rounds mod 2 = 0 then
        let a = run_once ~trace:false in
        (a, run_once ~trace:true)
      else
        let b = run_once ~trace:true in
        (run_once ~trace:false, b)
    in
    if !rounds > 0 then begin
      plain := fst a :: !plain;
      traced := b :: !traced
    end;
    incr rounds
  done;
  let by_wall = Array.of_list !traced in
  Array.sort (fun (x, _) (y, _) -> compare x y) by_wall;
  let wall, m = by_wall.(Array.length by_wall / 2) in
  (match opt "spans-out" with Some path -> Spans.write path | None -> ());
  print_endline
    (json_obj
       ([
          ("runs", ji (List.length !traced));
          ("untraced_wall_ms", jf (median_f (Array.of_list !plain)));
          ("traced_wall_ms", jf (median_f (Array.map fst by_wall)));
          ("run_wall_ms", jf wall);
        ]
       @ List.map (fun (name, x) -> (name, jf x)) m))

(* ---------------------------------------------------------------- *)
(* layers-serve                                                      *)
(* ---------------------------------------------------------------- *)

(* Per-call results and timings (ns) of [f] over [xs], each call inside
   its own span. *)
let per_call ~name ~parent xs f =
  let times = Array.make (Array.length xs) 0. in
  let results =
    Array.mapi
      (fun i x ->
        let t0 = Clock.now_ns () in
        let r = Spans.around ~name ~parent (fun _ -> f x) in
        times.(i) <- float (Clock.now_ns () - t0);
        r)
      xs
  in
  (results, times)

(* Mean time of a nanosecond-scale [f] over [xs]: whole passes are
   timed, since a clock read costs as much as the call. *)
let per_pass ~name ~parent ~passes xs f =
  Spans.around ~name ~parent (fun _ ->
      let t0 = Clock.now_ns () in
      for _ = 1 to passes do
        Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs
      done;
      float (Clock.now_ns () - t0) /. float (passes * Array.length xs))

let layers_serve () =
  let n = int_of_string (req "n") and k = int_of_string (req "k") in
  let seed = int_of_string (req "seed") in
  let store = opt "store" in
  let cache_limit = Option.map int_of_string (opt "cache-limit") in
  let warm = int_of_string (req "warm") in
  Spans.set_enabled true;
  let inst = Family.build ~n ~k in
  let pool = make_pool (Random.State.make [| seed |]) inst in
  (* Microsecond-scale layers are replayed on the first [sample]
     requests only: on G(1,5) one canonicalisation costs milliseconds. *)
  let sample = Array.sub pool 0 512 in
  let out = ref [] in
  let put name x = out := (name, x) :: !out in
  Spans.around ~name:"layers" ~parent:(-1) (fun root ->
      (* graph.Auto and engine.Plan_store: only an orbit store runs them. *)
      (match store with
      | None -> ()
      | Some path ->
        let g, ns =
          time_ns (fun () ->
              Spans.around ~name:"auto.group" ~parent:root (fun _ -> Instance.symmetry inst))
        in
        put "auto.group_ms" (float ns *. 1e-6);
        let canon, canon_ns =
          per_call ~name:"auto.canonical" ~parent:root sample (Auto.canonical_with_transport g)
        in
        put "auto.canonical_us" (mean_f canon_ns *. 1e-3);
        let st =
          match Plan_store.open_path ~path with Ok s -> s | Error e -> failwith e
        in
        let found, look_ns =
          per_call ~name:"plan_store.lookup" ~parent:root (Array.map fst canon)
            (Plan_store.lookup st)
        in
        if Array.exists Option.is_none found then failwith "store misses a pool set";
        put "plan_store.lookup_us" (mean_f look_ns *. 1e-3);
        Plan_store.close st);
      (* engine.Shard_cache: a replayed hit on a cache holding the pool. *)
      let masks = Array.map (mask_of inst) pool in
      let cache = Shard_cache.create ~capacity:(2 * pool_size) () in
      Array.iter (fun m -> Shard_cache.add cache m ()) masks;
      put "shard_cache.find_ns"
        (per_pass ~name:"shard_cache.find" ~parent:root ~passes:20 masks
           (Shard_cache.find_opt cache));
      (* engine.Engine: the daemon's configuration, replayed in order. *)
      let engine = Engine.create ?cache_limit inst in
      (match store with
      | Some path -> (
        match Engine.attach_store engine ~path with
        | Ok () -> ()
        | Error e -> failwith e)
      | None -> ());
      Combinat.iter_subsets_up_to (Instance.order inst) (min warm k) (fun buf len ->
          ignore (Engine.solve engine ~faults:(mask_of inst (Array.sub buf 0 len))));
      let outcomes, solve_ns =
        per_call ~name:"engine.solve" ~parent:root
          (Array.map (mask_of inst) sample)
          (fun m -> Engine.solve engine ~faults:m)
      in
      put "engine.solve_us" (mean_f solve_ns *. 1e-3);
      put "engine.solve_p50_us" (median_f solve_ns *. 1e-3);
      (* The same requests re-solved by an engine without the store: the
         comparison behind the L2 tier's worth on this instance. *)
      if store <> None then begin
        let plain = Engine.create ?cache_limit inst in
        let _, ns =
          per_call ~name:"engine.solve_nostore" ~parent:root
            (Array.map (mask_of inst) sample)
            (fun m -> Engine.solve plain ~faults:m)
        in
        put "engine.solve_nostore_us" (mean_f ns *. 1e-3)
      end;
      (* server.Protocol and engine.Codec, as the daemon meets them per
         Solve request: unframe and decode the request, encode and
         frame the reply. *)
      let req_frames =
        Array.map
          (fun s ->
            Codec.frame
              (Protocol.encode_request
                 (Protocol.Solve { inst = 0; faults = Array.to_list s })))
          sample
      in
      let req_payloads = Array.map (fun f -> fst (Option.get (Codec.read_frame f 0))) req_frames in
      let responses =
        Array.map (fun o -> Protocol.Outcome (Protocol.outcome_of_reconfig o)) outcomes
      in
      let resp_payloads = Array.map Protocol.encode_response responses in
      let pass name xs f = per_pass ~name ~parent:root ~passes:20 xs f in
      let decode = pass "protocol.decode" req_payloads Protocol.decode_request in
      let encode = pass "protocol.encode" responses Protocol.encode_response in
      let unframe = pass "codec.unframe" req_frames (fun f -> Codec.read_frame f 0) in
      let frame = pass "codec.frame" resp_payloads Codec.frame in
      put "protocol.decode_ns" decode;
      put "protocol.encode_ns" encode;
      put "codec.frame_ns" (unframe +. frame));
  Spans.set_enabled false;
  (match opt "spans-out" with Some path -> Spans.write path | None -> ());
  print_endline (json_obj (List.rev_map (fun (name, x) -> (name, jf x)) !out))

let () =
  let argv = Sys.argv in
  let rec parse i =
    if i + 1 < Array.length argv then begin
      let key = argv.(i) in
      if String.length key < 3 || String.sub key 0 2 <> "--" then
        failwith ("bad option " ^ key);
      Hashtbl.replace opts (String.sub key 2 (String.length key - 2)) argv.(i + 1);
      parse (i + 2)
    end
    else if i < Array.length argv then failwith ("option without value " ^ argv.(i))
  in
  if Array.length argv < 2 then begin
    prerr_endline "usage: pbench (load|setup|layers-verify|layers-serve) [--opt value]...";
    exit 2
  end;
  parse 2;
  match argv.(1) with
  | "load" -> load ()
  | "setup" -> setup ()
  | "layers-verify" -> layers_verify ()
  | "layers-serve" -> layers_serve ()
  | cmd ->
    prerr_endline ("pbench: unknown subcommand " ^ cmd);
    exit 2
