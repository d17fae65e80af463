(* Tests for the fault-model layer.

   The node model — the default of every verifier entry point — must
   reproduce the reports of the old node-only verifier *byte-identically*
   (same verdicts, same failure lists in the same order, same counts) on
   every path: sequential DFS, orbit-reduced, splice on/off, sampled,
   work-stealing shards.  Those reports were frozen in
   golden/verify_reports.txt before the node-only code was deleted.  On
   top of that, frozen mixed node+link exhaustive results pin the other
   universes' semantics, and the satellite layers (certificates, link
   wrapper, machine, injector, attack) are checked against the model. *)

open Gdpn_core
module Engine = Gdpn_engine.Engine
module Bitset = Gdpn_graph.Bitset
module Faultsim = Gdpn_faultsim

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let to_alcotest = List.map QCheck_alcotest.to_alcotest

let report_testable : Verify.report Alcotest.testable =
  Alcotest.testable Verify.pp_report ( = )

(* An instance whose declared tolerance overstates the real one, so
   verification produces genuine failures (and exercises early stop). *)
let overclaimed inst =
  Instance.make ~graph:inst.Instance.graph ~kind:inst.Instance.kind
    ~n:inst.Instance.n
    ~k:(inst.Instance.k + 2)
    ~name:(inst.Instance.name ^ "+2") ~strategy:Instance.Generic

let frozen_instances () =
  [
    Small_n.g1 ~k:1;
    Small_n.g1 ~k:3;
    Small_n.g3 ~k:2;
    Special.g62 ();
    overclaimed (Small_n.g1 ~k:1);
    overclaimed (Small_n.g2 ~k:2);
  ]

(* ------------------------------------------------------------------ *)
(* Node-model goldens                                                  *)
(* ------------------------------------------------------------------ *)

(* Each report below is checked against golden/verify_reports.txt, which
   was frozen from the node-only verifier.  Every check runs twice: once
   through the default (node) model and once with the node model passed
   explicitly, so both spellings stay pinned to the frozen reports. *)

let golden = Testutil.check_golden_report
let name inst = inst.Instance.name

let node_oracle_tests =
  [
    tc "node model equals legacy verifier on frozen families" (fun () ->
        List.iter
          (fun inst ->
            let model = Fault_model.node inst in
            List.iter
              (fun splice ->
                let key = "plain " ^ name inst in
                golden key (Verify.exhaustive ~splice inst);
                golden key (Verify.exhaustive ~splice ~model inst))
              [ true; false ])
          (frozen_instances ()));
    tc "node model equals legacy under orbit reduction" (fun () ->
        List.iter
          (fun inst ->
            let model = Fault_model.node inst in
            let symmetry = Instance.symmetry inst in
            List.iter
              (fun splice ->
                let key = "orbit " ^ name inst in
                golden key (Verify.exhaustive ~symmetry ~splice inst);
                golden key (Verify.exhaustive ~symmetry ~splice ~model inst))
              [ true; false ])
          (frozen_instances ()));
    tc "node model equals legacy under early stop" (fun () ->
        List.iter
          (fun inst ->
            let model = Fault_model.node inst in
            List.iter
              (fun max_failures ->
                let key = Printf.sprintf "cap=%d %s" max_failures (name inst) in
                golden key (Verify.exhaustive ~max_failures inst);
                golden key (Verify.exhaustive ~max_failures ~model inst))
              [ 1; 2; 5 ])
          (frozen_instances ()));
    tc "node model equals legacy on a restricted universe" (fun () ->
        List.iter
          (fun inst ->
            let model = Fault_model.node inst in
            let universe = Instance.processors inst in
            let key = "universe " ^ name inst in
            golden key (Verify.exhaustive ~universe inst);
            golden key (Verify.exhaustive ~universe ~model inst))
          (frozen_instances ()));
    tc "node model equals legacy on the sampled path" (fun () ->
        List.iter
          (fun inst ->
            let model = Fault_model.node inst in
            let rng () = Random.State.make [| 7 |] in
            let key = "sampled seed=7 " ^ name inst in
            golden key (Verify.sampled ~rng:(rng ()) ~trials:200 inst);
            golden key (Verify.sampled ~rng:(rng ()) ~trials:200 ~model inst))
          (frozen_instances ()));
    tc "node model equals legacy under forced sharding" (fun () ->
        List.iter
          (fun inst ->
            let model = Fault_model.node inst in
            List.iter
              (fun (splice, domains) ->
                let key = "plain " ^ name inst in
                golden key
                  (Engine.Parallel.verify_exhaustive ~domains
                     ~min_items_per_domain:0 ~splice inst);
                golden key
                  (Engine.Parallel.verify_exhaustive ~domains
                     ~min_items_per_domain:0 ~splice ~model inst))
              [ (true, 1); (true, 2); (true, 4); (false, 1); (false, 2);
                (false, 4) ])
          (frozen_instances ()));
    tc "node model equals legacy under orbit-reduced sharding" (fun () ->
        List.iter
          (fun inst ->
            let model = Fault_model.node inst in
            let symmetry = Instance.symmetry inst in
            List.iter
              (fun domains ->
                let key = "orbit " ^ name inst in
                golden key
                  (Engine.Parallel.verify_exhaustive ~domains
                     ~min_items_per_domain:0 ~symmetry inst);
                golden key
                  (Engine.Parallel.verify_exhaustive ~domains
                     ~min_items_per_domain:0 ~symmetry ~model inst))
              [ 1; 2; 4 ])
          (frozen_instances ()));
    tc "node model equals legacy on the parallel sampled path" (fun () ->
        List.iter
          (fun inst ->
            let model = Fault_model.node inst in
            let key = "psampled seed=11 " ^ name inst in
            golden key
              (Engine.Parallel.verify_sampled ~seed:11 ~trials:300 ~domains:3
                 ~min_items_per_domain:0 inst);
            golden key
              (Engine.Parallel.verify_sampled ~seed:11 ~trials:300 ~domains:3
                 ~min_items_per_domain:0 ~model inst))
          (frozen_instances ()));
    tc "engine solve with the node model is the legacy solve" (fun () ->
        (* 50 random fault sets through a fresh engine's cached path
           (cache hits and splices included), rendered in order. *)
        let inst = Small_n.g1 ~k:3 in
        let order = Instance.order inst in
        let run solve =
          let rng = Random.State.make [| 3 |] in
          String.concat " "
            (List.init 50 (fun _ ->
                 let faults = Bitset.create order in
                 for _ = 1 to Random.State.int rng 4 do
                   Bitset.add faults (Random.State.int rng order)
                 done;
                 Testutil.render_outcome (solve ~faults)))
        in
        let key = "engine-solve " ^ name inst in
        let engine = Engine.create inst in
        Testutil.check_golden key (run (Engine.solve engine));
        let engine = Engine.create inst in
        let model = Fault_model.node inst in
        Testutil.check_golden key (run (Engine.solve ~model engine)));
  ]

(* The property domains are small enough to freeze whole: every
   (n, k, overclaim) point has a golden, and the generators draw from
   those points. *)
let family_key ~orbit (n, k, overclaim) =
  Printf.sprintf "family%s n=%d k=%d overclaim=%b"
    (if orbit then "-orbit" else "")
    n k overclaim

let family_inst (n, k, overclaim) =
  let inst = Family.build ~n ~k in
  if overclaim then overclaimed inst else inst

let matches_golden key r =
  Hashtbl.find_opt (Lazy.force Testutil.verify_goldens) key
  = Some (Testutil.render_report r)

let node_oracle_props =
  let open QCheck in
  [
    Test.make
      ~name:"node model equals legacy on random family instances" ~count:40
      (quad (int_range 1 8) (int_range 1 3) bool bool)
      (fun (n, k, overclaim, splice) ->
        let inst = family_inst (n, k, overclaim) in
        let key = family_key ~orbit:false (n, k, overclaim) in
        matches_golden key (Verify.exhaustive ~splice inst)
        && matches_golden key
             (Verify.exhaustive ~splice ~model:(Fault_model.node inst) inst));
    Test.make
      ~name:"orbit-reduced node model equals legacy on random instances"
      ~count:25
      (triple (int_range 1 7) (int_range 1 3) bool)
      (fun (n, k, overclaim) ->
        let inst = family_inst (n, k, overclaim) in
        let symmetry = Instance.symmetry inst in
        let key = family_key ~orbit:true (n, k, overclaim) in
        matches_golden key (Verify.exhaustive ~symmetry inst)
        && matches_golden key
             (Verify.exhaustive ~symmetry ~model:(Fault_model.node inst) inst));
    Test.make
      ~name:"sharded node model equals legacy on random instances" ~count:15
      (triple (int_range 1 7) (int_range 1 3) bool)
      (fun (n, k, overclaim) ->
        let inst = family_inst (n, k, overclaim) in
        let key = family_key ~orbit:false (n, k, overclaim) in
        matches_golden key
          (Engine.Parallel.verify_exhaustive ~domains:3
             ~min_items_per_domain:0 inst)
        && matches_golden key
             (Engine.Parallel.verify_exhaustive ~domains:3
                ~min_items_per_domain:0 ~model:(Fault_model.node inst) inst));
  ]

(* ------------------------------------------------------------------ *)
(* Frozen mixed node+link exhaustive results                           *)
(* ------------------------------------------------------------------ *)

let mixed_frozen_tests =
  [
    tc "mixed exhaustive on G(1,3) is frozen" (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        check Alcotest.int "universe" 26 (Fault_model.size model);
        let r = Verify.exhaustive ~max_failures:1_000_000 ~model inst in
        check Alcotest.int "fault sets" 2952 r.Verify.fault_sets_checked;
        check Alcotest.int "failures" 26 (List.length r.Verify.failures);
        check Alcotest.int "gave up" 0 r.Verify.gave_up;
        (* The first counterexample: processor 0 plus the 2-3 link. *)
        match r.Verify.failures with
        | first :: _ ->
          check Alcotest.string "first counterexample" "{0,1,2-3}"
            (Fault_model.describe model first.Verify.faults)
        | [] -> Alcotest.fail "expected failures");
    tc "mixed exhaustive on G(3,4) is frozen" (fun () ->
        let inst = Family.build ~n:3 ~k:4 in
        let model = Fault_model.mixed inst in
        check Alcotest.int "universe" 45 (Fault_model.size model);
        let r = Verify.exhaustive ~max_failures:1_000_000 ~model inst in
        check Alcotest.int "fault sets" 164221 r.Verify.fault_sets_checked;
        check Alcotest.int "failures" 1 (List.length r.Verify.failures);
        match r.Verify.failures with
        | [ f ] ->
          check Alcotest.string "counterexample" "{0,1,6,3-5}"
            (Fault_model.describe model f.Verify.faults)
        | _ -> Alcotest.fail "expected exactly one failure");
    tc "orbit reduction on mixed G(1,3) saves solver calls" (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        let symmetry = Instance.symmetry inst in
        let r =
          Verify.exhaustive ~max_failures:1_000_000 ~symmetry ~model inst
        in
        check Alcotest.int "fault sets covered" 2952
          r.Verify.fault_sets_checked;
        check Alcotest.int "solver calls" 137 r.Verify.solver_calls;
        (* Orbit-expanded failures must account for all 26 bad sets. *)
        check Alcotest.int "expanded failures" 26
          (List.fold_left (fun a f -> a + f.Verify.orbit) 0 r.Verify.failures));
    tc "mixed splice, from-scratch and shards agree" (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        let scratch =
          Verify.exhaustive ~max_failures:1_000_000 ~splice:false ~model inst
        in
        let spliced =
          Verify.exhaustive ~max_failures:1_000_000 ~splice:true ~model inst
        in
        check report_testable "splice vs scratch" scratch spliced;
        List.iter
          (fun domains ->
            check report_testable
              (Printf.sprintf "domains=%d" domains)
              scratch
              (Engine.Parallel.verify_exhaustive
                 ~max_failures:1_000_000 ~domains ~min_items_per_domain:0
                 ~model inst))
          [ 2; 4 ]);
    tc "colored and neighbor universes enumerate and agree in parallel"
      (fun () ->
        let inst = Small_n.g3 ~k:2 in
        List.iter
          (fun mk ->
            let model = mk inst in
            let seq = Verify.exhaustive ~max_failures:1_000_000 ~model inst in
            check Alcotest.int
              (Fault_model.name model ^ " checked")
              (Gdpn_graph.Combinat.count_up_to (Fault_model.size model)
                 (Fault_model.max_faults model))
              seq.Verify.fault_sets_checked;
            check report_testable
              (Fault_model.name model ^ " parallel")
              seq
              (Engine.Parallel.verify_exhaustive
                 ~max_failures:1_000_000 ~domains:3 ~min_items_per_domain:0
                 ~model inst))
          [ Fault_model.colored; Fault_model.neighbor ]);
  ]

(* ------------------------------------------------------------------ *)
(* Certificates over fault models                                      *)
(* ------------------------------------------------------------------ *)

let certificate_tests =
  [
    tc "node-model certificate roundtrips" (fun () ->
        List.iter
          (fun inst ->
            let cert =
              Testutil.certificate (Certify.write (Fault_model.node inst))
            in
            match Certify.check inst cert with
            | Ok count ->
              check Alcotest.int inst.Instance.name
                (Gdpn_graph.Combinat.count_up_to (Instance.order inst)
                   inst.Instance.k)
                count
            | Error e -> Alcotest.fail e)
          [ Small_n.g1 ~k:2; Small_n.g3 ~k:2 ]);
    tc "mixed-model orbit certificate through the engine" (fun () ->
        (* The G(1,4) graph declared with k = 2 tolerates any two node or
           link faults: 631 fault sets over 15 nodes and 20 links, under a
           node group of order 240. *)
        let g14 = Small_n.g1 ~k:4 in
        let inst =
          Instance.make ~graph:g14.Instance.graph ~kind:g14.Instance.kind ~n:1
            ~k:2 ~name:"G(1,4) at k=2" ~strategy:g14.Instance.strategy
        in
        check Alcotest.int "group order" 240
          (Gdpn_graph.Auto.order (Instance.symmetry inst));
        let engine = Engine.create inst in
        let model = Fault_model.mixed inst in
        let orbit = Testutil.certificate (Engine.certify ~model engine) in
        let flat =
          Testutil.certificate (Engine.certify ~model ~symmetry:false engine)
        in
        check Alcotest.bool "orbits compress" true
          (String.length orbit < String.length flat);
        List.iter
          (fun cert ->
            match Certify.check inst cert with
            | Ok count -> check Alcotest.int "mixed fault sets" 631 count
            | Error e -> Alcotest.fail e)
          [ orbit; flat ]);
    tc "a certificate declaring another model is rejected" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let cert =
          Testutil.certificate (Certify.write (Fault_model.node inst))
        in
        (* The model name follows the magic and the digest string. *)
        let at = 12 + 1 + 32 in
        let as_model name =
          String.sub cert 0 at
          ^ String.make 1 (Char.chr (String.length name))
          ^ name
          ^ String.sub cert (at + 5) (String.length cert - at - 5)
        in
        check Alcotest.string "round trip" cert (as_model "node");
        List.iter
          (fun name ->
            match Certify.check inst (as_model name) with
            | Ok _ -> Alcotest.failf "%s: accepted a node certificate" name
            | Error _ -> ())
          [ "mixed"; "colored"; "neighbor"; "nodes" ]);
    tc "write refuses an untolerated universe" (fun () ->
        (* G(1,3) mixed has genuine counterexamples, so no certificate
           exists. *)
        let inst = Family.build ~n:1 ~k:3 in
        match Testutil.certificate (Certify.write (Fault_model.mixed inst)) with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Link_faults as a wrapper over the mixed model                       *)
(* ------------------------------------------------------------------ *)

let link_wrapper_tests =
  [
    tc "survey of Small_n.g3 k=2 is frozen" (fun () ->
        let s = Link_faults.survey_exhaustive (Small_n.g3 ~k:2) in
        check Alcotest.int "sets" 326 s.Link_faults.fault_sets;
        check Alcotest.int "graceful" 325 s.Link_faults.graceful;
        check Alcotest.int "degraded" 1 s.Link_faults.degraded;
        check Alcotest.int "lost" 0 s.Link_faults.lost;
        check Alcotest.int "min processors" 3 s.Link_faults.min_processors);
    tc "solve agrees with the mixed model verdict" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let model = Fault_model.mixed inst in
        let usize = Fault_model.size model in
        for i = 0 to usize - 1 do
          for j = i + 1 to usize - 1 do
            let faults =
              List.map
                (fun idx ->
                  match Fault_model.element model idx with
                  | Fault_model.Node v -> Link_faults.Node v
                  | Fault_model.Link (u, v) -> Link_faults.Link (u, v)
                  | _ -> assert false)
                [ i; j ]
            in
            let mask = Bitset.of_list usize [ i; j ] in
            let direct = Fault_model.solve model ~faults:mask in
            match (Link_faults.solve inst ~faults, direct) with
            | Link_faults.Graceful p, Reconfig.Pipeline _ ->
              (match Fault_model.validate model ~faults:mask p.Pipeline.nodes with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e)
            | Link_faults.Graceful _, _ | _, Reconfig.Pipeline _ ->
              Alcotest.fail "wrapper and model disagree on gracefulness"
            | (Link_faults.Degraded _ | Link_faults.No_pipeline
              | Link_faults.Gave_up), _ -> ()
          done
        done);
    tc "ctx and shared model do not change wrapper verdicts" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let model = Fault_model.mixed inst in
        let ctx = Reconfig.make_ctx inst in
        let classify = function
          | Link_faults.Graceful _ -> `G
          | Link_faults.Degraded _ -> `D
          | Link_faults.No_pipeline -> `N
          | Link_faults.Gave_up -> `U
        in
        let link i =
          match Fault_model.element model (Instance.order inst + i) with
          | Fault_model.Link (u, v) -> Link_faults.Link (u, v)
          | _ -> Alcotest.fail "expected a link element"
        in
        List.iter
          (fun faults ->
            check Alcotest.bool "same class" true
              (classify (Link_faults.solve inst ~faults)
              = classify (Link_faults.solve ~ctx ~model inst ~faults)))
          [
            [];
            [ Link_faults.Node 0 ];
            [ link 0 ];
            [ Link_faults.Node 4; link 1 ];
          ]);
    tc "unknown elements are rejected" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        Alcotest.check_raises "non-edge"
          (Invalid_argument
             "Link_faults.solve: not a node or edge of the instance")
          (fun () ->
            ignore
              (Link_faults.solve inst ~faults:[ Link_faults.Link (0, 999) ])));
  ]

(* ------------------------------------------------------------------ *)
(* Machine, injector and attack over a model                           *)
(* ------------------------------------------------------------------ *)

let faultsim_tests =
  [
    tc "machine over the node model mirrors the legacy machine" (fun () ->
        let inst = Small_n.g1 ~k:3 in
        let legacy = Faultsim.Machine.create inst in
        let gen =
          Faultsim.Machine.create ~model:(Fault_model.node inst) inst
        in
        List.iter
          (fun v ->
            let a = Faultsim.Machine.inject legacy v in
            let b = Faultsim.Machine.inject gen v in
            let same =
              match (a, b) with
              | Faultsim.Machine.Remapped p, Faultsim.Machine.Remapped q ->
                p = q
              | Faultsim.Machine.Unchanged, Faultsim.Machine.Unchanged -> true
              | Faultsim.Machine.Lost, Faultsim.Machine.Lost -> true
              | _ -> false
            in
            check Alcotest.bool (Printf.sprintf "inject %d" v) true same;
            check Alcotest.int "healthy"
              (Faultsim.Machine.healthy_processor_count legacy)
              (Faultsim.Machine.healthy_processor_count gen))
          [ 0; 0; 3; 5 ]);
    tc "machine absorbs a graceful link fault without losing processors"
      (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        let m = Faultsim.Machine.create ~model inst in
        let healthy0 = Faultsim.Machine.healthy_processor_count m in
        let idx =
          match Fault_model.index_of model (Fault_model.Link (1, 2)) with
          | Some i -> i
          | None -> Alcotest.fail "1-2 should be an edge"
        in
        (match Faultsim.Machine.inject m idx with
        | Faultsim.Machine.Remapped p ->
          check Alcotest.int "all processors still used" healthy0
            (Pipeline.processor_count p)
        | Faultsim.Machine.Unchanged | Faultsim.Machine.Lost ->
          Alcotest.fail "single in-spec link fault must remap");
        check Alcotest.int "no processor died" healthy0
          (Faultsim.Machine.healthy_processor_count m);
        check Alcotest.(list int) "universe-indexed fault list" [ idx ]
          (Faultsim.Machine.faults m));
    tc "machine range-checks the universe" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let model = Fault_model.mixed inst in
        let m = Faultsim.Machine.create ~model inst in
        Alcotest.check_raises "out of range"
          (Invalid_argument "Machine.inject: node out of range") (fun () ->
            ignore (Faultsim.Machine.inject m (Fault_model.size model))));
    tc "random_model schedules draw distinct in-range universe indices"
      (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let model = Fault_model.mixed inst in
        let rng = Faultsim.Stream.Prng.create 5 in
        let schedule =
          Faultsim.Injector.random_model ~rng model ~count:6 ~rounds:20
        in
        let elts =
          List.map (fun e -> e.Faultsim.Injector.node) schedule
        in
        check Alcotest.int "count" 6 (List.length elts);
        check Alcotest.int "distinct" 6
          (List.length (List.sort_uniq compare elts));
        List.iter
          (fun e ->
            check Alcotest.bool "in range" true
              (e >= 0 && e < Fault_model.size model))
          elts);
    tc "attack with the node model reproduces the plain search" (fun () ->
        let inst = Small_n.g1 ~k:3 in
        let plain =
          Attack.worst_case ~rng:(Random.State.make [| 9 |]) ~restarts:3 inst
        in
        let modeled =
          Attack.worst_case
            ~rng:(Random.State.make [| 9 |])
            ~restarts:3 ~model:(Fault_model.node inst) inst
        in
        check Alcotest.bool "identical finding" true (plain = modeled));
    tc "attack over the mixed universe finds an in-range set" (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        let f =
          Attack.worst_case
            ~rng:(Random.State.make [| 2 |])
            ~restarts:2 ~model inst
        in
        check Alcotest.int "set size" inst.Instance.k
          (List.length f.Attack.faults);
        List.iter
          (fun i ->
            check Alcotest.bool "in universe" true
              (i >= 0 && i < Fault_model.size model))
          f.Attack.faults);
  ]

let () =
  Alcotest.run "gdpn_fault_model"
    [
      ("node-oracle", node_oracle_tests @ to_alcotest node_oracle_props);
      ("mixed-frozen", mixed_frozen_tests);
      ("certificates", certificate_tests);
      ("link-wrapper", link_wrapper_tests);
      ("faultsim", faultsim_tests);
    ]
