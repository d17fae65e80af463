(* Tests for the symmetry layer (PR 2): automorphism group computation
   (checked against a brute-force n! oracle and frozen orders for the
   paper families), orbit-reduced verification (verdicts, counts and
   orbit-expanded failure sets must agree with full enumeration,
   including on instances that genuinely fail), domain-sharded orbit
   verification, and orbit-compressed certificates. *)

open Gdpn_core
module Graph = Gdpn_graph.Graph
module Auto = Gdpn_graph.Auto
module Combinat = Gdpn_graph.Combinat
module Engine = Gdpn_engine.Engine

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Brute-force oracle                                                  *)
(* ------------------------------------------------------------------ *)

let iter_permutations n f =
  let perm = Array.init n (fun i -> i) in
  let rec go i =
    if i = n then f perm
    else
      for j = i to n - 1 do
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t;
        go (i + 1);
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done
  in
  go 0

(* Independent of [Auto.is_automorphism]: a bijection preserves adjacency
   iff it maps every edge to an edge (edge sets are finite and equal in
   size, so injectivity gives the converse direction for free). *)
let oracle_order ?(colour = fun _ -> 0) g =
  let n = Graph.order g in
  let edges = Graph.edges g in
  let count = ref 0 in
  iter_permutations n (fun p ->
      let ok = ref true in
      for v = 0 to n - 1 do
        if colour p.(v) <> colour v then ok := false
      done;
      if !ok && List.for_all (fun (u, v) -> Graph.adjacent g p.(u) p.(v)) edges
      then incr count);
  !count

let cycle n = Graph.of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))
let path n = Graph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let complete n =
  let b = Graph.builder n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Graph.add_edge b i j
    done
  done;
  Graph.freeze b

(* The smallest asymmetric graph (6 nodes, automorphism group trivial). *)
let asymmetric () =
  Graph.of_edges 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (1, 3); (1, 4) ]

let group_tests =
  [
    tc "order matches the n! oracle on small graphs" (fun () ->
        List.iter
          (fun (name, g) ->
            check Alcotest.int name (oracle_order g)
              (Auto.order (Auto.automorphisms g)))
          [
            ("C5", cycle 5);
            ("C6", cycle 6);
            ("P4", path 4);
            ("K4", complete 4);
            ("star K1,3", Graph.of_edges 4 [ (0, 1); (0, 2); (0, 3) ]);
            ("asymmetric-6", asymmetric ());
            ("two edges", Graph.of_edges 4 [ (0, 1); (2, 3) ]);
          ]);
    tc "coloured order matches the oracle" (fun () ->
        let colour v = v mod 2 in
        List.iter
          (fun (name, g) ->
            check Alcotest.int name
              (oracle_order ~colour g)
              (Auto.order (Auto.automorphisms ~colour g)))
          [ ("C6 alternating", cycle 6); ("K4 alternating", complete 4) ]);
    tc "asymmetric graph yields the trivial group" (fun () ->
        let g = Auto.automorphisms (asymmetric ()) in
        check Alcotest.bool "trivial" true (Auto.is_trivial g);
        check Alcotest.int "order" 1 (Auto.order g));
    tc "frozen group orders on the paper families" (fun () ->
        let full inst = Auto.order (Instance.symmetry inst) in
        let pure inst = Auto.order (Instance.symmetry ~reversal:false inst) in
        (* G(1,k): clique on k+1 inputs wired symmetrically — pure group
           (k+1)!, reversal doubles it.  G(2,k): k! / 2·k!.  G(3,k)'s
           layered clique core leaves less room; orders measured once and
           frozen here. *)
        check Alcotest.int "G(1,5) pure" 720 (pure (Small_n.g1 ~k:5));
        check Alcotest.int "G(1,5) full" 1440 (full (Small_n.g1 ~k:5));
        check Alcotest.int "G(2,5) pure" 120 (pure (Small_n.g2 ~k:5));
        check Alcotest.int "G(2,5) full" 240 (full (Small_n.g2 ~k:5));
        check Alcotest.int "G(3,3) full" 8 (full (Small_n.g3 ~k:3));
        check Alcotest.int "G(3,5) full" 32 (full (Small_n.g3 ~k:5));
        check Alcotest.int "G(3,2) trivial" 1 (full (Small_n.g3 ~k:2));
        (* The circulant's ring rotations do not survive the labeled
           terminal attachments: only the input/output reversal remains. *)
        check Alcotest.int "circulant G(18,4) full" 2
          (full (Circulant_family.build ~n:18 ~k:4)));
    tc "adjoin_involution rejects bad arguments" (fun () ->
        let g = Auto.automorphisms (cycle 5) in
        Alcotest.check_raises "identity"
          (Invalid_argument "Auto.adjoin_involution: identity") (fun () ->
            ignore (Auto.adjoin_involution g (Array.init 5 (fun i -> i))));
        Alcotest.check_raises "not a permutation"
          (Invalid_argument
             "Auto.adjoin_involution: not a permutation of the degree")
          (fun () -> ignore (Auto.adjoin_involution g [| 0; 0; 1; 2; 3 |])));
  ]

(* ------------------------------------------------------------------ *)
(* Orbit machinery                                                     *)
(* ------------------------------------------------------------------ *)

let orbit_tests =
  [
    tc "orbit sizes partition the subset space" (fun () ->
        List.iter
          (fun inst ->
            let g = Instance.symmetry inst in
            let n = Instance.order inst in
            let k = inst.Instance.k in
            let reps = Auto.fault_orbits g ~max_size:k in
            let total =
              Array.fold_left (fun acc r -> acc + r.Auto.size) 0 reps
            in
            check Alcotest.int
              (inst.Instance.name ^ ": orbit sizes sum")
              (Combinat.count_up_to n k) total;
            (* Each representative is min-lex in its own orbit. *)
            Array.iter
              (fun r ->
                check
                  (Alcotest.list Alcotest.int)
                  (inst.Instance.name ^ ": rep canonical")
                  (Array.to_list r.Auto.set)
                  (Array.to_list (Auto.canonical_set g r.Auto.set));
                check Alcotest.int
                  (inst.Instance.name ^ ": orbit size")
                  r.Auto.size
                  (List.length (Auto.orbit_of_set g r.Auto.set)))
              reps)
          [ Small_n.g1 ~k:3; Small_n.g2 ~k:3; Small_n.g3 ~k:3 ]);
    tc "trivial group enumerates every subset" (fun () ->
        let reps = Auto.fault_orbits (Auto.trivial 6) ~max_size:2 in
        check Alcotest.int "rep count" (Combinat.count_up_to 6 2)
          (Array.length reps);
        Array.iter
          (fun r -> check Alcotest.int "size 1" 1 r.Auto.size)
          reps);
    tc "restricted universe must be invariant" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let g = Instance.symmetry inst in
        (* The processor set is terminal-free and group-invariant... *)
        let procs = Array.of_list (Instance.processors inst) in
        check Alcotest.bool "processors invariant" true
          (Auto.invariant_universe g procs);
        ignore (Auto.fault_orbits ~universe:procs g ~max_size:2);
        (* ...but a singleton the group moves is not.  The group is
           nontrivial, so some generator displaces some node. *)
        let moved =
          List.find_map
            (fun p ->
              let rec scan v =
                if v >= Array.length p then None
                else if p.(v) <> v then Some v
                else scan (v + 1)
              in
              scan 0)
            (Auto.generators g)
        in
        match moved with
        | None -> Alcotest.fail "expected a nontrivial group"
        | Some v ->
          check Alcotest.bool "moved singleton not invariant" false
            (Auto.invariant_universe g [| v |]))
  ]

(* ------------------------------------------------------------------ *)
(* Orbit-reduced verification vs full enumeration                      *)
(* ------------------------------------------------------------------ *)

let overclaimed inst =
  Instance.make ~graph:inst.Instance.graph ~kind:inst.Instance.kind
    ~n:inst.Instance.n
    ~k:(inst.Instance.k + 2)
    ~name:(inst.Instance.name ^ "+2") ~strategy:Instance.Generic

let sorted_sets = List.sort compare

let agree label inst =
  let g = Instance.symmetry inst in
  let full = Verify.exhaustive ~max_failures:1_000_000 inst in
  let orbit = Verify.exhaustive ~max_failures:1_000_000 ~symmetry:g inst in
  check Alcotest.bool (label ^ ": verdict") (Verify.is_k_gd full)
    (Verify.is_k_gd orbit);
  check Alcotest.int (label ^ ": fault_sets_checked")
    full.Verify.fault_sets_checked orbit.Verify.fault_sets_checked;
  check Alcotest.int (label ^ ": gave_up") full.Verify.gave_up
    orbit.Verify.gave_up;
  check Alcotest.bool (label ^ ": fewer-or-equal solver calls") true
    (orbit.Verify.solver_calls <= full.Verify.solver_calls);
  let full_sets =
    sorted_sets (List.map (fun f -> f.Verify.faults) full.Verify.failures)
  in
  let orbit_sets =
    sorted_sets (Verify.expanded_failure_sets ~symmetry:g orbit)
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    (label ^ ": failure sets")
    full_sets orbit_sets

let verify_tests =
  [
    tc "healthy instances: orbit agrees with full" (fun () ->
        List.iter
          (fun inst -> agree inst.Instance.name inst)
          (List.concat_map
             (fun k -> [ Small_n.g1 ~k; Small_n.g2 ~k; Small_n.g3 ~k ])
             [ 1; 2; 3 ]
          @ [ Small_n.g3 ~k:5; Special.g62 () ]));
    tc "failing instances: orbit agrees with full" (fun () ->
        List.iter
          (fun inst ->
            let bad = overclaimed inst in
            agree bad.Instance.name bad;
            check Alcotest.bool "really fails" false
              (Verify.is_k_gd
                 (Verify.exhaustive ~symmetry:(Instance.symmetry bad) bad)))
          [ Small_n.g1 ~k:1; Small_n.g2 ~k:2; Small_n.g3 ~k:2 ]);
    tc "circulant: orbit agrees with full" (fun () ->
        agree "circulant" (Circulant_family.build ~n:18 ~k:4));
    tc "merged-terminal universe: orbit agrees with full" (fun () ->
        let inst = Small_n.g2 ~k:3 in
        let g = Instance.symmetry inst in
        let universe = Instance.processors inst in
        let full = Verify.exhaustive ~universe inst in
        let orbit = Verify.exhaustive ~universe ~symmetry:g inst in
        check Alcotest.bool "verdict" (Verify.is_k_gd full)
          (Verify.is_k_gd orbit);
        check Alcotest.int "checked" full.Verify.fault_sets_checked
          orbit.Verify.fault_sets_checked;
        check Alcotest.bool "reduced" true
          (orbit.Verify.solver_calls < full.Verify.solver_calls));
    tc "early stop under max_failures still rejects" (fun () ->
        let bad = overclaimed (Small_n.g2 ~k:2) in
        let r =
          Verify.exhaustive ~max_failures:1 ~symmetry:(Instance.symmetry bad)
            bad
        in
        check Alcotest.bool "not k-gd" false (Verify.is_k_gd r);
        check Alcotest.int "kept one" 1 (List.length r.Verify.failures));
    tc "degree mismatch is rejected" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let wrong = Auto.trivial (Instance.order inst + 1) in
        Alcotest.check_raises "bad degree"
          (Invalid_argument
             "Verify.exhaustive: symmetry group degree <> instance order")
          (fun () -> ignore (Verify.exhaustive ~symmetry:wrong inst)));
  ]

(* ------------------------------------------------------------------ *)
(* Domain-sharded orbit verification                                   *)
(* ------------------------------------------------------------------ *)

let parallel_tests =
  [
    tc "parallel orbit report equals sequential, field for field" (fun () ->
        List.iter
          (fun inst ->
            let g = Instance.symmetry inst in
            let seq = Verify.exhaustive ~symmetry:g inst in
            let par =
              Engine.Parallel.verify_exhaustive ~domains:3 ~symmetry:g inst
            in
            if seq <> par then
              Alcotest.failf "%s: parallel report differs"
                inst.Instance.name)
          [
            Small_n.g1 ~k:3;
            Small_n.g3 ~k:4;
            overclaimed (Small_n.g2 ~k:2);
          ]);
    tc "parallel early stop matches sequential" (fun () ->
        let bad = overclaimed (Small_n.g1 ~k:2) in
        let g = Instance.symmetry bad in
        let seq = Verify.exhaustive ~max_failures:2 ~symmetry:g bad in
        let par =
          Engine.Parallel.verify_exhaustive ~max_failures:2 ~domains:4
            ~symmetry:g bad
        in
        if seq <> par then Alcotest.fail "early-stop reports differ");
  ]

(* ------------------------------------------------------------------ *)
(* Orbit-compressed certificates                                       *)
(* ------------------------------------------------------------------ *)

let certify ?model ?symmetry inst =
  Testutil.certificate (Engine.certify ?model ?symmetry (Engine.create inst))

(* Number of records in a certificate, from its layout. *)
let records cert inst =
  List.length
    (snd (Testutil.certificate_layout cert ~order:(Instance.order inst)))

let cert_tests =
  [
    tc "orbit certificate round-trips and counts the full space" (fun () ->
        List.iter
          (fun inst ->
            let cert = certify inst in
            check Alcotest.bool "orbit records" true
              (records cert inst
              < Combinat.count_up_to (Instance.order inst) inst.Instance.k);
            match Certify.check inst cert with
            | Ok n ->
              check Alcotest.int "covers every fault set"
                (Combinat.count_up_to (Instance.order inst) inst.Instance.k)
                n
            | Error e -> Alcotest.failf "%s: %s" inst.Instance.name e)
          [ Small_n.g1 ~k:3; Small_n.g3 ~k:3; Special.g62 () ]);
    tc "orbit records compress the certificate" (fun () ->
        let inst = Small_n.g1 ~k:3 in
        let orbit = certify inst in
        let flat = certify ~symmetry:false inst in
        check Alcotest.int "one record per fault set"
          (Combinat.count_up_to (Instance.order inst) inst.Instance.k)
          (records flat inst);
        check Alcotest.bool "fewer records" true
          (records orbit inst < records flat inst);
        check Alcotest.bool "fewer bytes" true
          (String.length orbit < String.length flat));
    tc "trivial group writes one record per fault set" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let cert = certify inst in
        check Alcotest.string "same bytes as the flat certificate"
          (certify ~symmetry:false inst) cert;
        match Certify.check inst cert with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
    tc "forged orbit certificates are rejected" (fun () ->
        (* G(1,2): 9 nodes and 46 fault sets, so every varint is one
           byte and a forgery is a plain byte splice. *)
        let inst = Small_n.g1 ~k:2 in
        let g = inst.Instance.graph in
        let order = Instance.order inst in
        let group = Instance.symmetry inst in
        let cert = certify inst in
        let header_end, layout = Testutil.certificate_layout cert ~order in
        let replace at len bytes =
          String.sub cert 0 at ^ bytes
          ^ String.sub cert (at + len) (String.length cert - at - len)
        in
        let bytes l = String.of_seq (Seq.map Char.chr (List.to_seq l)) in
        let expect_error label cert' fragment =
          match Certify.check inst cert' with
          | Ok _ -> Alcotest.failf "%s: accepted" label
          | Error e ->
            if not (Testutil.contains_substring e fragment) then
              Alcotest.failf "%s: error %S lacks %S" label e fragment
        in
        (* The first generator follows the magic, the digest and model
           strings, and the set and generator counts. *)
        let gens_start = 12 + (1 + 32) + (1 + String.length "node") + 1 + 1 in
        let with_generator p =
          replace gens_start order (bytes (Array.to_list p))
        in
        let swap a b =
          Array.init order (fun v ->
              if v = a then b else if v = b then a else v)
        in
        (match Instance.inputs inst with
        | a :: b :: _ ->
          (* Two input terminals on different processors. *)
          expect_error "non-automorphism" (with_generator (swap a b))
            "automorphism"
        | _ -> Alcotest.fail "G(1,2) has inputs");
        (* One processor's input and output terminal are both leaves on
           it: swapping them is a graph automorphism that mixes kinds. *)
        let i = List.hd (Instance.inputs inst) in
        let o =
          List.find
            (fun o -> Graph.adjacent g (Graph.neighbours g i).(0) o)
            (Instance.outputs inst)
        in
        check Alcotest.bool "leaf swap is an automorphism" true
          (Auto.is_automorphism g (swap i o));
        expect_error "kind-mixing generator" (with_generator (swap i o))
          "automorphism";
        (* Swapping two records breaks the canonical order. *)
        let r1, _, e1 = List.nth layout 1 and _, _, e2 = List.nth layout 2 in
        expect_error "swapped records"
          (String.sub cert 0 r1
          ^ String.sub cert e1 (e2 - e1)
          ^ String.sub cert r1 (e1 - r1)
          ^ String.sub cert e2 (String.length cert - e2))
          "canonical order";
        (* Dropping the last record (and counting one record fewer)
           leaves its orbit uncovered; folding its orbit size into the
           first record's restores the total, but that record's
           re-derived orbit disagrees.  The record count is the header's
           last byte; a record's size byte precedes its one-byte witness
           length. *)
        let last_record = List.nth layout (List.length layout - 1) in
        let last, _, stop = last_record in
        let dropped =
          String.mapi
            (fun j c ->
              if j = header_end - 1 then Char.chr (Char.code c - 1) else c)
            (String.sub cert 0 last)
        in
        expect_error "dropped record" dropped "cover";
        let size_at (_, w, _) = w - 2 in
        let folded =
          String.mapi
            (fun j c ->
              if j = size_at (List.hd layout) then
                Char.chr (Char.code c + Char.code cert.[size_at last_record])
              else c)
            dropped
        in
        expect_error "folded orbit size" folded "members";
        (* The last record re-witnessed through a larger member of its
           orbit: still in canonical order, but not the orbit's least
           member. *)
        let reps = Auto.fault_orbits group ~max_size:inst.Instance.k in
        let { Auto.set; size } = reps.(Array.length reps - 1) in
        let member = List.fold_left max set (Auto.orbit_of_set group set) in
        check Alcotest.bool "orbit has a larger member" true (member > set);
        let faults = Gdpn_graph.Bitset.of_list order (Array.to_list member) in
        let witness =
          match Reconfig.solve inst ~faults with
          | Reconfig.Pipeline p -> p.Pipeline.nodes
          | Reconfig.No_pipeline | Reconfig.Gave_up ->
            Alcotest.fail "G(1,2) tolerates two faults"
        in
        let gaps =
          snd
            (Array.fold_left_map (fun prev v -> (v, v - prev - 1)) (-1) member)
        in
        expect_error "non-least representative"
          (replace last (stop - last)
             (bytes
                ((Array.length member :: Array.to_list gaps)
                @ (size :: List.length witness :: witness))))
          "least member";
        match Certify.check (Small_n.g2 ~k:2) cert with
        | Ok _ -> Alcotest.fail "cross-instance cert accepted"
        | Error _ -> ());
  ]

let () =
  Alcotest.run "gdpn-auto"
    [
      ("group", group_tests);
      ("orbits", orbit_tests);
      ("verify", verify_tests);
      ("parallel", parallel_tests);
      ("certify", cert_tests);
    ]
