(* Kernel-equivalence oracle (PR 4): the word-parallel bitset-row kernel
   must be observationally identical to the pre-kernel backtracker in
   hamilton_reference.ml — same [result] AND same expansion count — on
   arbitrary inputs, and must reproduce the paper's frozen families in
   golden/kernel_expansions.txt (written while both paths were checked
   against it).  The two implementations share prunes, Warnsdorff
   ordering and tick placement by construction; these tests pin that
   contract so future kernel work cannot silently change the search. *)

open Gdpn_core
module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset
module Hamilton = Gdpn_graph.Hamilton
module Metrics = Gdpn_obs.Metrics

let tc name f = Alcotest.test_case name `Quick f
let to_alcotest = List.map QCheck_alcotest.to_alcotest

let pp_result = function
  | Hamilton.Path p ->
    "Path [" ^ String.concat ";" (List.map string_of_int p) ^ "]"
  | Hamilton.No_path -> "No_path"
  | Hamilton.Budget_exceeded -> "Budget_exceeded"

(* Kernel and reference agree on result and expansion count. *)
let equivalent ?budget g ~alive ~starts ~ends =
  let ek = ref 0 and er = ref 0 in
  let rk = Hamilton.spanning_path ?budget ~expansions:ek g ~alive ~starts ~ends in
  let rr =
    Hamilton_reference.spanning_path ?budget ~expansions:er g ~alive ~starts
      ~ends
  in
  if rk <> rr then
    QCheck.Test.fail_reportf "results differ: kernel=%s reference=%s"
      (pp_result rk) (pp_result rr);
  if !ek <> !er then
    QCheck.Test.fail_reportf "expansions differ: kernel=%d reference=%d" !ek
      !er;
  true

(* Random search problems: an Erdős–Rényi-ish graph plus random
   alive/starts/ends subsets and an occasional tight budget (so the
   Budget_exceeded arm is exercised too). *)
let problem_gen =
  QCheck.Gen.(
    pair (int_range 1 18) int >|= fun (n, seed) ->
    let rng = Random.State.make [| seed; 977 |] in
    let p = 0.15 +. Random.State.float rng 0.5 in
    let b = Graph.builder n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.float rng 1.0 < p then Graph.add_edge b u v
      done
    done;
    let subset keep_p =
      let s = Bitset.create n in
      for v = 0 to n - 1 do
        if Random.State.float rng 1.0 < keep_p then Bitset.add s v
      done;
      s
    in
    let budget =
      match Random.State.int rng 4 with
      | 0 -> Some (Random.State.int rng 40)
      | _ -> None
    in
    (Graph.freeze b, subset 0.8, subset 0.5, subset 0.5, budget))

let problem_arb =
  QCheck.make
    ~print:(fun (g, alive, starts, ends, budget) ->
      Format.asprintf "graph=%a alive=%a starts=%a ends=%a budget=%s" Graph.pp
        g Bitset.pp alive Bitset.pp starts Bitset.pp ends
        (match budget with None -> "none" | Some b -> string_of_int b))
    problem_gen

let random_props =
  let open QCheck in
  [
    Test.make
      ~name:"kernel equals reference on random instances (result+expansions)"
      ~count:300 problem_arb
      (fun (g, alive, starts, ends, budget) ->
        equivalent ?budget g ~alive ~starts ~ends);
    Test.make ~name:"kernel equals reference with alive = everything"
      ~count:120 problem_arb
      (fun (g, _, starts, ends, budget) ->
        let alive = Bitset.full (Graph.order g) in
        equivalent ?budget g ~alive ~starts ~ends);
  ]

(* Frozen families: whole verifications pinned by
   golden/kernel_expansions.txt — the rendered report (or solver outcome)
   and the total expansion count, read from the metric cell around the
   run (the suites run sequentially, so the deltas are exact).  Splice is
   off so every fault set exercises the solver. *)
let counter_delta name f =
  let cell = Metrics.counter name in
  let before = Metrics.value cell in
  let r = f () in
  (r, Metrics.value cell - before)

let check_line key rendered expansions =
  Testutil.check_golden ~goldens:Testutil.kernel_goldens key
    (Printf.sprintf "%s expansions=%d" rendered expansions)

let check_family n k =
  let inst = Family.build ~n ~k in
  let r, e =
    counter_delta "hamilton.expansions" (fun () ->
        Verify.exhaustive ~splice:false inst)
  in
  check_line
    (Printf.sprintf "exhaustive G(%d,%d)" n k)
    (Testutil.render_report r) e

let family_tests =
  [
    tc "G(1,k) exhaustive verifies agree" (fun () ->
        List.iter (fun k -> check_family 1 k) [ 2; 3; 4 ]);
    tc "G(3,k) exhaustive verifies agree" (fun () ->
        List.iter (fun k -> check_family 3 k) [ 2; 3; 4; 5 ]);
    tc "circulant sampled verifies agree" (fun () ->
        (* The smallest circulant (k >= 4) already has a ~67k-set fault
           space, so the family check samples a fixed stream instead of
           exhausting it. *)
        let inst = Circulant_family.build ~n:18 ~k:4 in
        let r, e =
          counter_delta "hamilton.expansions" (fun () ->
              Verify.sampled ~rng:(Random.State.make [| 7177 |]) ~trials:600
                inst)
        in
        check_line "sampled seed=7177 trials=600 G(18,4)"
          (Testutil.render_report r) e);
    tc "special instances G(4,3) and G(6,2) agree" (fun () ->
        check_family 4 3;
        check_family 6 2;
        check_family 8 2);
    tc "generic solver agrees on random fault masks of G(40,4)" (fun () ->
        let inst = Circulant_family.build ~n:40 ~k:4 in
        let order = Instance.order inst in
        let rng = Random.State.make [| 4242 |] in
        for i = 1 to 60 do
          let faults = Bitset.create order in
          for _ = 1 to Random.State.int rng (inst.Instance.k + 1) do
            Bitset.add faults (Random.State.int rng order)
          done;
          let key =
            Printf.sprintf "solve_generic G(40,4) #%d {%s}" i
              (String.concat ","
                 (List.map string_of_int (Bitset.elements faults)))
          in
          let e = ref 0 in
          let o = Reconfig.solve_generic ~expansions:e inst ~faults in
          check_line key (Testutil.render_outcome o) !e
        done);
  ]

let () =
  Alcotest.run "gdpn_kernel"
    [
      ("random-oracle", to_alcotest random_props);
      ("frozen-families", family_tests);
    ]
