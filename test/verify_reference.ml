(* The from-scratch, size-major enumeration loops that predate the
   work-unit task core of Gdpn_core.Verify, kept as its equivalence
   oracle: every fault set of size 0..k (or one representative per
   orbit), visited in the canonical order, each solved from scratch,
   stopping right after the [max_failures]-th failure.  No prefix
   chains, no ranks, no merge — so for any input the task core's report
   must equal this one field for field.  Perf is irrelevant here. *)

open Gdpn_core
module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Auto = Gdpn_graph.Auto

(* Check each [(set, size)] in order; [size] is the number of fault sets
   the item stands for (1, or the orbit size). *)
let run_checks model ~max_failures items =
  let mask = Bitset.create (Fault_model.size model) in
  let checked = ref 0 and calls = ref 0 and gave_up = ref 0 in
  let failures = ref [] in
  let exception Stop in
  (try
     items (fun set size ->
         Bitset.clear mask;
         Array.iter (Bitset.add mask) set;
         checked := !checked + size;
         incr calls;
         match Verify.check_mask model mask with
         | Ok () -> ()
         | Error reason ->
           if reason = "solver gave up" then gave_up := !gave_up + size;
           failures :=
             { Verify.faults = Array.to_list set; reason; orbit = size }
             :: !failures;
           if List.length !failures >= max_failures then raise Stop)
   with Stop -> ());
  {
    Verify.fault_sets_checked = !checked;
    solver_calls = !calls;
    failures = List.rev !failures;
    gave_up = !gave_up;
  }

let exhaustive ?(max_failures = 5) ?universe ?symmetry ?model inst =
  let model = Fault_model.resolve model inst in
  let k = Fault_model.max_faults model in
  match Option.map (Fault_model.induced_symmetry model) symmetry with
  | Some group when not (Auto.is_trivial group) ->
    let universe = Option.map Array.of_list universe in
    let reps = Auto.fault_orbits ?universe group ~max_size:k in
    run_checks model ~max_failures (fun f ->
        Array.iter (fun { Auto.set; size } -> f set size) reps)
  | Some _ | None ->
    let elts =
      match universe with
      | Some l -> Array.of_list l
      | None -> Array.init (Fault_model.size model) Fun.id
    in
    let n = Array.length elts in
    run_checks model ~max_failures (fun f ->
        Combinat.iter_subsets_up_to n k (fun buf len ->
            f (Array.init len (fun i -> elts.(buf.(i)))) 1))
