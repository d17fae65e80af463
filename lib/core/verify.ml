module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Auto = Gdpn_graph.Auto
module Metrics = Gdpn_obs.Metrics

(* Observability instruments (process-wide, see Gdpn_obs.Metrics).
   [verify.solver_calls] counts once per reported check — per check in
   sampled and orbit units, settled against the merged report for plain
   units (see {!Task.merge}) — so the counter matches the report's
   [solver_calls] whenever no early-stop cut the enumeration short. *)
let m_solver_calls = Metrics.counter "verify.solver_calls"
let m_orbits_checked = Metrics.counter "verify.orbits_checked"
let m_calls_saved = Metrics.counter "verify.solver_calls_saved"

(* Splice accounting for the prefix chains: a reported check answered
   by the model's local repair of its parent's plan counts as a splice; a
   failed repair that fell back to the full solver counts as a splice
   failure.  Scaffold solves are full solves made only to (re)build a
   branch prefix that some other check reports — they are bookkeeping,
   not verification work, so they get their own cell and never touch
   [solver_calls]. *)
let m_splices = Metrics.counter "verify.splices"
let m_splice_failures = Metrics.counter "verify.splice_failures"
let m_scaffold_solves = Metrics.counter "verify.scaffold_solves"

type failure = { faults : int list; reason : string; orbit : int }

type report = {
  fault_sets_checked : int;
  solver_calls : int;
  failures : failure list;
  gave_up : int;
}

(* Full solve + revalidation against the model's degraded instance,
   keeping the witness so callers can reuse it as a splice parent.  No
   metric here: the plain units reconstruct [solver_calls] during the
   merge (pruned subtrees are counted without being visited), so the
   counter is settled by the caller. *)
let solve_checked ?budget ?solve model mask =
  let outcome =
    match solve with
    | Some f -> f ~faults:mask
    | None -> Fault_model.solve ?budget model ~faults:mask
  in
  match outcome with
  | Reconfig.Pipeline p -> (
    (* The solver already validates, but re-check here so the verifier
       does not trust it (nor any [solve] override). *)
    match Fault_model.validate model ~faults:mask p.Pipeline.nodes with
    | Ok _ -> Ok p
    | Error e -> Error ("invalid witness: " ^ e))
  | Reconfig.No_pipeline -> Error "no pipeline"
  | Reconfig.Gave_up -> Error "solver gave up"

let check_mask ?budget ?solve model mask =
  Metrics.incr m_solver_calls;
  Result.map ignore (solve_checked ?budget ?solve model mask)

(* Splice-first check of [mask] = parent's faults ∪ {failed}: repair the
   parent's pipeline around [failed] with the model's local rule first
   ([Fault_model.splice] revalidates, so a positive verdict is always
   genuine), full solve on splice failure.  Negatives always come from a
   full solve, so failure reasons are exactly {!check_mask}'s.
   [reported:false] marks scaffold pushes (prefix rebuilding whose set is
   reported elsewhere). *)
let splice_checked ?budget ?solve ?(reported = true) model ~parent ~mask
    ~failed =
  match parent with
  | Ok current -> (
    match Fault_model.splice model ~current ~faults:mask ~failed with
    | Some (`Unchanged p | `Spliced p) ->
      if reported then Metrics.incr m_splices;
      Ok p
    | None ->
      if reported then Metrics.incr m_splice_failures
      else Metrics.incr m_scaffold_solves;
      solve_checked ?budget ?solve model mask)
  | Error _ ->
    (* The parent has no pipeline; tolerance is not monotone, so the
       child must still be solved from scratch. *)
    if not reported then Metrics.incr m_scaffold_solves;
    solve_checked ?budget ?solve model mask

(* A recorded failure tagged with the global rank of its fault set in the
   canonical enumeration order (sizes ascending, lexicographic within a
   size).  Every drain of a {!Task} — one domain, many, worker processes,
   checkpointed units — keeps only the lowest-ranked [max_failures] and
   lets {!merge_tagged} reconstruct the in-order report byte for byte. *)
module Topk = struct
  type entry = { rank : int; failure : failure }
  type t = { buf : entry array; mutable len : int; cap : int }

  let dummy = { rank = -1; failure = { faults = []; reason = ""; orbit = 0 } }

  let create cap =
    let cap = Stdlib.max 1 cap in
    { buf = Array.make cap dummy; len = 0; cap }

  (* In-place insertion into the rank-sorted buffer; ranks are globally
     distinct, so ties never arise. *)
  let insert t ~rank failure =
    let entry = { rank; failure } in
    if t.len < t.cap then begin
      let i = ref t.len in
      while !i > 0 && t.buf.(!i - 1).rank > rank do
        t.buf.(!i) <- t.buf.(!i - 1);
        decr i
      done;
      t.buf.(!i) <- entry;
      t.len <- t.len + 1
    end
    else if rank < t.buf.(t.cap - 1).rank then begin
      let i = ref (t.cap - 1) in
      while !i > 0 && t.buf.(!i - 1).rank > rank do
        t.buf.(!i) <- t.buf.(!i - 1);
        decr i
      done;
      t.buf.(!i) <- entry
    end

  let full t = t.len >= t.cap
  let max_rank t = t.buf.(t.len - 1).rank
  let to_list t = List.init t.len (fun i -> (t.buf.(i).rank, t.buf.(i).failure))
end

(* Merge tagged failures into a report identical to the in-order
   lexicographic one.  [counts stop] maps the early-stop rank (or [None]
   when enumeration ran to completion) to the pair
   [(fault_sets_checked, solver_calls)] — the indirection lets the
   orbit-reduced mode translate representative ranks into orbit-expanded
   set counts. *)
let merge_tagged ~max_failures ~counts per_source =
  let cap = Stdlib.max 1 max_failures in
  let all =
    List.sort (fun (a, _) (b, _) -> compare a b) (List.concat per_source)
  in
  let kept = List.filteri (fun i _ -> i < cap) all in
  let gave_up =
    List.fold_left
      (fun acc (_, f) ->
        if f.reason = "solver gave up" then acc + f.orbit else acc)
      0 kept
  in
  let checked, calls =
    if List.length all >= cap && kept <> [] then
      (* An in-order walk stops right after recording the cap-th
         failure: it has enumerated exactly the ranks up to and including
         that failure's. *)
      counts (Some (fst (List.nth kept (List.length kept - 1))))
    else counts None
  in
  {
    fault_sets_checked = checked;
    solver_calls = calls;
    failures = List.map snd kept;
    gave_up;
  }

let check_fault_set ?budget inst faults =
  check_mask ?budget (Fault_model.node inst)
    (Bitset.of_list (Instance.order inst) faults)

(* ------------------------------------------------------------------ *)
(* The enumeration core: verification tasks                            *)
(* ------------------------------------------------------------------ *)

module Task = struct
  (* Per-domain chain of solved prefix plans: [c_res.(d)] is the
     (memoised) outcome for the prefix [c_elts.(0..d-1)]; [c_len = -1]
     until the empty set has been solved.  Negative outcomes are memoised
     too — the solver is deterministic, so reusing a recorded [Error] is
     identical to re-solving.  With [c_splice = false] the chain degrades
     to a mask maintainer: every reported check is a from-scratch solve
     and scaffold pushes cost nothing. *)
  type chain = {
    c_model : Fault_model.t;
    c_solve : faults:Bitset.t -> Reconfig.outcome;
    c_splice : bool;
    c_mask : Bitset.t;
    c_elts : int array;
    c_res : (Pipeline.t, string) result array;
    mutable c_len : int;
  }

  let chain_make ~solve ~splice model =
    let k = Fault_model.max_faults model in
    {
      c_model = model;
      c_solve = solve;
      c_splice = splice;
      c_mask = Bitset.create (Fault_model.size model);
      c_elts = Array.make (Stdlib.max 1 k) (-1);
      c_res = Array.make (k + 1) (Error "unsolved");
      c_len = -1;
    }

  let chain_solve ch = solve_checked ~solve:ch.c_solve ch.c_model ch.c_mask

  (* Ensure the empty set has a plan (scaffold — the empty set is
     reported by whichever unit covers rank 0). *)
  let chain_root ch =
    if ch.c_len < 0 then begin
      if ch.c_splice then begin
        Metrics.incr m_scaffold_solves;
        ch.c_res.(0) <- chain_solve ch
      end;
      ch.c_len <- 0
    end

  let chain_push ch ~reported e =
    Bitset.add ch.c_mask e;
    let r =
      if ch.c_splice then
        splice_checked ~solve:ch.c_solve ~reported ch.c_model
          ~parent:ch.c_res.(ch.c_len) ~mask:ch.c_mask ~failed:e
      else if reported then chain_solve ch
      else Error "unsolved"
    in
    ch.c_elts.(ch.c_len) <- e;
    ch.c_res.(ch.c_len + 1) <- r;
    ch.c_len <- ch.c_len + 1;
    r

  let chain_pop ch =
    ch.c_len <- ch.c_len - 1;
    Bitset.remove ch.c_mask ch.c_elts.(ch.c_len)

  (* Align the chain to the prefix [target.(0..m-1)]: pop to the longest
     common prefix, scaffold-push the rest. *)
  let chain_align ch target m =
    chain_root ch;
    let lcp = ref 0 in
    while !lcp < ch.c_len && !lcp < m && ch.c_elts.(!lcp) = target.(!lcp) do
      incr lcp
    done;
    while ch.c_len > !lcp do
      chain_pop ch
    done;
    for i = !lcp to m - 1 do
      ignore (chain_push ch ~reported:false target.(i))
    done

  (* The three decompositions.  Plain: unit 0 covers the sets of size
     < min k 2 (the empty set, and the singletons when k >= 2), unit
     i > 0 the whole DFS subtree under [roots.(i-1)], a size-[min k 2]
     prefix — C(n, min k 2) + 1 units of comparable weight.  Sets are
     built over universe {e indices} [0..n-1] (ranks live in that index
     space) and mapped through [elts] to the model's elements.  Orbit and
     sampled: unit u is the span [u*chunk, (u+1)*chunk) of the
     representative stream in DFS preorder ([order]), resp. of the
     pre-drawn trials. *)
  type kind =
    | Plain of { elts : int array; k : int; roots : int array array }
    | Orbit of { reps : Auto.rep array; order : int array; prefix : int array }
    | Sampled of { sets : int array array }

  type t = {
    model : Fault_model.t;
    budget : int option;
    splice : bool;
    kind : kind;
    items : int;  (* fault sets (plain, sampled) or representatives *)
    chunk : int;  (* span width of orbit and sampled units *)
    nunits : int;
    min_rank : int array;
        (* per-unit lower bound on the ranks it can emit: lets drains
           skip whole units once the early-stop cutoff passes them *)
  }

  let model t = t.model
  let splice t = t.splice
  let orbit t =
    match t.kind with Orbit _ -> true | Plain _ | Sampled _ -> false
  let items t = t.items
  let nunits t = t.nunits
  let min_rank t u = t.min_rank.(u)
  let span t u = (u * t.chunk, Stdlib.min ((u + 1) * t.chunk) t.items)

  (* Target unit count for span-chunked modes.  Fixed — deliberately NOT
     a function of the domain count, which would make the decomposition
     topology-dependent and break checkpoint portability across
     [--procs]/[GDPN_DOMAINS] settings; ~256 units keeps work stealing
     effective at any plausible core count while bounding the number of
     checkpoint records. *)
  let span_unit_target = 256

  let spanned ?budget ~splice ~items kind model ~min_rank =
    let chunk =
      Stdlib.max 1 ((items + span_unit_target - 1) / span_unit_target)
    in
    let nunits = Stdlib.max 1 ((items + chunk - 1) / chunk) in
    let t =
      { model; budget; splice; kind; items; chunk; nunits; min_rank = [||] }
    in
    { t with min_rank = Array.init nunits (fun u -> min_rank (span t u)) }

  let plain_units ?budget ~splice ~elts model =
    let n = Array.length elts in
    let k = Stdlib.min (Fault_model.max_faults model) n in
    let roots =
      if k = 0 then [||]
      else if k = 1 then Array.init n (fun v -> [| v |])
      else
        Array.concat
          (List.init n (fun a ->
               Array.init (n - a - 1) (fun j -> [| a; a + 1 + j |])))
    in
    {
      model;
      budget;
      splice;
      kind = Plain { elts; k; roots };
      items = Combinat.count_up_to n k;
      chunk = 0;
      nunits = 1 + Array.length roots;
      min_rank =
        Array.append [| 0 |]
          (Array.map
             (fun r -> Combinat.rank_of_subset n r (Array.length r))
             roots);
    }

  (* Orbit×splice fusion: the representative stream is re-ordered into
     DFS preorder (lexicographic by element sequence, prefixes first)
     before span-chunking, so consecutive representatives inside a unit
     share maximal prefixes and each splices from its nearest solved
     ancestor.  Ranks stay the {e original} size-major indices, so the
     prefix-sum counts and the merged report are untouched by the
     re-ordering. *)
  let orbit_units ?budget ~splice ~reps model =
    let nreps = Array.length reps in
    let prefix = Array.make (nreps + 1) 0 in
    for i = 0 to nreps - 1 do
      prefix.(i + 1) <- prefix.(i) + reps.(i).Auto.size
    done;
    let preorder i j =
      let a = reps.(i).Auto.set and b = reps.(j).Auto.set in
      let la = Array.length a and lb = Array.length b in
      let rec go t =
        if t >= la || t >= lb then compare la lb
        else if a.(t) <> b.(t) then compare a.(t) b.(t)
        else go (t + 1)
      in
      go 0
    in
    let order = Array.init nreps Fun.id in
    Array.sort preorder order;
    spanned ?budget ~splice ~items:nreps
      (Orbit { reps; order; prefix })
      model
      ~min_rank:(fun (lo, hi) ->
        let m = ref max_int in
        for pos = lo to hi - 1 do
          m := Stdlib.min !m order.(pos)
        done;
        !m)

  let exhaustive ?budget ?universe ?symmetry ?(splice = true) ?model inst =
    let model = Fault_model.resolve model inst in
    (match symmetry with
    | Some group when Auto.degree group <> Instance.order inst ->
      invalid_arg "Verify.exhaustive: symmetry group degree <> instance order"
    | Some _ | None -> ());
    let universe = Option.map Array.of_list universe in
    (* The caller hands the instance's node group; its action on the
       model's universe is what the orbit machinery needs. *)
    match Option.map (Fault_model.induced_symmetry model) symmetry with
    | Some group when not (Auto.is_trivial group) ->
      let reps =
        Auto.fault_orbits ?universe group
          ~max_size:(Fault_model.max_faults model)
      in
      orbit_units ?budget ~splice ~reps model
    | Some _ | None ->
      let elts =
        match universe with
        | Some u -> u
        | None -> Array.init (Fault_model.size model) Fun.id
      in
      plain_units ?budget ~splice ~elts model

  (* The whole trial sequence is drawn up front, so the sets are the same
     whichever domains end up solving them.  Sampled sets share no prefix
     structure: each is checked from scratch. *)
  let sampled ~rng ~trials ?budget ?model inst =
    let model = Fault_model.resolve model inst in
    let usize = Fault_model.size model in
    let k = Fault_model.max_faults model in
    let sets =
      Array.init (Stdlib.max 0 trials) (fun _ ->
          Combinat.sample_up_to rng usize k)
    in
    spanned ?budget ~splice:false ~items:(Array.length sets)
      (Sampled { sets }) model ~min_rank:fst

  (* A domain's solver: one ctx (domain-local, see {!Reconfig.cached_ctx})
     serves the base instance and every link-degraded one, since ctx
     scratch is sized by graph order, which degradation preserves. *)
  let domain_solver ?budget model =
    let ctx = Reconfig.cached_ctx (Fault_model.instance model) in
    fun ~faults -> Fault_model.solve ?budget ~ctx model ~faults

  let processor ?solve t =
    let solve =
      match solve with
      | Some f -> f
      | None -> domain_solver ?budget:t.budget t.model
    in
    let ch = chain_make ~solve ~splice:t.splice t.model in
    match t.kind with
    | Plain { elts; k; roots } ->
      let n = Array.length elts in
      fun ~record ~cutoff u ->
        let fail buf len reason =
          let faults = List.init len (fun i -> elts.(buf.(i))) in
          record
            ~rank:(Combinat.rank_of_subset n buf len)
            { faults; reason; orbit = 1 }
        in
        if u = 0 then begin
          chain_root ch;
          while ch.c_len > 0 do
            chain_pop ch
          done;
          (match if ch.c_splice then ch.c_res.(0) else chain_solve ch with
          | Ok _ -> ()
          | Error reason -> fail [||] 0 reason);
          if k >= 2 then
            for v = 0 to n - 1 do
              if 1 + v <= cutoff () then begin
                (match chain_push ch ~reported:true elts.(v) with
                | Ok _ -> ()
                | Error reason -> fail [| v |] 1 reason);
                chain_pop ch
              end
            done
        end
        else begin
          let root = roots.(u - 1) in
          let d = Array.length root in
          if Combinat.rank_of_subset n root d <= cutoff () then begin
            chain_align ch (Array.map (fun i -> elts.(i)) root) (d - 1);
            Combinat.iter_subsets_dfs ~root n k
              ~enter:(fun buf len ->
                let e = elts.(buf.(len - 1)) in
                let co = cutoff () in
                if co < max_int && Combinat.rank_of_subset n buf len > co
                then begin
                  (* Pruned: push a placeholder so [leave]'s pop pairs
                     up; no child ever reads it. *)
                  Bitset.add ch.c_mask e;
                  ch.c_elts.(ch.c_len) <- e;
                  ch.c_res.(ch.c_len + 1) <- Error "pruned";
                  ch.c_len <- ch.c_len + 1;
                  false
                end
                else begin
                  (match chain_push ch ~reported:true e with
                  | Ok _ -> ()
                  | Error reason -> fail buf len reason);
                  true
                end)
              ~leave:(fun _ _ -> chain_pop ch)
          end
        end
    | Orbit { reps; order; prefix = _ } ->
      fun ~record ~cutoff u ->
        let lo, hi = span t u in
        for pos = lo to hi - 1 do
          let i = order.(pos) in
          if i <= cutoff () then begin
            let { Auto.set; size } = reps.(i) in
            let m = Array.length set in
            Metrics.incr m_orbits_checked;
            Metrics.add m_calls_saved (size - 1);
            Metrics.incr m_solver_calls;
            let r =
              if m = 0 then begin
                if ch.c_len < 0 then begin
                  ch.c_res.(0) <- chain_solve ch;
                  ch.c_len <- 0
                end
                else if not ch.c_splice then begin
                  while ch.c_len > 0 do
                    chain_pop ch
                  done;
                  ch.c_res.(0) <- chain_solve ch
                end;
                ch.c_res.(0)
              end
              else begin
                chain_align ch set (m - 1);
                chain_push ch ~reported:true set.(m - 1)
              end
            in
            match r with
            | Ok _ -> ()
            | Error reason ->
              record ~rank:i { faults = Array.to_list set; reason; orbit = size }
          end
        done
    | Sampled { sets } ->
      fun ~record ~cutoff u ->
        let lo, hi = span t u in
        for i = lo to hi - 1 do
          if i <= cutoff () then begin
            let buf = sets.(i) in
            Bitset.clear ch.c_mask;
            Array.iter (Bitset.add ch.c_mask) buf;
            match check_mask ~solve t.model ch.c_mask with
            | Ok () -> ()
            | Error reason ->
              record ~rank:i { faults = Array.to_list buf; reason; orbit = 1 }
          end
        done

  let counts t stop =
    let calls = match stop with Some r -> r + 1 | None -> t.items in
    match t.kind with
    | Orbit { prefix; _ } -> (prefix.(calls), calls)
    | Plain _ | Sampled _ -> (calls, calls)

  let merge t ~max_failures sources =
    let report = merge_tagged ~max_failures ~counts:(counts t) sources in
    (* Plain units bump no per-check counter (pruned subtrees are counted
       without being visited, scaffolds are not checks), so the
       choke-point counter is settled against the merged report. *)
    (match t.kind with
    | Plain _ -> Metrics.add m_solver_calls report.solver_calls
    | Orbit _ | Sampled _ -> ());
    report

  (* Every unit in order on the calling domain: the one-domain case of
     a parallel drain, with the same skip rule. *)
  let drain ?solve ?(max_failures = 5) t =
    let kept = Topk.create max_failures in
    let cutoff = ref max_int in
    let record ~rank failure =
      Topk.insert kept ~rank failure;
      if Topk.full kept then cutoff := Topk.max_rank kept
    in
    let process = processor ?solve t in
    for u = 0 to t.nunits - 1 do
      if t.min_rank.(u) <= !cutoff then
        process ~record ~cutoff:(fun () -> !cutoff) u
    done;
    merge t ~max_failures [ Topk.to_list kept ]
end

let exhaustive ?budget ?solve ?max_failures ?universe ?symmetry ?splice ?model
    inst =
  Task.drain ?solve ?max_failures
    (Task.exhaustive ?budget ?universe ?symmetry ?splice ?model inst)

let expanded_failure_sets ~symmetry r =
  List.sort compare
    (List.concat_map
       (fun { faults; orbit = _; reason = _ } ->
         List.map Array.to_list
           (Auto.orbit_of_set symmetry (Array.of_list faults)))
       r.failures)

let sampled ~rng ~trials ?budget ?solve ?max_failures ?model inst =
  Task.drain ?solve ?max_failures
    (Task.sampled ~rng ~trials ?budget ?model inst)

let check_model_set ?budget model indices =
  let usize = Fault_model.size model in
  List.iter
    (fun i ->
      if i < 0 || i >= usize then
        invalid_arg "Verify.check_model_set: universe index out of range")
    indices;
  Metrics.incr m_solver_calls;
  solve_checked ?budget model (Bitset.of_list usize indices)

let is_k_gd r = r.failures = [] && r.gave_up = 0

let breaking_fault_set ?budget ?max_size inst =
  let order = Instance.order inst in
  let max_size = Option.value max_size ~default:(inst.Instance.k + 1) in
  let model = Fault_model.node inst in
  let mask = Bitset.create order in
  let found = ref None in
  (try
     for size = 0 to min max_size order do
       Combinat.iter_choose order size (fun buf ->
           Bitset.clear mask;
           Array.iter (Bitset.add mask) buf;
           match check_mask ?budget model mask with
           | Ok () -> ()
           | Error _ ->
             found := Some (Array.to_list buf);
             raise Exit)
     done
   with Exit -> ());
  !found

let tolerance ?budget ?cap inst =
  let cap = Option.value cap ~default:(inst.Instance.k + 1) in
  match breaking_fault_set ?budget ~max_size:cap inst with
  | Some witness -> List.length witness - 1
  | None -> cap

let pp_summary describe ppf r =
  Format.fprintf ppf "checked %d fault sets%s: %s" r.fault_sets_checked
    (if r.solver_calls < r.fault_sets_checked then
       Format.asprintf " (%d orbit representatives solved)" r.solver_calls
     else "")
    (if is_k_gd r then "all tolerated"
     else
       Format.asprintf "%d failures (first: %s%s — %s)%s"
         (List.length r.failures)
         (match r.failures with
         | { faults; _ } :: _ -> describe faults
         | [] -> "{}")
         (match r.failures with
         | { orbit; _ } :: _ when orbit > 1 ->
           Format.asprintf " ×%d orbit" orbit
         | _ -> "")
         (match r.failures with { reason; _ } :: _ -> reason | [] -> "")
         (if r.gave_up > 0 then Format.asprintf " (%d gave up)" r.gave_up
          else ""))

let pp_report =
  pp_summary (fun faults ->
      "{" ^ String.concat "," (List.map string_of_int faults) ^ "}")

let pp_report_in model = pp_summary (Fault_model.describe model)
