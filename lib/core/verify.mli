(** k-graceful-degradability verification.

    [GD(G, k)] quantifies over {e every} fault set of size at most [k] —
    and, because a pipeline must use all healthy processors, tolerance is
    {e not} monotone in the fault set: exhaustive mode therefore enumerates
    every subset of every size [0..k], not just the maximal ones. *)

type failure = {
  faults : int list;  (** the offending fault set *)
  reason : string;  (** why it failed (no pipeline / solver gave up) *)
  orbit : int;
      (** number of fault sets this failure stands for: 1 in plain modes;
          the orbit size under the symmetry group in orbit-reduced mode
          (then [faults] is the orbit's min-lex representative) *)
}

type report = {
  fault_sets_checked : int;
      (** fault sets covered, orbit-expanded in symmetry mode *)
  solver_calls : int;
      (** solver invocations actually made; equals [fault_sets_checked]
          except in orbit-reduced mode, where it counts representatives *)
  failures : failure list;  (** at most [max_failures], in discovery order *)
  gave_up : int;  (** fault sets where the solver exhausted its budget *)
}

val exhaustive :
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  ?max_failures:int ->
  ?universe:int list ->
  ?symmetry:Gdpn_graph.Auto.group ->
  ?splice:bool ->
  ?model:Fault_model.t ->
  Instance.t ->
  report
(** Check every fault set of size [0..k] drawn from the fault model's
    universe.  [model] (default {!Fault_model.node} of the instance, the
    paper's node faults) must be built over this instance
    ([Invalid_argument] otherwise); fault sets are subsets of its
    universe, so [failure.faults] holds universe indices (node ids for
    the node model; render others with {!Fault_model.describe}).

    [universe] restricts the elements drawn (default: the whole
    universe; pass [Instance.processors t] for the merged-terminal
    node model where I/O devices are fault-free).  [max_failures]
    (default 5) bounds the retained counterexamples; enumeration stops
    early once reached.  [solve] overrides the per-set solver (the
    engine passes its context-reusing solver); witnesses are revalidated
    against the degraded instance regardless, so a dishonest override
    cannot make verification pass.

    [symmetry] (typically [Instance.symmetry inst]) is the instance's
    node group and switches to orbit-reduced enumeration under its
    induced action on the universe ({!Fault_model.induced_symmetry}):
    only one representative per orbit is solved, [fault_sets_checked]
    and [gave_up] are scaled by orbit sizes, and failures carry their
    orbit size.  The verdict ({!is_k_gd}) is unchanged because group
    elements preserve fault-set solvability.  A trivial group degrades
    to the plain path.  Raises [Invalid_argument] if the group's degree
    differs from the instance order or [universe] is not
    group-invariant.

    [splice] (default [true]) enumerates the fault space as a prefix
    tree, keeping a per-branch stack of solved plans: each child set is
    first repaired from its parent's pipeline by the model's local rule
    ({!Fault_model.splice}, which revalidates — a positive verdict is
    always genuine) and only solved from scratch when the splice fails.
    Negatives always come from a full solve, so the report is identical
    to [~splice:false] field for field (the one theoretical exception:
    with a finite [budget], a splice can succeed where the budgeted
    solver would have given up — the default budget is unbounded, and
    [gdp verify --crosscheck] guards budgeted runs).  In orbit-reduced
    mode the representatives' shared prefixes form the chain, and each
    representative is patched from its nearest solved ancestor.

    This is {!Task.exhaustive} drained unit by unit, in order, on the
    calling domain; [Engine.Parallel] drains the same task over many
    domains or processes. *)

val expanded_failure_sets :
  symmetry:Gdpn_graph.Auto.group -> report -> int list list
(** All concrete fault sets the report's failures stand for: each failure
    orbit-expanded under [symmetry], sorted.  With the trivial group this
    is just the failures' fault sets, so it is safe to apply uniformly
    when cross-checking orbit-reduced runs against plain ones. *)

val sampled :
  rng:Random.State.t ->
  trials:int ->
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  ?max_failures:int ->
  ?model:Fault_model.t ->
  Instance.t ->
  report
(** Check [trials] fault sets drawn uniformly from the model's universe
    (size uniform on [0..k], contents uniform for that size); [model] as
    in {!exhaustive}.  Callers must thread an explicitly chosen seed into
    [rng] — deriving it from instance parameters silently correlates the
    fault-sample sequences of same-order instances.  All [trials] sets
    are drawn from [rng] up front ({!Task.sampled}). *)

val is_k_gd : report -> bool
(** True when no failures occurred and the solver never gave up, i.e. the
    checked fault space is fully tolerated. *)

val breaking_fault_set :
  ?budget:int -> ?max_size:int -> Instance.t -> int list option
(** The lexicographically-first smallest fault set that defeats the
    instance, searching sizes [0..max_size] (default [k + 1]).  For a
    node-optimal k-GD graph the answer always has size exactly [k+1]
    (e.g. all [k+1] input terminals), which {!tolerance} exploits. *)

val tolerance : ?budget:int -> ?cap:int -> Instance.t -> int
(** The exact structural fault tolerance: the largest [t] such that every
    fault set of size at most [t] is tolerated, determined by exhaustive
    search up to [cap] (default [k + 1]; the search is exponential in the
    answer).  For the paper's constructions this equals [k]: node-optimal
    graphs cannot tolerate [k+1] faults, and the tests assert both
    directions. *)

val check_fault_set : ?budget:int -> Instance.t -> int list -> (unit, string) result
(** Check one fault set: solve and revalidate the witness. *)

val check_mask :
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  Fault_model.t ->
  Gdpn_graph.Bitset.t ->
  (unit, string) result
(** Check one fault set, a mask over the model's universe: solve through
    {!Fault_model.solve} and revalidate the witness on the degraded
    instance.  [solve] overrides the solver call (the engine layer passes
    its context-reusing solver here); the returned witness is
    revalidated regardless, so a dishonest override cannot make
    verification pass.  Counts in [verify.solver_calls]. *)

val solve_checked :
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  Fault_model.t ->
  Gdpn_graph.Bitset.t ->
  (Pipeline.t, string) result
(** {!check_mask} keeping the validated witness (for reuse as a splice
    parent).  Does {e not} touch the [verify.solver_calls] counter:
    prefix-tree callers settle it against the merged report instead. *)

val splice_checked :
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  ?reported:bool ->
  Fault_model.t ->
  parent:(Pipeline.t, string) result ->
  mask:Gdpn_graph.Bitset.t ->
  failed:int ->
  (Pipeline.t, string) result
(** Splice-first check of [mask] = parent's faults ∪ {[failed]} ([failed]
    a universe index): repair the parent's pipeline with the model's
    local rule ({!Fault_model.splice}, revalidated, so positives are
    genuine), full solve on splice failure or when the parent has no
    pipeline (tolerance is not monotone).  Negatives always come from a
    full solve, so failure reasons match {!check_mask} exactly.
    [reported] (default [true]) selects the metric cells: reported checks
    feed [verify.splices]/[verify.splice_failures], scaffold pushes feed
    [verify.scaffold_solves]. *)

(** Rank-tagged bounded failure buffer: keeps the [cap] lowest-ranked
    failures seen, where a rank is the fault set's position in the
    canonical enumeration order ({!Gdpn_graph.Combinat.rank_of_subset}).
    Out-of-order drains of a {!Task} (one per domain, process or
    checkpointed unit) feed one of these per source and reconstruct the
    canonical report with {!merge_tagged}. *)
module Topk : sig
  type t

  val create : int -> t
  (** [create cap] holds at most [max 1 cap] entries. *)

  val insert : t -> rank:int -> failure -> unit
  val full : t -> bool

  val max_rank : t -> int
  (** Highest retained rank; only meaningful when {!full}. *)

  val to_list : t -> (int * failure) list
  (** Retained entries, rank-ascending. *)
end

val merge_tagged :
  max_failures:int ->
  counts:(int option -> int * int) ->
  (int * failure) list list ->
  report
(** Merge rank-tagged failures from any number of sources into the report
    an in-order enumeration would have produced: the lowest-ranked
    [max 1 max_failures] failures are kept in rank order, and
    [counts stop] maps the early-stop rank ([None] when enumeration ran
    to completion) to [(fault_sets_checked, solver_calls)] — the
    indirection lets orbit-reduced callers translate representative ranks
    into orbit-expanded totals. *)

val pp_report : Format.formatter -> report -> unit
(** The one-line summary [gdp verify] prints, fault sets as node ids
    ([{3,7}]). *)

val pp_report_in : Fault_model.t -> Format.formatter -> report -> unit
(** {!pp_report} with fault sets in the model's element syntax
    ({!Fault_model.describe}); identical to it for the node model. *)

val check_model_set :
  ?budget:int -> Fault_model.t -> int list -> (Pipeline.t, string) result
(** Check one explicit fault set given as universe indices, keeping the
    witness pipeline (the CLI's [--faults] debugging aid).  Raises
    [Invalid_argument] on an out-of-range index. *)

(** The enumeration core: one verification problem decomposed into a
    canonical array of work units.  The decomposition is a function of
    the instance and mode alone — never of the domain or process count
    — so {!exhaustive} drains it in order on the calling domain, while
    [Engine.Parallel] drains it over domains, worker processes and
    checkpoints, and every drain merges into the same report.

    Each unit reports failures tagged with their rank in the canonical
    order (sizes ascending, lexicographic within a size, over universe
    indices; orbit representatives in {!Gdpn_graph.Auto.fault_orbits}
    order), and polls an early-stop cutoff to skip sets that can no
    longer reach the report. *)
module Task : sig
  type t

  val exhaustive :
    ?budget:int ->
    ?universe:int list ->
    ?symmetry:Gdpn_graph.Auto.group ->
    ?splice:bool ->
    ?model:Fault_model.t ->
    Instance.t ->
    t
  (** The units behind {!Verify.exhaustive} (arguments as there).  Plain
      mode: one unit for the sets of size < [min k 2], plus one
      DFS-subtree unit per size-[min k 2] prefix.  With a nontrivial
      [symmetry] group: fixed-granularity spans of the orbit
      representatives re-ordered into DFS preorder ({e orbit×splice
      fusion}: consecutive representatives share maximal prefixes, so
      each splices from its nearest solved ancestor, while ranks — and
      therefore counts and the merged report — stay the canonical
      size-major indices). *)

  val sampled :
    rng:Random.State.t ->
    trials:int ->
    ?budget:int ->
    ?model:Fault_model.t ->
    Instance.t ->
    t
  (** The units behind {!Verify.sampled}: all [trials] sets are drawn
      from [rng] here, then chunked into spans. *)

  val model : t -> Fault_model.t
  val orbit : t -> bool
  (** Orbit-reduced units. *)

  val splice : t -> bool

  val items : t -> int
  (** Fault sets to check (orbit mode: representatives). *)

  val nunits : t -> int

  val min_rank : t -> int -> int
  (** Lower bound on the ranks unit [u] can emit — lets a drain skip the
      whole unit once the early-stop cutoff drops below it. *)

  val processor :
    ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
    t ->
    record:(rank:int -> failure -> unit) ->
    cutoff:(unit -> int) ->
    int ->
    unit
  (** [processor t] builds one domain's solver and prefix-chain state;
      the returned function processes one unit id per call, reporting
      rank-tagged failures through [record] and polling [cutoff] for the
      current early-stop bound.  Unit ids may arrive in any order (the
      chain re-aligns).  [solve] overrides the solver as in {!exhaustive}
      and is then called from this processor's domain only. *)

  val merge : t -> max_failures:int -> (int * failure) list list -> report
  (** Deterministic rank merge of per-source entry lists (per-domain
      buffers, per-unit checkpoint records, per-worker streams — any
      mix) into the canonical report. *)
end
