(** The engine layer: reusable solver state, fault-plan caching, and
    multicore verification.

    {b Why it exists.}  Everything expensive in this repository reduces to
    "solve the reconfiguration problem for one fault set", repeated at
    scale: exhaustive verification enumerates [C(order, <=k)] fault sets,
    certification witnesses each of them, the simulator re-solves on every
    mid-run fault, and the adversarial search probes thousands of candidate
    sets.  The seed implementation re-ran {!Gdpn_core.Reconfig.solve} from
    scratch each time, allocating fresh search state per call and using one
    core.  The engine fixes all three axes:

    - {b ctx reuse} — one {!Gdpn_core.Reconfig.make_ctx} per engine; the
      backtracker's bitsets and degree scratch are allocated once;
    - {b fault-plan cache} — solved outcomes are cached in a hashtable
      keyed on the fault masks themselves ({!Gdpn_graph.Bitset.hash} /
      [equal]), so hits allocate nothing.  On a miss the engine first
      tries to {e splice} a plan from a cached one-fault-smaller
      predecessor ({!Gdpn_core.Repair.patch}) — cheap local repair first,
      global re-solve second, mirroring the paper's §4 reconfiguration
      discussion;
    - {b domain sharding} ({!Parallel}) — fault-space enumeration fanned
      out over OCaml 5 domains with per-domain ctxs and deterministic
      result merging.

    Every entry point works over a {!Gdpn_core.Fault_model}: an optional
    [?model] names the fault universe (nodes, links, colour classes,
    neighborhoods) and defaults to the node model, the paper's.  There
    is one implementation of each operation; the node model is simply
    the default instance of it.

    Since PR 9 the fault-plan cache is a {!Shard_cache}: N hash-sharded
    slices with a lock-free read path and per-shard writer locks, bounded
    at [cache_limit] entries with oldest-first eviction.  The cache is
    therefore safe to share between domains — but an [Engine.t] {e as a
    whole} still is not (its solver ctx and scratch masks are
    single-domain).  {!reader} derives a domain-private handle over the
    same shared cache; {!Parallel} builds per-domain state internally. *)

type t

type stats = {
  mutable lookups : int;  (** cached-solve calls *)
  mutable cache_hits : int;  (** answered from the plan cache *)
  mutable splices : int;  (** derived from a cached predecessor plan *)
  mutable full_solves : int;  (** full strategy-solver runs *)
}

val create :
  ?budget:int -> ?cache_limit:int -> ?shards:int -> Gdpn_core.Instance.t -> t
(** [budget] bounds solver expansions per solve (default 2_000_000);
    [cache_limit] bounds retained plans (default 65536 — at the bound the
    cache evicts its oldest resident to admit the new plan, counted in
    [engine.cache_evictions]); [shards] is the cache's shard count
    (default {!Shard_cache.default_shards}, rounded up to a power of
    two). *)

val reader : t -> t
(** A domain-private handle on the same instance and the {e same shared
    plan caches}: fresh solver ctx, scratch masks and {!stats}; cache
    hits, splices and inserts flow through the shared sharded tables.
    [K] readers on [K] domains may solve concurrently — this is how the
    [gdpd] daemon's worker domains serve one warm cache in parallel.
    The parent and its readers must not be used from two domains at
    once {e individually}; sharing is only through the caches. *)

val instance : t -> Gdpn_core.Instance.t
val budget : t -> int

val solve :
  ?cache:bool ->
  ?model:Gdpn_core.Fault_model.t ->
  t ->
  faults:Gdpn_graph.Bitset.t ->
  Gdpn_core.Reconfig.outcome
(** Like {!Gdpn_core.Reconfig.solve} but through the engine: plan cache,
    splice-before-solve, ctx reuse.  [faults] is a mask over [model]'s
    universe; [model] (default: the node model, the paper's node faults)
    must be built over this engine's instance ([Invalid_argument]
    otherwise).  Plans are cached per model — the effective key is
    [(Fault_model.id, mask)]; the node model's table is a plain field, so
    its cache hits take no lock and allocate nothing, while the other
    models' tables are created on first use.  The splice probe repairs
    cached one-element-smaller predecessors through the model's local
    rule ({!Gdpn_core.Fault_model.splice}).  [~cache:false] bypasses
    lookup, splice and insertion (still reuses the ctx) — verification
    uses this so its verdicts are exactly the plain solver's.  Spliced
    witnesses are revalidated before being returned, so a [Pipeline]
    outcome is always genuine. *)

val solve_list :
  ?cache:bool -> t -> faults:int list -> Gdpn_core.Reconfig.outcome

val stats : t -> stats

val cache_size : t -> int
(** Residents in the node-model plan table. *)

val cache_total : t -> int
(** Residents across every plan table (node model + generalized
    models). *)

val cache_capacity : t -> int
(** Total bound of the node-model table (per-shard capacity × shards;
    each model table has the same bound). *)

val cache_evictions : t -> int
(** Evictions performed by this engine's tables since creation (the
    process-wide twin is the [engine.cache_evictions] counter). *)

val cache_shard_stats : t -> (int * int) array
(** Per-shard [(residents, evictions)] of the node-model table — the
    occupancy map shown by [gdp stats] and the daemon's stats
    response. *)

val attach_store : t -> path:string -> (unit, string) result
(** Mmap a precompiled {!Plan_store} as the L2 tier: cached solves
    probe L1 ({!Shard_cache}) first, then the store — canonicalizing the
    fault set and transporting the stored plan through the automorphism
    when the store is orbit-compressed — and only then splice/solve; a
    store hit is promoted into L1.  Fails if the store's digest does not
    match this engine's instance.  The attachment is shared with every
    {!reader} of this engine (that is how the daemon's worker domains
    see it); concurrent lookups are safe, the store is immutable.
    Transported and stored plans are revalidated before being served, so
    a corrupt or tampered store degrades to the solve path — it can
    never produce a wrong plan. *)

val detach_store : t -> unit
(** Drop the L2 tier (chaos harness: the store file "vanishes"
    mid-storm).  Subsequent solves fall back to L1/solve.  Idempotent. *)

val plan_store : t -> Plan_store.t option
(** The attached store, for stats display. *)

val cache_trim : t -> keep:int -> unit
(** Evict oldest-first until every plan table holds at most [keep]
    entries; removals count as evictions.  The chaos harness's
    mid-storm cache-eviction event.  [~keep:0] forces a full
    eviction-path flush (unlike {!crash_restart}, which models losing
    the tables wholesale). *)

val reset : t -> unit
(** Drop all cached plans and zero the counters. *)

val crash_restart : t -> unit
(** Simulate an engine process crash and restart: drop every cached plan
    (the in-memory state a real restart loses) but keep the cumulative
    {!stats} — they model external monitoring, which survives restarts.
    Subsequent solves rebuild the cache from scratch; bumps the
    [engine.crash_restarts] metric.  The chaos harness
    ([Gdpn_faultsim.Scenario]) injects this to check plan-cache coherence
    across cold restarts. *)

val verify_exhaustive :
  ?max_failures:int ->
  ?universe:int list ->
  ?symmetry:Gdpn_graph.Auto.group ->
  ?splice:bool ->
  ?model:Gdpn_core.Fault_model.t ->
  t ->
  Gdpn_core.Verify.report
(** {!Gdpn_core.Verify.exhaustive} through the engine's ctx (uncached
    checks; see {!solve}).  [symmetry] is the node group and enables
    orbit-reduced enumeration under its induced action on [model]'s
    universe; [splice] (default true) the prefix-tree splice-first
    enumeration; [model] as in {!solve}. *)

val verify_sampled :
  seed:int ->
  trials:int ->
  ?max_failures:int ->
  ?model:Gdpn_core.Fault_model.t ->
  t ->
  Gdpn_core.Verify.report
(** {!Gdpn_core.Verify.sampled} through the engine's ctx.  The RNG is
    derived from the explicit [seed] alone — never from instance
    parameters, which would correlate the fault-sample sequences of
    same-order instances. *)

val certify :
  ?model:Gdpn_core.Fault_model.t -> ?symmetry:bool -> t -> out_channel -> unit
(** Write a certificate ({!Gdpn_core.Certify.write}) for [model] (default
    the node model) through the cached solver: witnesses splice from
    cached one-element-smaller predecessors whenever the model's local
    repair rule applies.  By default the instance's symmetry group is
    computed and, when nontrivial, one witness per orbit is written; pass
    [~symmetry:false] to witness every fault set. *)

val attack :
  rng:Random.State.t ->
  ?restarts:int ->
  ?model:Gdpn_core.Fault_model.t ->
  t ->
  Gdpn_core.Attack.finding
(** {!Gdpn_core.Attack.worst_case} on this engine's instance (the attack
    probes measure the {e generic} solver and manage their own ctx).
    With [model], best-response search over the model's universe. *)

val pp_stats : Format.formatter -> stats -> unit

(** Multicore verification: the scheduling half of the one enumeration
    core.  {!Gdpn_core.Verify.Task} decomposes the fault space into
    rank-tagged work units and {!Gdpn_core.Verify.exhaustive} drains them
    in order on one domain; this module drains the same units over OCaml
    5 domains, worker processes ({!Mp}) and checkpoints.  Each drain
    keeps only its lowest-ranked failures and the rank merge reproduces
    the in-order report — failure list, early-stop count and gave-up
    tally — byte for byte, under any domain or process count. *)
module Parallel : sig
  val default_domains : unit -> int
  (** [GDPN_DOMAINS] when set to a positive integer, otherwise
      [Domain.recommended_domain_count () - 1], at least 1. *)

  val verify_exhaustive :
    ?budget:int ->
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    ?symmetry:Gdpn_graph.Auto.group ->
    ?splice:bool ->
    ?model:Gdpn_core.Fault_model.t ->
    Gdpn_core.Instance.t ->
    Gdpn_core.Verify.report
  (** Check every fault set of size [0..k] of [model]'s universe
      (default: the node model; a model built over another instance
      raises [Invalid_argument]).  The space is split into one
      shallow unit (the sets of size < min k 2) plus one DFS-subtree unit
      per size-[min k 2] prefix — units of comparable weight, unlike the
      old (size, first-element) blocks whose first block held about half
      the space.  Units are drained through a work-stealing scheduler:
      each of the [domains] workers (the calling domain included) owns a
      contiguous span with its own atomic index, visits it in order —so
      its chain of solved prefix plans (see [splice]) pops and re-grows by a
      few elements per unit — and steals from the other spans when its
      own runs dry.  Steal counts land in [engine.parallel_steals] and on
      each shard's trace span.

      [splice] (default true) gives every worker a per-branch stack of
      solved plans, patching each fault set from its parent
      ({!Gdpn_core.Fault_model.splice}) before falling back to the full
      solver, with the same exactness argument as
      [Verify.exhaustive] (positives revalidated, negatives always from
      a full solve).

      Worker domains come from a process-wide persistent pool: they are
      spawned lazily on first use, parked on a condition variable between
      calls, and joined at process exit — repeated verifications pay no
      per-call [Domain.spawn].  When the enumeration divides out to fewer
      than [min_items_per_domain] items per domain (default 512, or
      [GDPN_MIN_ITEMS_PER_DOMAIN]), the call degrades to the serial path
      on the calling domain: same report, none of the fan-out cost — this
      is what keeps multi-domain requests on small instances from losing
      to the one-domain drain.  Pass [~min_items_per_domain:0] to
      force real sharding regardless of size (benchmarks, tests).

      [symmetry] is the instance's {e node} group; its induced action on
      the model's universe drives orbit reduction.  With a nontrivial
      group, only orbit representatives are sharded — fewer but
      individually heavier work items, so the units are small contiguous
      chunks of the representative array; the per-domain chain splices
      each representative from its nearest solved ancestor.  Counts are
      orbit-expanded through prefix sums during the merge; the result
      equals [Verify.exhaustive ~symmetry] field for field.  All domains
      share one model (its degraded-instance cache is mutex-protected). *)

  val verify_sampled :
    seed:int ->
    trials:int ->
    ?budget:int ->
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    ?model:Gdpn_core.Fault_model.t ->
    Gdpn_core.Instance.t ->
    Gdpn_core.Verify.report
  (** Sampled verification over [model]'s universe (default: the node
      model): the full trial sequence is drawn up front from
      [seed] on one RNG ({!Gdpn_core.Verify.Task.sampled}, the same
      stream as [Verify.sampled] on [Random.State.make [| seed |]]),
      then only the solving is sharded.  [min_items_per_domain] as in
      {!verify_exhaustive}. *)

  (** {!Gdpn_core.Verify.Task}, the enumeration core's canonical unit
      decomposition, plus the checkpoint header that pins its spec.
      Because the decomposition never depends on the domain or process
      count, a checkpoint written under one topology resumes under any
      other, and an out-of-process worker ({!Mp}) rebuilds the identical
      unit array from the spec on its command line. *)
  module Task : sig
    include module type of struct
      include Gdpn_core.Verify.Task
    end

    val header : t -> max_failures:int -> Checkpoint.header
    (** The checkpoint header pinning this task's spec: instance digest
        ({!Gdpn_core.Certify.digest}), model, mode and unit count. *)
  end

  val run_task :
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    ?checkpoint:Checkpoint.writer ->
    ?resumed:(int, Codec.unit_result) Hashtbl.t ->
    Task.t ->
    Gdpn_core.Verify.report
  (** Drain a task's units over the domain pool (the machinery behind
      {!verify_exhaustive}).  With [checkpoint], one {!Codec.unit_result}
      frame is appended the moment each unit drains (capped at
      [max_failures] entries — higher ranks can never reach a merged
      report); cutoff-skipped units are not recorded, since their
      justification may still be in flight.  With [resumed] (from
      {!Checkpoint.load}), recorded units are skipped, their entries seed
      the early-stop cutoff and join the final merge — the resumed report
      is byte-identical to an uninterrupted run's, under any domain or
      process count.  Bumps [verify.units_resumed]. *)
end
