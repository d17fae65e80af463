(** Verifiable certificates of k-graceful-degradability.

    [Verify.exhaustive] proves the property by running the solver over the
    whole fault space — trusting the solver's completeness on the negative
    side.  A {e certificate} removes that trust for the positive claim: it
    records one explicit pipeline witness per fault-set orbit, and a third
    party can check the claim by validating each witness against the
    paper's pipeline definition alone (no search, no solver).  Checking
    costs O(witness length) per fault set.

    One binary format, written record by record to a channel so
    witnesses never accumulate in memory.  Every integer is an unsigned
    LEB128 varint; a string is its length then its bytes:

    {v
    "gdpn-cert 5\n"                  magic
    string  digest                   {!digest} of the instance
    string  model                    {!Fault_model.name}
    varint  sets                     fault sets covered
    varint  ngens                    then ngens node permutations,
                                     [order] varints each
    varint  records                  then records of:
      varint len, len gap varints    the fault set (universe indices,
                                     ascending, delta-encoded)
      varint orbit size
      varint nnodes, nnodes varints  the witness pipeline
    v}

    With no generators every record is one fault set, in canonical order
    (size, then lexicographic).  With generators each record is the least
    member of one orbit of their induced action on the fault model's
    universe ({!Fault_model.induced_symmetry}), in the same order. *)

val write :
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  ?symmetry:Gdpn_graph.Auto.group ->
  Fault_model.t ->
  out_channel ->
  unit
(** Solve one fault set per orbit of [symmetry] (the instance's node
    group, typically [Instance.symmetry inst]; absent or trivial: every
    fault set) over the model's universe, and write the certificate.  By
    default one reusable search context ({!Reconfig.make_ctx}) serves the
    whole enumeration; [solve] overrides the solver — the engine layer
    passes its plan-cached solver, which splices most witnesses from their
    one-element-smaller predecessors instead of re-searching.  Each record
    bumps [certify.records_streamed].  With a nontrivial group the orbit
    representatives are enumerated up front ({!Gdpn_graph.Auto.fault_orbits},
    memory proportional to the number of fault sets).  Raises [Failure]
    if some fault set has no pipeline (the instance does not tolerate the
    model, so no certificate exists). *)

val check : Instance.t -> string -> (int, string) result
(** Validate a certificate against an instance without a solver:
    - the digest must match and the model name must be known;
    - every generator must be a graph automorphism that preserves node
      kinds or swaps the input and output classes wholesale;
    - the checker re-derives each record's orbit itself: the record's set
      must be its least member, and every member's witness, carried along
      the permutation, must validate ({!Fault_model.validate});
    - records must strictly increase in canonical order, and their orbit
      sizes must sum to the declared count, which must be the model's.

    Memory is O(largest orbit); every decoded count is bounded by the
    bytes that remain and the universe size before it sizes an
    allocation, and malformed input yields [Error], never an exception.
    Returns the number of fault sets certified. *)

val digest : Instance.t -> string
(** Hex digest of the instance's canonical serialization. *)
