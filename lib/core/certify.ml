module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Auto = Gdpn_graph.Auto
module Metrics = Gdpn_obs.Metrics

(* Certificate records written to a channel (one per witnessed orbit). *)
let m_records_streamed = Metrics.counter "certify.records_streamed"

let digest inst = Digest.to_hex (Digest.string (Serial.to_string inst))

let magic = "gdpn-cert 5\n"

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* lib/core cannot see the engine codec (dependency direction), and the
   record shapes differ anyway; a few lines of varint beat an inversion. *)
let put_uint oc n =
  if n < 0 then invalid_arg "Certify: negative varint";
  let rec go n =
    let b = n land 0x7f in
    let rest = n lsr 7 in
    if rest = 0 then output_byte oc b
    else begin
      output_byte oc (b lor 0x80);
      go rest
    end
  in
  go n

let put_string oc s =
  put_uint oc (String.length s);
  output_string oc s

let write ?solve ?symmetry model oc =
  let inst = Fault_model.instance model in
  let usize = Fault_model.size model in
  let k = Fault_model.max_faults model in
  let solve =
    match solve with
    | Some f -> f
    | None ->
      (* One context for the whole enumeration: certification is exactly
         the repeated-solve workload the ctx exists for. *)
      let ctx = Reconfig.make_ctx inst in
      fun ~faults -> Fault_model.solve ~ctx model ~faults
  in
  (* The node generators go into the certificate; orbits are taken under
     their induced action on the universe, exactly as the checker will
     re-derive them. *)
  let gens, orbit_group =
    match symmetry with
    | Some g when not (Auto.is_trivial g) ->
      let induced = Fault_model.induced_symmetry model g in
      if Auto.is_trivial induced then ([], None)
      else (Auto.generators g, Some induced)
    | Some _ | None -> ([], None)
  in
  let nsets = Combinat.count_up_to usize k in
  output_string oc magic;
  put_string oc (digest inst);
  put_string oc (Fault_model.name model);
  put_uint oc nsets;
  put_uint oc (List.length gens);
  List.iter (Array.iter (put_uint oc)) gens;
  let mask = Bitset.create usize in
  let record set len size =
    Bitset.clear mask;
    for i = 0 to len - 1 do
      Bitset.add mask set.(i)
    done;
    match solve ~faults:mask with
    | Reconfig.Pipeline p ->
      put_uint oc len;
      let prev = ref (-1) in
      for i = 0 to len - 1 do
        put_uint oc (set.(i) - !prev - 1);
        prev := set.(i)
      done;
      put_uint oc size;
      put_uint oc (List.length p.Pipeline.nodes);
      List.iter (put_uint oc) p.Pipeline.nodes;
      Metrics.incr m_records_streamed
    | Reconfig.No_pipeline | Reconfig.Gave_up ->
      failwith
        (Printf.sprintf "Certify.write: fault set %s has no pipeline"
           (Fault_model.describe model (List.init len (Array.get set))))
  in
  (match orbit_group with
  | None ->
    put_uint oc nsets;
    Combinat.iter_subsets_up_to usize k (fun set len -> record set len 1)
  | Some group ->
    let reps = Auto.fault_orbits group ~max_size:k in
    put_uint oc (Array.length reps);
    Array.iter
      (fun { Auto.set; size } -> record set (Array.length set) size)
      reps);
  flush oc

(* ------------------------------------------------------------------ *)
(* Checker                                                             *)
(* ------------------------------------------------------------------ *)

(* Canonical fault-set order: size first, then lexicographic. *)
let canonical_compare a b =
  match Int.compare (Array.length a) (Array.length b) with
  | 0 -> compare a b
  | c -> c

(* A generator is solvability-preserving when it is a graph automorphism
   that either preserves node kinds or swaps the input and output classes
   wholesale (a reversal). *)
let kind_compatible inst p =
  let preserves = ref true in
  let reverses = ref true in
  Array.iteri
    (fun v img ->
      let kv = Instance.kind_of inst v and ki = Instance.kind_of inst img in
      if not (Label.equal kv ki) then preserves := false;
      let swapped =
        match kv with
        | Label.Processor -> Label.equal ki Label.Processor
        | Label.Input -> Label.equal ki Label.Output
        | Label.Output -> Label.equal ki Label.Input
      in
      if not swapped then reverses := false)
    p;
  !preserves || !reverses

(* The action of one node permutation on the model's universe. *)
let lift model p =
  let order = Array.length p in
  match
    Auto.generators
      (Fault_model.induced_symmetry model
         (Auto.of_generators ~degree:order ~order:2 [ p ]))
  with
  | [ q ] -> q
  | _ -> Array.init (Fault_model.size model) Fun.id

(* Soundness of completeness: every record's set is re-derived as the
   least member of its orbit and records strictly increase in canonical
   order, so no orbit is witnessed twice; every member is a valid fault
   set (sizes are preserved by the permutations) with a validated
   witness; and the orbit sizes must sum to the full count — so by
   counting, the records cover every fault set exactly once.  Memory is
   one orbit at a time. *)
let check inst s =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let len = String.length s in
  let pos = ref (String.length magic) in
  let uint () =
    let v = ref 0 and shift = ref 0 and cont = ref true in
    while !cont do
      if !pos >= len then bad "truncated certificate";
      (* At most 8 bytes: 56 bits, so a decoded value is never negative. *)
      if !shift > 49 then bad "varint too wide";
      let b = Char.code s.[!pos] in
      incr pos;
      v := !v lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then cont := false
    done;
    !v
  in
  (* Every count and index is bounded before it sizes an allocation. *)
  let bounded what ~cap =
    let n = uint () in
    if n > cap then
      bad "%s %d out of range (at most %d): truncated or corrupt certificate"
        what n cap;
    n
  in
  let str what =
    let n = bounded (what ^ " length") ~cap:(min 256 (len - !pos)) in
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  try
    if not (String.starts_with ~prefix:magic s) then begin
      let prefix = "gdpn-cert " in
      if not (String.starts_with ~prefix s) then bad "not a gdpn certificate";
      match String.index_from_opt s (String.length prefix) '\n' with
      | Some i when i - String.length prefix <= 16 ->
        bad "unsupported certificate version %S"
          (String.sub s (String.length prefix) (i - String.length prefix))
      | Some _ | None -> bad "bad certificate header"
    end;
    if str "digest" <> digest inst then
      bad "certificate is for a different instance";
    let name = str "model name" in
    let model =
      match Fault_model.of_name inst name with
      | Some m -> m
      | None -> bad "unknown fault model %S" name
    in
    let order = Instance.order inst in
    let usize = Fault_model.size model in
    let k = Fault_model.max_faults model in
    let nsets = Combinat.count_up_to usize k in
    let declared = uint () in
    if declared <> nsets then
      bad "certificate declares %d fault sets, the %s model needs %d" declared
        name nsets;
    let ngens = bounded "generator count" ~cap:((len - !pos) / max 1 order) in
    let gens =
      List.init ngens (fun i ->
          let p =
            Array.init order (fun _ ->
                bounded "generator image" ~cap:(order - 1))
          in
          if
            not
              (Auto.is_automorphism inst.Instance.graph p
              && kind_compatible inst p)
          then
            bad "generator %d is not a solvability-preserving automorphism" i;
          (p, lift model p))
    in
    let nrecords = bounded "record count" ~cap:(min nsets ((len - !pos) / 3)) in
    let describe set = Fault_model.describe model (Array.to_list set) in
    let mask = Bitset.create usize in
    let validate set witness =
      Bitset.clear mask;
      Array.iter (Bitset.add mask) set;
      match Fault_model.validate model ~faults:mask (Array.to_list witness) with
      | Ok _ -> ()
      | Error e -> bad "witness for %s invalid: %s" (describe set) e
    in
    let covered = ref 0 in
    let prev = ref None in
    for _ = 1 to nrecords do
      let slen = bounded "fault set size" ~cap:(min k (len - !pos)) in
      let last = ref (-1) in
      let set =
        Array.init slen (fun _ ->
            let gap = bounded "fault index gap" ~cap:(usize - !last - 2) in
            last := !last + 1 + gap;
            !last)
      in
      let size = bounded "orbit size" ~cap:(nsets - !covered) in
      let wlen = bounded "witness length" ~cap:(min order (len - !pos)) in
      let witness =
        Array.init wlen (fun _ -> bounded "witness node" ~cap:(order - 1))
      in
      (match !prev with
      | Some p when canonical_compare p set >= 0 ->
        bad "record %s is out of canonical order" (describe set)
      | Some _ | None -> ());
      prev := Some set;
      (* BFS over the orbit, carrying the witness along each generator's
         node permutation (the pipeline definition admits both
         orientations, so reversal images validate as-is). *)
      let seen = Hashtbl.create 16 in
      Hashtbl.replace seen set ();
      let queue = Queue.create () in
      Queue.add (set, witness) queue;
      let members = ref 0 in
      while not (Queue.is_empty queue) do
        let member, w = Queue.pop queue in
        incr members;
        if !members > size then
          bad "orbit of %s has more than the declared %d members"
            (describe set) size;
        validate member w;
        List.iter
          (fun (p, q) ->
            let img = Array.map (Array.get q) member in
            Array.sort compare img;
            if compare img set < 0 then
              bad "record %s is not the least member of its orbit"
                (describe set);
            if not (Hashtbl.mem seen img) then begin
              Hashtbl.replace seen img ();
              Queue.add (img, Array.map (Array.get p) w) queue
            end)
          gens
      done;
      if !members <> size then
        bad "orbit of %s has %d members, certificate declares %d"
          (describe set) !members size;
      covered := !covered + size
    done;
    if !pos <> len then bad "%d trailing bytes" (len - !pos);
    if !covered <> nsets then
      bad "records cover %d fault sets, the %s model needs %d" !covered name
        nsets;
    Ok nsets
  with
  | Bad m -> Error m
  | Invalid_argument m -> Error ("malformed certificate: " ^ m)
