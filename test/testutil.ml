(* Shared helpers for the test suites. *)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Golden reports                                                      *)
(* ------------------------------------------------------------------ *)

(* Verification reports frozen as text, one [key<TAB>report] line each,
   in golden/verify_reports.txt.  The file was written from the node-only
   verifier before the fault-model paths were merged; every path that
   claims node-model equivalence is checked against it. *)

let render_report (r : Gdpn_core.Verify.report) =
  let failure (f : Gdpn_core.Verify.failure) =
    Printf.sprintf "{%s} %s x%d"
      (String.concat "," (List.map string_of_int f.faults))
      f.reason f.orbit
  in
  Printf.sprintf "checked=%d calls=%d gave_up=%d failures=[%s]"
    r.fault_sets_checked r.solver_calls r.gave_up
    (String.concat "; " (List.map failure r.failures))

let render_outcome = function
  | Gdpn_core.Reconfig.Pipeline p ->
    String.concat "-" (List.map string_of_int p.Gdpn_core.Pipeline.nodes)
  | Gdpn_core.Reconfig.No_pipeline -> "none"
  | Gdpn_core.Reconfig.Gave_up -> "gave-up"

let load_goldens path =
  let tbl = Hashtbl.create 256 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line '\t' with
         | Some i ->
           Hashtbl.replace tbl (String.sub line 0 i)
             (String.sub line (i + 1) (String.length line - i - 1))
         | None -> failwith ("malformed golden line: " ^ line)
     done
   with End_of_file -> close_in ic);
  tbl

let verify_goldens = lazy (load_goldens "golden/verify_reports.txt")

(* Hamilton-kernel runs and their expansion counts, frozen in
   golden/kernel_expansions.txt while the pre-bitset-row reference
   backtracker still reproduced every line (see test_kernel.ml). *)
let kernel_goldens = lazy (load_goldens "golden/kernel_expansions.txt")

(* [actual] (already rendered) must equal the golden under [key]. *)
let check_golden ?(goldens = verify_goldens) key actual =
  match Hashtbl.find_opt (Lazy.force goldens) key with
  | None -> Alcotest.failf "no golden for %S (actual: %s)" key actual
  | Some expected -> Alcotest.(check string) key expected actual

let check_golden_report key r = check_golden key (render_report r)

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

(* The bytes [write] sends to a channel: certificates are only ever
   written to channels. *)
let certificate write =
  let path = Filename.temp_file "gdpn-test" ".cert" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path write;
  In_channel.with_open_bin path In_channel.input_all

(* Byte layout of a well-formed certificate for an instance of [order]
   nodes: where the header ends, and for every record the offsets where
   it starts, where its witness's node list starts, and where it ends. *)
let certificate_layout cert ~order =
  let pos = ref (String.length "gdpn-cert 5\n") in
  let uint () =
    let v = ref 0 and shift = ref 0 in
    while Char.code cert.[!pos] land 0x80 <> 0 do
      v := !v lor ((Char.code cert.[!pos] land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr pos
    done;
    v := !v lor (Char.code cert.[!pos] lsl !shift);
    incr pos;
    !v
  in
  let skip n =
    for _ = 1 to n do
      ignore (uint ())
    done
  in
  let skip_string () = pos := !pos + uint () in
  skip_string ();
  skip_string ();
  skip 1;
  skip (uint () * order);
  let records = uint () in
  let header_end = !pos in
  let layout = ref [] in
  for _ = 1 to records do
    let start = !pos in
    skip (uint ());
    skip 1;
    let nnodes = uint () in
    let witness = !pos in
    skip nnodes;
    layout := (start, witness, !pos) :: !layout
  done;
  (header_end, List.rev !layout)

(* [s] with byte [i] XORed by [mask]. *)
let flip_byte s i mask =
  String.mapi
    (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c)
    s

(* Every single-bit flip and the full complement. *)
let flip_masks = [ 1; 2; 4; 8; 16; 32; 64; 128; 255 ]
