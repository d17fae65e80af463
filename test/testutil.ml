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

(* [actual] (already rendered) must equal the golden under [key]. *)
let check_golden key actual =
  match Hashtbl.find_opt (Lazy.force verify_goldens) key with
  | None -> Alcotest.failf "no golden for %S (actual: %s)" key actual
  | Some expected -> Alcotest.(check string) key expected actual

let check_golden_report key r = check_golden key (render_report r)
