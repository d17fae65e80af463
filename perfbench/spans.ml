let on = ref false
let names = ref [||]
let parents = ref [||]
let starts = ref [||]
let ends = ref [||]
let n = ref 0

let set_enabled b = on := b

let grow () =
  let cap = max 1024 (2 * Array.length !starts) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 !n;
    b
  in
  names := extend !names "";
  parents := extend !parents 0;
  starts := extend !starts 0;
  ends := extend !ends 0

let record ~name ~parent ~start_ns ~end_ns =
  if not !on then -1
  else begin
    if !n = Array.length !starts then grow ();
    let id = !n in
    !names.(id) <- name;
    !parents.(id) <- parent;
    !starts.(id) <- start_ns;
    !ends.(id) <- end_ns;
    n := id + 1;
    id
  end

(* The id is reserved before [f] runs so children can point at it; the
   end time is patched in afterwards. *)
let around ~name ~parent f =
  let t0 = Clock.now_ns () in
  let id = record ~name ~parent ~start_ns:t0 ~end_ns:t0 in
  Fun.protect
    ~finally:(fun () -> if id >= 0 then !ends.(id) <- Clock.now_ns ())
    (fun () -> f id)

let count () = !n

let write path =
  let oc = open_out path in
  for i = 0 to !n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d}\n"
      i !parents.(i) !names.(i) !starts.(i) !ends.(i)
  done;
  close_out oc
