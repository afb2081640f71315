(* Guard against process-global mutable state in lib/.

   A run owns everything it creates: per-run tables live in the runtime or
   in the communicators, and a datatype's commit state lives in the type.
   This test lists every top-level binding under lib/ whose right-hand
   side builds a mutable container (a ref, a hash table, a mutable array,
   an atomic, a queue, a stack or a buffer) and fails on any that is not
   on the allowlist below.  A binding whose right-hand side starts on the
   next line is read from that line. *)

let allowlist =
  [
    ( "Coll_algo.overrides",
      "caller configuration (MPISIM_COLL_ALGO, --coll-algo); per run it would need an \
       Engine parameter" );
    ( "Choice.installed",
      "the model checker's decision controller; it moves when runs go to a domain pool" );
    ( "Datatype.live_derived",
      "leak detector over all datatypes, which outlive runs; one Atomic counter" );
  ]

let mutable_constructors =
  [
    "ref ";
    "ref(";
    "Hashtbl.create";
    "Array.make";
    "Atomic.make";
    "Queue.create";
    "Stack.create";
    "Buffer.create";
    "Bytes.create";
    "Bytes.make";
  ]

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [Some (name, rhs)] for a column-0 value binding "let name [: ty] = rhs";
   function definitions ("let f x = ...") are not value bindings. *)
let value_binding line =
  if not (String.starts_with ~prefix:"let " line) then None
  else begin
    let n = String.length line in
    let i = ref 4 in
    while !i < n && is_ident_char line.[!i] do
      incr i
    done;
    let name = String.sub line 4 (!i - 4) in
    while !i < n && line.[!i] = ' ' do
      incr i
    done;
    if name = "" || name = "rec" || !i >= n || (line.[!i] <> '=' && line.[!i] <> ':')
    then None
    else
      Option.map
        (fun eq -> (name, String.trim (String.sub line (eq + 1) (n - eq - 1))))
        (String.index_from_opt line !i '=')
  end

let read_lines path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file ->
        close_in ic;
        Array.of_list (List.rev acc)
  in
  loop []

let rec ml_files dir =
  List.concat_map
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then ml_files path
      else if Filename.check_suffix entry ".ml" then [ path ]
      else [])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* "Module.name" of every mutable top-level binding in [path]. *)
let mutable_globals path =
  let modname = String.capitalize_ascii Filename.(remove_extension (basename path)) in
  let lines = read_lines path in
  let found = ref [] in
  Array.iteri
    (fun i line ->
      match value_binding line with
      | None -> ()
      | Some (name, rhs) ->
          let rhs =
            if rhs = "" && i + 1 < Array.length lines then String.trim lines.(i + 1) else rhs
          in
          let mutable_rhs prefix = String.starts_with ~prefix rhs in
          if List.exists mutable_rhs mutable_constructors then
            found := (modname ^ "." ^ name) :: !found)
    lines;
  List.rev !found

let test_value_binding () =
  let check line expected =
    Alcotest.(check (option (pair string string))) line expected (value_binding line)
  in
  check "let overrides : algo option array = Array.make 4 None"
    (Some ("overrides", "Array.make 4 None"));
  check "let next_id = ref 0" (Some ("next_id", "ref 0"));
  check "let crc_table =" (Some ("crc_table", ""));
  check "let f x = ref x" None;
  check "let () = ignore 0" None;
  check "  let local = ref 0" None

let test_no_unlisted_globals () =
  let files = ml_files "../lib" in
  Alcotest.(check bool) "lib/ sources found" true (files <> []);
  let found = List.concat_map mutable_globals files in
  List.iter
    (fun g ->
      if not (List.mem_assoc g allowlist) then
        Alcotest.failf
          "%s is a process-global mutable binding: keep it in the run (Runtime.t, \
           Comm.shared) or in the value that owns it, or allowlist it with a reason"
          g)
    found;
  List.iter
    (fun (g, _) ->
      if not (List.mem g found) then
        Alcotest.failf "allowlist entry %s matches no binding; remove it" g)
    allowlist

let () =
  Alcotest.run "globals"
    [
      ( "globals",
        [
          Alcotest.test_case "binding parser" `Quick test_value_binding;
          Alcotest.test_case "no unlisted globals in lib" `Quick test_no_unlisted_globals;
        ] );
    ]
