(* The command-line surface: every subcommand's manual must render without
   a cmdliner markup error.  A bad escape in a doc string (say "\\@") makes
   cmdliner print "cmdliner error: Illegal escape ..." to stderr and drop
   the offending text from the page, while still exiting 0. *)

let exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "repro_cli.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* [help args] renders [exe args --help=plain]: (exit code, stdout, stderr). *)
let help args =
  let out = Filename.temp_file "repro_cli_help" ".out" in
  let err = Filename.temp_file "repro_cli_help" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command exe (args @ [ "--help=plain" ]) ~stdout:out ~stderr:err)
      in
      (code, read_file out, read_file err))

(* Subcommand names from the top-level page: in its COMMANDS section each
   entry starts with a synopsis line indented by exactly seven spaces. *)
let subcommands () =
  let _, page, _ = help [] in
  let in_commands = ref false in
  List.filter_map
    (fun line ->
      if line <> "" && line.[0] <> ' ' then begin
        in_commands := line = "COMMANDS";
        None
      end
      else if
        !in_commands
        && String.length line > 7
        && String.sub line 0 7 = "       "
        && line.[7] >= 'a' && line.[7] <= 'z'
      then Some (List.hd (String.split_on_char ' ' (String.sub line 7 (String.length line - 7))))
      else None)
    (String.split_on_char '\n' page)

let check_renders args () =
  let code, page, err = help args in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "manual is not empty" true (String.length page > 0);
  if contains ~needle:"cmdliner error" err then
    Alcotest.failf "%s --help=plain: %s" (String.concat " " args) err

let test_lists_commands () =
  let cmds = subcommands () in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " listed") true (List.mem c cmds))
    [ "sort"; "bfs"; "taskqueue"; "bench-diff"; "verify" ]

let () =
  Alcotest.run "cli"
    [
      ( "help",
        Alcotest.test_case "lists the subcommands" `Quick test_lists_commands
        :: Alcotest.test_case "top level" `Quick (check_renders [])
        :: List.map
             (fun c -> Alcotest.test_case c `Quick (check_renders [ c ]))
             (subcommands ()) );
    ]
