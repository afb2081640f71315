(* Span arithmetic on a hand-built two-rank interleaving.

   rank 0: kamping.recv K [0, 10] holding its child p2p.recv P [1, 9]
   rank 1: p2p.send S [2, 4], then coll.barrier B [6, 12]

   Owner of each interval (the latest-started open span): [0,1] K,
   [1,2] P, [2,4] S, [4,6] P, [6,12] B. *)

let span sp ~rank ~layer ~op t =
  Spans.start sp ~rank ~layer ~op ~step:0 ~time:t ~words:(10. *. t) ~posted:0

let finish sp s t ~posted = Spans.finish sp s ~time:t ~words:(10. *. t) ~posted

let interleaving ~keep =
  let sp = Spans.create ~ranks:2 ~keep in
  let k = span sp ~rank:0 ~layer:"kamping" ~op:"recv" 0. in
  let p = span sp ~rank:0 ~layer:"p2p" ~op:"recv" 1. in
  let s = span sp ~rank:1 ~layer:"p2p" ~op:"send" 2. in
  finish sp s 4. ~posted:0;
  let b = span sp ~rank:1 ~layer:"coll" ~op:"barrier" 6. in
  finish sp p 9. ~posted:1;
  finish sp k 10. ~posted:1;
  finish sp b 12. ~posted:3;
  sp

let check_span sp ~layer ~op ~len ~self ~child ~wait ~posted =
  let x = Spans.totals sp ~layer ~op in
  let name what = Printf.sprintf "%s.%s %s" layer op what in
  let close = Alcotest.float 1e-9 in
  Alcotest.(check int) (name "calls") 1 x.Spans.calls;
  Alcotest.check close (name "len") len x.Spans.len;
  Alcotest.check close (name "self") self x.Spans.self;
  Alcotest.check close (name "child") child x.Spans.child;
  Alcotest.check close (name "wait") wait x.Spans.wait;
  Alcotest.(check int) (name "posted") posted x.Spans.posted

let test_interleaving () =
  let sp = interleaving ~keep:10 in
  (* K: its child P owns [1,2] and [4,6]; rank 1 owns [2,4] and [6,10]. *)
  check_span sp ~layer:"kamping" ~op:"recv" ~len:10. ~self:1. ~child:3. ~wait:6. ~posted:1;
  (* P: parked while S ran [2,4] and B ran [6,9]. *)
  check_span sp ~layer:"p2p" ~op:"recv" ~len:8. ~self:3. ~child:0. ~wait:5. ~posted:1;
  check_span sp ~layer:"p2p" ~op:"send" ~len:2. ~self:2. ~child:0. ~wait:0. ~posted:0;
  (* B started last, so it owns all of its own interval. *)
  check_span sp ~layer:"coll" ~op:"barrier" ~len:6. ~self:6. ~child:0. ~wait:0. ~posted:3;
  let x = Spans.totals sp ~layer:"coll" ~op:"allgatherv" in
  Alcotest.(check int) "absent op" 0 x.Spans.calls

let test_nesting_enforced () =
  let sp = Spans.create ~ranks:1 ~keep:0 in
  let outer = span sp ~rank:0 ~layer:"kamping" ~op:"send" 0. in
  let _inner = span sp ~rank:0 ~layer:"p2p" ~op:"send" 1. in
  Alcotest.check_raises "outer before inner"
    (Invalid_argument "Spans.finish: not the innermost open span of its rank") (fun () ->
      finish sp outer 2. ~posted:0);
  Spans.finish sp Spans.none ~time:3. ~words:0. ~posted:0

let count_sub s sub =
  let n = String.length sub in
  let c = ref 0 in
  for i = 0 to String.length s - n do
    if String.sub s i n = sub then incr c
  done;
  !c

let test_chrome () =
  let sp = interleaving ~keep:3 in
  Alcotest.(check int) "dropped" 1 (Spans.dropped sp);
  let file = Filename.temp_file "spans" ".json" in
  Spans.write_chrome sp file;
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  Alcotest.(check int) "begins" 3 (count_sub s "\"ph\":\"B\"");
  Alcotest.(check int) "ends" 3 (count_sub s "\"ph\":\"E\"");
  Alcotest.(check int) "thread names" 2 (count_sub s "thread_name")

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "two-rank interleaving" `Quick test_interleaving;
          Alcotest.test_case "nesting enforced" `Quick test_nesting_enforced;
          Alcotest.test_case "chrome export" `Quick test_chrome;
        ] );
    ]
