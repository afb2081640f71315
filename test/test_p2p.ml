(* Unit tests for point-to-point semantics: matching, wildcards,
   non-overtaking order, probing, synchronous sends, truncation, request
   completion, failure observation. *)

open Mpisim

let run2 body = Engine.run_values ~ranks:2 body

let test_basic_send_recv () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 [| 1; 2; 3 |];
          [||]
        end
        else fst (P2p.recv comm Datatype.int ~source:0 ()))
  in
  Alcotest.(check (array int)) "payload" [| 1; 2; 3 |] results.(1)

let test_status_fields () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.float ~dest:1 ~tag:7 [| 1.5; 2.5 |];
          (0, 0, 0)
        end
        else begin
          let _, st = P2p.recv comm Datatype.float ~source:0 () in
          (Status.source st, Status.tag st, Status.count st)
        end)
  in
  Alcotest.(check (triple int int int)) "status" (0, 7, 2) results.(1)

let test_nonovertaking_same_pair () =
  (* Two same-tag messages from the same sender must arrive in order. *)
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 [| 1 |];
          P2p.send comm Datatype.int ~dest:1 [| 2 |];
          P2p.send comm Datatype.int ~dest:1 [| 3 |];
          []
        end
        else
          List.init 3 (fun _ -> (fst (P2p.recv comm Datatype.int ~source:0 ())).(0)))
  in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] results.(1)

let test_tag_selectivity () =
  (* A tagged receive must skip earlier messages with other tags. *)
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 ~tag:1 [| 100 |];
          P2p.send comm Datatype.int ~dest:1 ~tag:2 [| 200 |];
          []
        end
        else begin
          let b, _ = P2p.recv comm Datatype.int ~source:0 ~tag:2 () in
          let a, _ = P2p.recv comm Datatype.int ~source:0 ~tag:1 () in
          [ b.(0); a.(0) ]
        end)
  in
  Alcotest.(check (list int)) "tag selection" [ 200; 100 ] results.(1)

let test_any_source_oldest_first () =
  let results =
    Engine.run_values ~ranks:3 (fun comm ->
        (match Comm.rank comm with
        | 1 -> P2p.send comm Datatype.int ~dest:0 [| 11 |]
        | 2 -> P2p.send comm Datatype.int ~dest:0 [| 22 |]
        | _ -> ());
        (* Barrier so that both messages are unexpected at rank 0 before it
           posts any wildcard receive. *)
        Coll.barrier comm;
        if Comm.rank comm = 0 then begin
          let a, _ = P2p.recv comm Datatype.int () in
          let b, _ = P2p.recv comm Datatype.int () in
          [ a.(0); b.(0) ]
        end
        else [])
  in
  (* Deterministic scheduling: rank 1 injects before rank 2. *)
  Alcotest.(check (list int)) "oldest first" [ 11; 22 ] results.(0)

let test_probe_then_recv () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 ~tag:5 [| 7; 8; 9 |];
          (0, [||])
        end
        else begin
          let st = P2p.probe comm () in
          let data, _ =
            P2p.recv comm Datatype.int ~source:(Status.source st) ~tag:(Status.tag st) ()
          in
          (Status.count st, data)
        end)
  in
  let count, data = results.(1) in
  Alcotest.(check int) "probed count" 3 count;
  Alcotest.(check (array int)) "probed data" [| 7; 8; 9 |] data

let test_iprobe_empty () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then P2p.iprobe comm () = None else true)
  in
  Alcotest.(check bool) "no message" true results.(0)

let test_truncation_error () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm Datatype.int ~dest:1 [| 1; 2; 3; 4 |]
            else begin
              let buf = Array.make 2 0 in
              ignore (P2p.recv_into comm Datatype.int ~source:0 buf)
            end))
   with Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_truncate; _ }; _ }
   -> caught := true);
  Alcotest.(check bool) "truncation raises" true !caught

let test_invalid_tag_rejected () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then
              P2p.send comm Datatype.int ~dest:1 ~tag:(-3) [| 1 |]))
   with Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> caught := true);
  Alcotest.(check bool) "negative tag rejected" true !caught;
  (* Receives and probes take tags in [0, Mailbox.max_tag] or any_tag.
     The mailbox packs (source, tag) into one key, so without the check a
     receive from source 0 with this tag would match source 1's tag 7. *)
  let aliased = Mailbox.max_tag + 1 + 7 in
  let rejected = ref [] and kept = ref [||] in
  ignore
    (Engine.run ~ranks:2 (fun comm ->
         if Comm.rank comm = 1 then begin
           P2p.send comm Datatype.int ~dest:1 ~tag:7 [| 42 |];
           let attempt name f =
             match f () with
             | () -> ()
             | exception Errdefs.Usage_error _ -> rejected := name :: !rejected
           in
           attempt "recv" (fun () ->
               ignore (P2p.recv comm Datatype.int ~source:0 ~tag:aliased ()));
           attempt "irecv" (fun () ->
               ignore (P2p.irecv_into comm Datatype.int ~source:0 ~tag:aliased [| 0 |]));
           attempt "iprobe" (fun () -> ignore (P2p.iprobe comm ~source:0 ~tag:aliased ()));
           attempt "probe" (fun () -> ignore (P2p.probe comm ~source:0 ~tag:aliased ()));
           attempt "recv -3" (fun () ->
               ignore (P2p.recv comm Datatype.int ~source:1 ~tag:(-3) ()));
           kept := fst (P2p.recv comm Datatype.int ~source:1 ~tag:7 ())
         end));
  Alcotest.(check (list string)) "out-of-range receive and probe tags rejected"
    [ "recv"; "irecv"; "iprobe"; "probe"; "recv -3" ] (List.rev !rejected);
  Alcotest.(check (array int)) "source 1's message still there" [| 42 |] !kept

let test_invalid_rank_rejected () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm Datatype.int ~dest:5 [| 1 |]))
   with Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> caught := true);
  Alcotest.(check bool) "bad rank rejected" true !caught

let test_ssend_completes_after_match () =
  (* The sender's clock after an ssend must be >= the receiver's matching
     time: synchronous completion. *)
  let times =
    Engine.run_values ~ranks:2 (fun comm ->
        let rt = Comm.runtime comm in
        if Comm.rank comm = 0 then begin
          P2p.ssend comm Datatype.int ~dest:1 [| 1 |];
          Runtime.clock rt 0
        end
        else begin
          (* Receive only after doing some "work". *)
          Runtime.charge_compute rt 1 0.5;
          ignore (P2p.recv comm Datatype.int ~source:0 ());
          Runtime.clock rt 1
        end)
  in
  Alcotest.(check bool) "sender waited for the late receiver" true (times.(0) >= 0.5)

let test_send_is_eager () =
  (* A plain send must NOT wait for the receiver. *)
  let times =
    Engine.run_values ~ranks:2 (fun comm ->
        let rt = Comm.runtime comm in
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 [| 1 |];
          Runtime.clock rt 0
        end
        else begin
          Runtime.charge_compute rt 1 0.5;
          ignore (P2p.recv comm Datatype.int ~source:0 ());
          0.
        end)
  in
  Alcotest.(check bool) "sender did not wait" true (times.(0) < 0.4)

let test_isend_irecv_wait () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          let req = P2p.isend comm Datatype.int ~dest:1 [| 5; 6 |] in
          ignore (Request.wait req);
          [||]
        end
        else begin
          let buf = Array.make 2 0 in
          let req = P2p.irecv_into comm Datatype.int ~source:0 buf in
          ignore (Request.wait req);
          buf
        end)
  in
  Alcotest.(check (array int)) "irecv data" [| 5; 6 |] results.(1)

let test_wait_any () =
  let results =
    Engine.run_values ~ranks:3 (fun comm ->
        match Comm.rank comm with
        | 0 ->
            (* Two dynamic receives, completed in sender order. *)
            let r1 = P2p.irecv_dyn comm Datatype.int ~source:1 () in
            let r2 = P2p.irecv_dyn comm Datatype.int ~source:2 () in
            let i, _ = Request.wait_any [ r1.P2p.base; r2.P2p.base ] in
            ignore (P2p.dyn_wait r1);
            ignore (P2p.dyn_wait r2);
            i
        | 1 ->
            P2p.send comm Datatype.int ~dest:0 [| 1 |];
            -1
        | _ ->
            P2p.send comm Datatype.int ~dest:0 [| 2 |];
            -1)
  in
  Alcotest.(check bool) "wait_any returned a valid index" true
    (results.(0) = 0 || results.(0) = 1)

let test_request_idempotent () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 [| 9 |];
          true
        end
        else begin
          let r = P2p.irecv_dyn comm Datatype.int ~source:0 () in
          let d1, _ = P2p.dyn_wait r in
          let d2, _ = P2p.dyn_wait r in
          d1 == d2
        end)
  in
  Alcotest.(check bool) "wait is idempotent" true results.(1)

let test_recv_from_failed_raises () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then Fault.die comm
            else ignore (P2p.recv comm Datatype.int ~source:0 ())))
   with
  | Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ }; _ }
  -> caught := true);
  Alcotest.(check bool) "recv-from-dead raises PROC_FAILED" true !caught

let test_send_bytes_roundtrip () =
  let payload = Bytes.of_string "hello wire" in
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send_bytes comm ~dest:1 payload;
          Bytes.empty
        end
        else fst (P2p.recv_bytes comm ~source:0 ()))
  in
  Alcotest.(check string) "bytes payload" "hello wire" (Bytes.to_string results.(1))

let test_sendrecv () =
  let results =
    Engine.run_values ~ranks:4 (fun comm ->
        let r = Comm.rank comm in
        let n = Comm.size comm in
        let data, _ =
          P2p.sendrecv comm Datatype.int ~dest:((r + 1) mod n) ~source:((r + n - 1) mod n)
            [| r |]
        in
        data.(0))
  in
  Alcotest.(check (array int)) "ring shift" [| 3; 0; 1; 2 |] results

(* ------------------------------------------------------------------ *)
(* Mailbox unit tests: the O(1) structures must keep MPI matching
   semantics, reclaim drained state, and refuse to cancel a matched
   receive. *)

let mk_msg ?(context = 0) ~src ~tag ~seq () =
  Message.make ~context ~src ~dst:0 ~tag ~payload:(Bytes.create 8) ~payload_off:0
    ~payload_len:8 ~count:8
    ~signature:(Signature.of_base ~count:8 Signature.Blob)
    ~sent_at:0. ~arrival:0. ~seq ~sync:false ()

let test_mailbox_cancel_after_match_fails () =
  let mb = Mailbox.create () in
  let p = Mailbox.post mb ~context:0 ~src:1 ~tag:5 ~now:0. in
  Alcotest.(check bool) "message matches the posted recv" true
    (Mailbox.deliver mb (mk_msg ~src:1 ~tag:5 ~seq:0 ()));
  let raised =
    try
      Mailbox.cancel mb p;
      false
    with Errdefs.Usage_error _ -> true
  in
  Alcotest.(check bool) "cancel after match is a usage error" true raised;
  Mailbox.retire mb p;
  (* An unmatched posted receive still cancels fine. *)
  let q = Mailbox.post mb ~context:0 ~src:1 ~tag:6 ~now:0. in
  Mailbox.cancel mb q;
  Alcotest.(check int) "posted set empty again" 0 (Mailbox.posted_depth mb)

let test_mailbox_unexpected_reclaim () =
  let mb = Mailbox.create () in
  for i = 0 to 9 do
    Alcotest.(check bool) "unexpected" false
      (Mailbox.deliver mb (mk_msg ~src:i ~tag:i ~seq:i ()))
  done;
  Alcotest.(check int) "one live key per (src, tag)" 10
    (Mailbox.unexpected_key_count mb);
  for i = 0 to 9 do
    if Mailbox.find_unexpected mb ~context:0 ~src:i ~tag:i = None then
      Alcotest.fail "delivered message not found"
  done;
  Alcotest.(check int) "drained keys kept for reuse" 10 (Mailbox.unexpected_key_count mb);
  Alcotest.(check int) "no unexpected left" 0 (Mailbox.unexpected_depth mb);
  (* Bound: at most [Mailbox.idle_cap] (64) drained keys per context, so
     2,000 distinct keys over two contexts leave at most 128 entries. *)
  for i = 0 to 1999 do
    let context = i land 1 in
    ignore (Mailbox.deliver mb (mk_msg ~context ~src:i ~tag:(i mod 5) ~seq:(10 + i) ()));
    if Mailbox.find_unexpected mb ~context ~src:i ~tag:(i mod 5) = None then
      Alcotest.fail "delivered message not found"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "drained keys bounded (%d <= 128)" (Mailbox.unexpected_key_count mb))
    true
    (Mailbox.unexpected_key_count mb <= 2 * Mailbox.idle_cap)

let posted_ids mb =
  let ids = ref [] in
  Mailbox.iter_posted mb (fun p -> ids := p.Mailbox.p_id :: !ids);
  List.rev !ids

let test_mailbox_posted_list_live () =
  let mb = Mailbox.create () in
  let keep = Mailbox.post mb ~context:0 ~src:99 ~tag:99 ~now:0. in
  for i = 0 to 199 do
    let p = Mailbox.post mb ~context:0 ~src:1 ~tag:(i mod 7) ~now:0. in
    Mailbox.cancel mb p
  done;
  let matched = Mailbox.post mb ~context:0 ~src:2 ~tag:0 ~now:0. in
  ignore (Mailbox.deliver mb (mk_msg ~src:2 ~tag:0 ~seq:0 ()));
  Alcotest.(check (list int)) "matched receive stays until retired"
    [ keep.Mailbox.p_id; matched.Mailbox.p_id ] (posted_ids mb);
  Mailbox.retire mb matched;
  Mailbox.retire mb matched;
  Alcotest.(check (list int)) "only the live receive" [ keep.Mailbox.p_id ] (posted_ids mb);
  Alcotest.(check int) "depth counts it" 1 (Mailbox.posted_depth mb);
  Mailbox.cancel mb keep;
  Alcotest.(check (list int)) "empty" [] (posted_ids mb)

(* A receive matched from the unexpected queue at [post] is never on the
   posted list, so retiring it must leave the posted count at zero and
   must not make later posted-first cycles allocate more. *)
let test_mailbox_unexpected_first_no_residue () =
  let mb = Mailbox.create () in
  for i = 0 to 99 do
    ignore (Mailbox.deliver mb (mk_msg ~src:1 ~tag:0 ~seq:i ()));
    let p = Mailbox.post mb ~context:0 ~src:1 ~tag:0 ~now:0. in
    Mailbox.retire mb p
  done;
  Alcotest.(check int) "posted depth after 100 unexpected-first receives" 0
    (Mailbox.posted_depth mb);
  let msgs = Array.init 1000 (fun i -> mk_msg ~src:1 ~tag:0 ~seq:(100 + i) ()) in
  let cycle_words mb =
    let w0 = Gc.minor_words () in
    Array.iter
      (fun m ->
        let p = Mailbox.post mb ~context:0 ~src:1 ~tag:0 ~now:0. in
        ignore (Mailbox.deliver mb m);
        Mailbox.retire mb p)
      msgs;
    Gc.minor_words () -. w0
  in
  let fresh = cycle_words (Mailbox.create ()) in
  let used = cycle_words mb in
  Alcotest.(check bool)
    (Printf.sprintf "posted-first cycle: %.1f words, fresh mailbox %.1f" (used /. 1000.)
       (fresh /. 1000.))
    true (used <= fresh)

(* Differential check against a reference model: lists in arrival and
   posting order, the oldest matching message by seq, the first matching
   live receive in posting order. *)
type model_recv = {
  m_id : int;
  m_ctx : int;
  m_src : int;
  m_tag : int;
  mutable m_got : Message.t option;
}

type model = { mutable m_unexp : Message.t list; mutable m_live : model_recv list }

let fits ~ctx ~src ~tag (m : Message.t) =
  m.Message.context = ctx
  && (src = Mailbox.any_source || m.Message.src = src)
  && (tag = Mailbox.any_tag || m.Message.tag = tag)

let model_find md ~ctx ~src ~tag ~remove =
  match
    List.sort
      (fun (a : Message.t) b -> compare a.Message.seq b.Message.seq)
      (List.filter (fits ~ctx ~src ~tag) md.m_unexp)
  with
  | [] -> None
  | m :: _ ->
      if remove then md.m_unexp <- List.filter (fun m' -> m' != m) md.m_unexp;
      Some m

let model_deliver md (m : Message.t) =
  match
    List.find_opt
      (fun r -> r.m_got = None && fits ~ctx:r.m_ctx ~src:r.m_src ~tag:r.m_tag m)
      md.m_live
  with
  | Some r ->
      r.m_got <- Some m;
      true
  | None ->
      md.m_unexp <- md.m_unexp @ [ m ];
      false

let model_post md ~id ~ctx ~src ~tag =
  let r = { m_id = id; m_ctx = ctx; m_src = src; m_tag = tag; m_got = None } in
  (match model_find md ~ctx ~src ~tag ~remove:true with
  | Some m -> r.m_got <- Some m
  | None -> md.m_live <- md.m_live @ [ r ]);
  r

type op =
  | Deliver of int * int * int
  | Post of int * int * int
  | Cancel of int
  | Retire of int
  | Find of int * int * int * bool

let print_op = function
  | Deliver (c, s, t) -> Printf.sprintf "deliver(%d,%d,%d)" c s t
  | Post (c, s, t) -> Printf.sprintf "post(%d,%d,%d)" c s t
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Retire i -> Printf.sprintf "retire %d" i
  | Find (c, s, t, r) -> Printf.sprintf "find(%d,%d,%d,%b)" c s t r

let arb_ops =
  let open QCheck.Gen in
  let ctx = int_bound 1 and pat = int_range (-1) 3 in
  let op =
    frequency
      [
        (3, map3 (fun c s t -> Deliver (c, s, t)) ctx (int_bound 3) (int_bound 3));
        (3, map3 (fun c s t -> Post (c, s, t)) ctx pat pat);
        (1, map (fun i -> Cancel i) nat);
        (2, map (fun i -> Retire i) nat);
        (1, map2 (fun (c, s) (t, r) -> Find (c, s, t, r)) (pair ctx pat) (pair pat bool));
      ]
  in
  QCheck.make ~print:(QCheck.Print.list print_op) (list_size (int_range 1 80) op)

let seq_of = Option.map (fun (m : Message.t) -> m.Message.seq)

let prop_mailbox_matches_model =
  QCheck.Test.make ~name:"mailbox: agrees with a list model" ~count:500 arb_ops (fun ops ->
      let mb = Mailbox.create () in
      let md = { m_unexp = []; m_live = [] } in
      let handles = ref [] and seq = ref 0 and id = ref 0 in
      (* The [i]th outstanding handle (mod their number) whose model
         receive satisfies [want], removed from the outstanding set. *)
      let pick i want =
        match List.filter (fun (_, r) -> want r) !handles with
        | [] -> None
        | hs ->
            let h = List.nth hs (i mod List.length hs) in
            handles := List.filter (fun h' -> h' != h) !handles;
            Some h
      in
      let agree = ref true in
      let expect b = if not b then agree := false in
      List.iter
        (fun op ->
          (match op with
          | Deliver (c, s, t) ->
              let m = mk_msg ~context:c ~src:s ~tag:t ~seq:!seq () in
              incr seq;
              expect (Mailbox.deliver mb m = model_deliver md m)
          | Post (c, s, t) ->
              let p = Mailbox.post mb ~context:c ~src:s ~tag:t ~now:0. in
              let r = model_post md ~id:!id ~ctx:c ~src:s ~tag:t in
              incr id;
              expect (p.Mailbox.p_id = r.m_id);
              handles := (p, r) :: !handles
          | Cancel i -> (
              match pick i (fun r -> r.m_got = None) with
              | Some (p, r) ->
                  Mailbox.cancel mb p;
                  md.m_live <- List.filter (fun r' -> r' != r) md.m_live
              | None -> ())
          | Retire i -> (
              match pick i (fun r -> r.m_got <> None) with
              | Some (p, r) ->
                  Mailbox.retire mb p;
                  md.m_live <- List.filter (fun r' -> r' != r) md.m_live
              | None -> ())
          | Find (c, s, t, remove) ->
              expect
                (seq_of (Mailbox.find_unexpected ~remove mb ~context:c ~src:s ~tag:t)
                = seq_of (model_find md ~ctx:c ~src:s ~tag:t ~remove)));
          List.iter
            (fun (p, r) -> expect (seq_of p.Mailbox.p_msg = seq_of r.m_got))
            !handles;
          expect (Mailbox.posted_depth mb = List.length md.m_live);
          expect (Mailbox.unexpected_depth mb = List.length md.m_unexp);
          expect (posted_ids mb = List.map (fun r -> r.m_id) md.m_live))
        ops;
      !agree)

let test_mailbox_wildcard_oldest_across_keys () =
  let mb = Mailbox.create () in
  (* Arrival order deliberately disagrees with key hash order. *)
  ignore (Mailbox.deliver mb (mk_msg ~src:3 ~tag:1 ~seq:7 ()));
  ignore (Mailbox.deliver mb (mk_msg ~src:1 ~tag:2 ~seq:2 ()));
  ignore (Mailbox.deliver mb (mk_msg ~src:2 ~tag:3 ~seq:5 ()));
  match
    Mailbox.find_unexpected mb ~context:0 ~src:Mailbox.any_source ~tag:Mailbox.any_tag
  with
  | Some m -> Alcotest.(check int) "oldest seq wins" 2 m.Message.seq
  | None -> Alcotest.fail "wildcard found nothing"

(* The data plane must move exactly the bytes the program sends: pooled
   buffers and slice hand-off change ownership, never volume. *)
let test_pingpong_byte_volume () =
  let iters = 5 and bytes = 64 in
  let report =
    Engine.run ~ranks:2 (fun comm ->
        let payload = Array.make bytes 'x' in
        if Comm.rank comm = 0 then
          for _ = 1 to iters do
            P2p.send comm Datatype.byte ~dest:1 payload;
            ignore (P2p.recv comm Datatype.byte ~source:1 ())
          done
        else
          for _ = 1 to iters do
            ignore (P2p.recv comm Datatype.byte ~source:0 ());
            P2p.send comm Datatype.byte ~dest:0 payload
          done)
  in
  let find op =
    match List.find_opt (fun (o, _, _) -> o = op) report.Engine.profile with
    | Some (_, calls, b) -> (calls, b)
    | None -> (0, 0)
  in
  Alcotest.(check (pair int int))
    "send calls and bytes"
    (2 * iters, 2 * iters * bytes)
    (find "send");
  Alcotest.(check (pair int int))
    "recv calls and bytes"
    (2 * iters, 2 * iters * bytes)
    (find "recv")

(* A parked receive's deadlock description names its source in
   communicator ranks, like its rank: on a parity split of 4 ranks, comm
   rank 0 of the odd communicator (world 1) waits on comm rank 1
   (world 3), and the report must say src 1. *)
let test_deadlock_report_comm_source () =
  match
    Engine.run ~check_level:Check.Off ~ranks:4 (fun world ->
        let odd = Option.get (Comm_ops.split world ~color:(Comm.rank world mod 2) ()) in
        if Comm.rank world mod 2 = 1 then
          ignore (P2p.recv odd Datatype.int ~source:(1 - Comm.rank odd) ()))
  with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Scheduler.Deadlock { parked; _ } ->
      let describe w = List.assoc w parked in
      Alcotest.(check bool)
        (Printf.sprintf "world 1 reports comm source 1: %s" (describe 1))
        true
        (String.starts_with ~prefix:"recv on rank 0 (ctx " (describe 1)
        && String.ends_with ~suffix:", src 1, tag -1)" (describe 1));
      Alcotest.(check bool)
        (Printf.sprintf "world 3 reports comm source 0: %s" (describe 3))
        true
        (String.ends_with ~suffix:", src 0, tag -1)" (describe 3))

(* --- per-message allocation ---

   Minor words are deterministic, so the message path's allocation is
   gated exactly.  Both measurements run under [Virtual_only] (no segment
   timing) and start after a warm-up, so engine setup is excluded. *)

let alloc_msgs = 10_000

(* Words per message of a 1-int raw ping-pong: every receive is posted
   before its message arrives, so each one parks and resumes. *)
let pingpong_words_per_msg () =
  let words = ref 0. in
  ignore
    (Engine.run ~clock_mode:Runtime.Virtual_only ~ranks:2 (fun comm ->
         let me = Comm.rank comm in
         let round () =
           if me = 0 then begin
             P2p.send comm Datatype.int ~dest:1 [| 1 |];
             ignore (P2p.recv comm Datatype.int ~source:1 ())
           end
           else begin
             let d, _ = P2p.recv comm Datatype.int ~source:0 () in
             P2p.send comm Datatype.int ~dest:0 d
           end
         in
         for _ = 1 to 100 do
           round ()
         done;
         let w0 = Gc.minor_words () in
         for _ = 1 to alloc_msgs / 2 do
           round ()
         done;
         if me = 0 then words := (Gc.minor_words () -. w0) /. float_of_int alloc_msgs));
  !words

(* Words per message when every receive finds its message already there:
   rank 0 sends them all (eager sends never park, so it runs to the end
   first), then rank 1 receives them by exact (source, tag). *)
let arrived_words_per_msg () =
  let w0 = ref 0. and words = ref 0. in
  ignore
    (Engine.run ~clock_mode:Runtime.Virtual_only ~ranks:2 (fun comm ->
         if Comm.rank comm = 0 then begin
           for _ = 1 to 100 do
             P2p.send comm Datatype.int ~dest:1 ~tag:0 [| 1 |]
           done;
           w0 := Gc.minor_words ();
           for _ = 1 to alloc_msgs do
             P2p.send comm Datatype.int ~dest:1 ~tag:0 [| 1 |]
           done
         end
         else begin
           for _ = 1 to 100 + alloc_msgs do
             ignore (P2p.recv comm Datatype.int ~source:0 ~tag:0 ())
           done;
           words := (Gc.minor_words () -. !w0) /. float_of_int alloc_msgs
         end));
  !words

let test_pingpong_allocation () =
  let w = pingpong_words_per_msg () in
  Alcotest.(check bool)
    (Printf.sprintf "1-int ping-pong allocates <= 115 words per message (%.1f)" w)
    true (w <= 115.)

let test_arrived_recv_allocates_less () =
  let parked = pingpong_words_per_msg () in
  let arrived = arrived_words_per_msg () in
  Alcotest.(check bool)
    (Printf.sprintf "arrived receive (%.1f words/msg) below parked (%.1f)" arrived parked)
    true (arrived < parked)

let tests =
  [
    Alcotest.test_case "basic send/recv" `Quick test_basic_send_recv;
    Alcotest.test_case "status fields" `Quick test_status_fields;
    Alcotest.test_case "non-overtaking order" `Quick test_nonovertaking_same_pair;
    Alcotest.test_case "tag selectivity" `Quick test_tag_selectivity;
    Alcotest.test_case "wildcard oldest-first" `Quick test_any_source_oldest_first;
    Alcotest.test_case "probe then recv" `Quick test_probe_then_recv;
    Alcotest.test_case "iprobe empty" `Quick test_iprobe_empty;
    Alcotest.test_case "truncation error" `Quick test_truncation_error;
    Alcotest.test_case "invalid tag rejected" `Quick test_invalid_tag_rejected;
    Alcotest.test_case "invalid rank rejected" `Quick test_invalid_rank_rejected;
    Alcotest.test_case "ssend synchronous completion" `Quick test_ssend_completes_after_match;
    Alcotest.test_case "send is eager" `Quick test_send_is_eager;
    Alcotest.test_case "isend/irecv/wait" `Quick test_isend_irecv_wait;
    Alcotest.test_case "wait_any" `Quick test_wait_any;
    Alcotest.test_case "request idempotence" `Quick test_request_idempotent;
    Alcotest.test_case "recv from failed" `Quick test_recv_from_failed_raises;
    Alcotest.test_case "raw bytes transfer" `Quick test_send_bytes_roundtrip;
    Alcotest.test_case "sendrecv ring" `Quick test_sendrecv;
    Alcotest.test_case "mailbox: cancel after match fails" `Quick
      test_mailbox_cancel_after_match_fails;
    Alcotest.test_case "mailbox: drained keys reclaimed" `Quick
      test_mailbox_unexpected_reclaim;
    Alcotest.test_case "mailbox: posted list holds the live receives" `Quick
      test_mailbox_posted_list_live;
    Alcotest.test_case "mailbox: unexpected-first receives leave no residue" `Quick
      test_mailbox_unexpected_first_no_residue;
    QCheck_alcotest.to_alcotest prop_mailbox_matches_model;
    Alcotest.test_case "mailbox: wildcard oldest across keys" `Quick
      test_mailbox_wildcard_oldest_across_keys;
    Alcotest.test_case "pingpong byte volume" `Quick test_pingpong_byte_volume;
    Alcotest.test_case "deadlock report names comm source" `Quick
      test_deadlock_report_comm_source;
    Alcotest.test_case "ping-pong words per message" `Quick test_pingpong_allocation;
    Alcotest.test_case "arrived recv below parked recv" `Quick
      test_arrived_recv_allocates_less;
  ]

let () = Alcotest.run "p2p" [ ("p2p", tests) ]
