(* Tests for groups, communicator construction (dup/split/topology) and
   context isolation, plus the ULFM substrate (shrink/agree). *)

open Mpisim

let test_group_algebra () =
  let a = Group.of_ranks [| 0; 2; 4; 6 |] in
  let b = Group.of_ranks [| 4; 6; 8 |] in
  Alcotest.(check (array int)) "union" [| 0; 2; 4; 6; 8 |] (Group.union a b);
  Alcotest.(check (array int)) "intersection" [| 4; 6 |] (Group.intersection a b);
  Alcotest.(check (array int)) "difference" [| 0; 2 |] (Group.difference a b);
  Alcotest.(check (array int)) "incl" [| 2; 6 |] (Group.incl a [| 1; 3 |]);
  Alcotest.(check (array int)) "excl" [| 0; 4 |] (Group.excl a [| 1; 3 |]);
  Alcotest.(check bool) "mem" true (Group.mem a 4);
  Alcotest.(check bool) "not mem" false (Group.mem a 5);
  Alcotest.(check (option int)) "rank_of_world" (Some 2) (Group.rank_of_world a 4)

let test_group_rejects_duplicates () =
  Alcotest.check_raises "duplicate"
    (Errdefs.Usage_error "Group.of_ranks: duplicate rank 3") (fun () ->
      ignore (Group.of_ranks [| 1; 3; 3 |]))

let test_dup_isolation () =
  (* Messages sent on the duplicate must not match receives on the
     original. *)
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let dup = Comm_ops.dup comm in
        if Comm.rank comm = 0 then begin
          P2p.send dup Datatype.int ~dest:1 ~tag:3 [| 111 |];
          P2p.send comm Datatype.int ~dest:1 ~tag:3 [| 222 |];
          (0, 0)
        end
        else begin
          (* Receive on the original first: must get 222, not 111. *)
          let a, _ = P2p.recv comm Datatype.int ~source:0 () in
          let b, _ = P2p.recv dup Datatype.int ~source:0 () in
          (a.(0), b.(0))
        end)
  in
  Alcotest.(check (pair int int)) "contexts isolated" (222, 111) results.(1)

let test_split_by_parity () =
  let p = 7 in
  let results =
    Engine.run_values ~ranks:p (fun comm ->
        let r = Comm.rank comm in
        match Comm_ops.split comm ~color:(r mod 2) ~key:(-r) () with
        | None -> (-1, -1, [||])
        | Some sub ->
            (* key = -r: order reversed within each color *)
            let members = Coll.allgather sub Datatype.int [| r |] in
            (Comm.rank sub, Comm.size sub, members))
  in
  let rank0, size0, members0 = results.(0) in
  ignore rank0;
  Alcotest.(check int) "even group size" 4 size0;
  Alcotest.(check (array int)) "even members reversed" [| 6; 4; 2; 0 |] members0;
  let _, size1, members1 = results.(1) in
  Alcotest.(check int) "odd group size" 3 size1;
  Alcotest.(check (array int)) "odd members reversed" [| 5; 3; 1 |] members1

(* [Comm.rank_of_world] inverts the group on a contiguous communicator
   (dense array) and on a strided one (table sized to the group), and
   rejects a non-member; a wildcard receive on the strided communicator
   reports its source in communicator ranks. *)
let test_rank_of_world_dense_and_strided () =
  let results =
    Engine.run_values ~ranks:9 (fun comm ->
        let r = Comm.rank comm in
        let check sub =
          let n = Comm.size sub in
          let inverts =
            List.for_all
              (fun i -> Comm.rank_of_world sub (Comm.world_of_rank sub i) = i)
              (List.init n Fun.id)
          in
          let outsider =
            List.find (fun w -> not (Array.mem w (Comm.group sub))) [ 0; 1; 2; 3 ]
          in
          let rejects =
            match Comm.rank_of_world sub outsider with
            | _ -> false
            | exception Errdefs.Usage_error _ -> true
          in
          let dense =
            match sub.Comm.shared.Comm.inverse with Comm.Dense _ -> true | Sparse _ -> false
          in
          (inverts && rejects, dense)
        in
        let block = Option.get (Comm_ops.split comm ~color:(r / 3) ~key:(-r) ()) in
        let strided = Option.get (Comm_ops.split comm ~color:(r mod 3) ~key:(-r) ()) in
        let me = Comm.rank strided and n = Comm.size strided in
        P2p.send strided Datatype.int ~dest:((me + 1) mod n) [| me |];
        let got, st = P2p.recv strided Datatype.int () in
        ( check block,
          check strided,
          got.(0) = Status.source st && Status.source st = (me + n - 1) mod n ))
  in
  Array.iteri
    (fun w ((block_ok, block_dense), (strided_ok, strided_dense), ring_ok) ->
      Alcotest.(check (list bool))
        (Printf.sprintf "world %d: inverts, dense/sparse, ring source" w)
        [ true; true; true; false; true ]
        [ block_ok; block_dense; strided_ok; strided_dense; ring_ok ])
    results

let test_split_undefined_color () =
  let results =
    Engine.run_values ~ranks:4 (fun comm ->
        let r = Comm.rank comm in
        match Comm_ops.split comm ~color:(if r = 2 then -1 else 0) () with
        | None -> -1
        | Some sub -> Comm.size sub)
  in
  Alcotest.(check (array int)) "rank 2 excluded" [| 3; 3; -1; 3 |] results

let test_create_from_group () =
  let results =
    Engine.run_values ~ranks:5 (fun comm ->
        let g = Group.of_ranks [| 1; 3; 4 |] in
        match Comm_ops.create_from_group comm g with
        | None -> (-1, -1)
        | Some sub -> (Comm.rank sub, Comm.size sub))
  in
  Alcotest.(check (array (pair int int)))
    "membership and ranks"
    [| (-1, -1); (0, 3); (-1, -1); (1, 3); (2, 3) |]
    results

let test_split_then_collective () =
  (* Collectives on sub-communicators must not interfere. *)
  let results =
    Engine.run_values ~ranks:6 (fun comm ->
        let r = Comm.rank comm in
        let sub = Option.get (Comm_ops.split comm ~color:(r / 3) ~key:r ()) in
        Coll.allreduce_single sub Datatype.int Reduce_op.int_sum r)
  in
  Alcotest.(check (array int)) "per-subcomm sums" [| 3; 3; 3; 12; 12; 12 |] results

let test_topology_symmetry_check () =
  (* Asymmetric neighbor lists must be rejected at assertion level 2. *)
  let caught = ref false in
  (try
     ignore
       (Engine.run ~assertion_level:2 ~ranks:2 (fun comm ->
            let nbs = if Comm.rank comm = 0 then [| 1 |] else [||] in
            ignore (Comm_ops.dist_graph_create_adjacent comm ~sources:nbs ~destinations:nbs)))
   with
  | Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> caught := true
  | Errdefs.Usage_error _ -> caught := true);
  Alcotest.(check bool) "asymmetry rejected" true !caught

let test_shrink_after_failure () =
  let results, report =
    Engine.run_collect ~ranks:5 (fun comm ->
        if Comm.rank comm = 1 then Fault.die comm
        else begin
          let sub = Comm_ops.shrink comm in
          (Comm.rank sub, Comm.size sub, Coll.allreduce_single sub Datatype.int Reduce_op.int_sum 1)
        end)
  in
  Alcotest.(check (list int)) "killed" [ 1 ] report.Engine.killed;
  Array.iteri
    (fun r res ->
      match res with
      | None -> Alcotest.(check int) "victim" 1 r
      | Some (_, size, participants) ->
          Alcotest.(check int) "survivor count" 4 size;
          Alcotest.(check int) "all participated" 4 participants)
    results;
  (* New ranks are ordered by old rank. *)
  (match results.(0), results.(4) with
  | Some (nr0, _, _), Some (nr4, _, _) ->
      Alcotest.(check int) "rank 0 stays 0" 0 nr0;
      Alcotest.(check int) "rank 4 becomes 3" 3 nr4
  | _ -> Alcotest.fail "missing results")

let test_agree_over_survivors () =
  let results, _ =
    Engine.run_collect ~ranks:4 (fun comm ->
        if Comm.rank comm = 3 then Fault.die comm
        else Comm_ops.agree comm (Comm.rank comm <> 1))
  in
  (* Rank 1 contributed false: AND over survivors is false. *)
  Array.iteri
    (fun r res ->
      match res with
      | None -> Alcotest.(check int) "victim" 3 r
      | Some v -> Alcotest.(check bool) "agreed AND" false v)
    results

let test_revoked_comm_rejects_ops () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            Comm.revoke comm;
            ignore (Coll.allgather comm Datatype.int [| 1 |])))
   with
  | Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_revoked; _ }; _ } ->
      caught := true);
  Alcotest.(check bool) "revoked comm raises" true !caught

let tests =
  [
    Alcotest.test_case "group algebra" `Quick test_group_algebra;
    Alcotest.test_case "group duplicate rejection" `Quick test_group_rejects_duplicates;
    Alcotest.test_case "dup isolates contexts" `Quick test_dup_isolation;
    Alcotest.test_case "split by parity with keys" `Quick test_split_by_parity;
    Alcotest.test_case "split undefined color" `Quick test_split_undefined_color;
    Alcotest.test_case "rank_of_world dense and strided" `Quick
      test_rank_of_world_dense_and_strided;
    Alcotest.test_case "create from group" `Quick test_create_from_group;
    Alcotest.test_case "collectives on subcomms" `Quick test_split_then_collective;
    Alcotest.test_case "topology symmetry check" `Quick test_topology_symmetry_check;
    Alcotest.test_case "shrink after failure" `Quick test_shrink_after_failure;
    Alcotest.test_case "agree over survivors" `Quick test_agree_over_survivors;
    Alcotest.test_case "revoked comm rejects ops" `Quick test_revoked_comm_rejects_ops;
  ]

let () = Alcotest.run "comm_ops" [ ("comm_ops", tests) ]
