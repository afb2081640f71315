(* The repository benchmark: host cost of the simulator on four workloads.

   One invocation runs one workload as a closed loop: a step starts only
   after every rank finished the previous one.  A run is a sequence of
   rounds; each round is one [Engine.run] of a fixed number of steps on the
   sequential scheduler with [Virtual_only] clocks, so the simulated
   behaviour, and with it the host work, is identical in every round and
   every run.  [--seconds] fixes the number of rounds through the
   workload's nominal round time, so every run of a workload does the
   same work and a faster commit simply finishes sooner.  The first step
   of a run is a warm-up and is not measured.  Every step checks its
   output.

   [--trace 0] reports the end-to-end metrics.  [--trace 1] runs half the
   rounds untraced and half traced (a span around every public call the
   rank bodies make), then measures the standalone layer rows, and reports
   the per-layer metrics. *)

open Mpisim

(* Monotonic host clock, nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let x = q *. float (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted xs) 0.5

(* The highest whole percentile up to p95 with at least ten samples beyond
   it, but never below the median: (percentile, samples beyond it).  Above
   p95 the tail of a run on a shared host is set by how many of the host's
   rare load bursts fell into it, not by the program. *)
let tail_percentile n =
  let p = ref 50 in
  for q = 51 to 95 do
    if float n *. (1. -. (float q /. 100.)) >= 10. then p := q
  done;
  (!p, int_of_float (float n *. (1. -. (float !p /. 100.))))

let ratio a b = if b = 0. then 0. else a /. b

(* ---------- one round ---------- *)

(* Shared between the rank bodies of one round and the driver loop. *)
type ctx = {
  ranks : int;
  steps : int;
  phases : int;
  spans : Spans.t option;
  warmup : int;  (* unmeasured steps at the start of the round *)
  passed : int array;  (* ranks past the end of each phase *)
  (* At boundary 0 every rank has entered; boundary [i + 1] ends phase
     [i] (phase [i] is phase [i mod phases] of step [i / phases]). *)
  t_mark : float array;
  w_mark : float array;
  msgs_mark : int array;
  bytes_mark : float array;
  step_failed : bool array;
  mutable rt : Runtime.t option;
  mutable entered : int;
  mutable done_ranks : int;
  mutable t_done : float;
  mutable gc_start : Gc.stat option;  (* where measurement starts *)
  mutable gc_end : Gc.stat option;
}

let runtime ctx = match ctx.rt with Some rt -> rt | None -> assert false

(* Record boundary [b]: host time, minor words, messages and payload. *)
let stamp ctx b =
  let rt = runtime ctx in
  ctx.t_mark.(b) <- now ();
  ctx.w_mark.(b) <- Gc.minor_words ();
  ctx.msgs_mark.(b) <- Stats.count rt.Runtime.metrics.Runtime.msgs_sent;
  ctx.bytes_mark.(b) <- Stats.sum rt.Runtime.metrics.Runtime.msg_size;
  if b = ctx.warmup * ctx.phases then ctx.gc_start <- Some (Gc.quick_stat ());
  if b = ctx.steps * ctx.phases then ctx.gc_end <- Some (Gc.quick_stat ())

(* A rank reaches the end of [phase] of [step] and waits there until every
   rank has: phases, and so steps, do not overlap, and the last rank to
   arrive timestamps the boundary.  The wait is host-side only; it sends
   no message and moves no virtual clock. *)
let mark ctx ~step ~phase =
  let i = (step * ctx.phases) + phase in
  ctx.passed.(i) <- ctx.passed.(i) + 1;
  if ctx.passed.(i) < ctx.ranks then
    Scheduler.park ~describe:(fun () -> "perfbench phase boundary") ~poll:(fun () ->
        if ctx.passed.(i) = ctx.ranks then Some () else None)
  else stamp ctx (i + 1)

let fail_step ctx step = ctx.step_failed.(step) <- true

let posted ctx rank = (runtime ctx).Runtime.mailboxes.(rank).Mailbox.next_posted_id

(* Span around one public call; free when tracing is off. *)
let enter ctx comm ~layer ~op ~step =
  match ctx.spans with
  | None -> Spans.none
  | Some sp ->
      let rank = Comm.rank comm in
      Spans.start sp ~rank ~layer ~op ~step ~time:(now ()) ~words:(Gc.minor_words ())
        ~posted:(posted ctx rank)

let leave ctx comm s =
  match ctx.spans with
  | None -> ()
  | Some sp ->
      Spans.finish sp s ~time:(now ()) ~words:(Gc.minor_words ())
        ~posted:(posted ctx (Comm.rank comm))

type workload = {
  name : string;
  ranks : int;
  steps : int;  (* per round *)
  round_s : float;  (* nominal host seconds per round, sizing a run *)
  phase_names : step:int -> string array;  (* the label of each phase *)
  sizes : int * int * int;  (* elements per message: int, float, pair rows *)
  prepare : seed:int -> ctx -> Comm.t -> unit;  (* untimed; returns the rank body *)
}

(* Measurements of one round. *)
type round = {
  setup : float;
  setup_words_per_rank : float;
  teardown : float;
  steps : (int * float * int * float) list;  (* measured: index, seconds, msgs, bytes *)
  phases : (int * int * string * float * int * float) list;
      (* measured: step, phase, label, seconds, msgs, words *)
  msgs : int;
  words : float;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  makespan : float;
  report : Engine.report;
  pool_hits : int;
  pool_attempts : int;
}

exception Round_failed of { attempted : int; failed : int; error : string }

let run_round (w : workload) ~body ~spans ~warmup =
  let phases = Array.length (w.phase_names ~step:0) in
  let n = w.steps * phases in
  let ctx =
    {
      ranks = w.ranks;
      steps = w.steps;
      phases;
      spans;
      warmup;
      passed = Array.make n 0;
      t_mark = Array.make (n + 1) 0.;
      w_mark = Array.make (n + 1) 0.;
      msgs_mark = Array.make (n + 1) 0;
      bytes_mark = Array.make (n + 1) 0.;
      step_failed = Array.make w.steps false;
      rt = None;
      entered = 0;
      done_ranks = 0;
      t_done = 0.;
      gc_start = None;
      gc_end = None;
    }
  in
  let host = ref Spans.none in
  let t0 = now () in
  let w0 = Gc.minor_words () in
  (match spans with
  | Some sp ->
      host :=
        Spans.start sp ~rank:w.ranks ~layer:"engine" ~op:"run" ~step:(-1) ~time:t0 ~words:w0
          ~posted:0
  | None -> ());
  let trace_capacity = Option.map (fun _ -> 16) spans in
  let report =
    try
      Engine.run ~clock_mode:Runtime.Virtual_only ?trace_capacity ~ranks:w.ranks
        (fun comm ->
          if ctx.entered = 0 then ctx.rt <- Some (Comm.runtime comm);
          ctx.entered <- ctx.entered + 1;
          if ctx.entered = w.ranks then stamp ctx 0;
          (* Every rank enters before any step starts. *)
          Scheduler.yield ();
          body ctx comm;
          ctx.done_ranks <- ctx.done_ranks + 1;
          if ctx.done_ranks = w.ranks then ctx.t_done <- now ())
    with e ->
      let completed = ref 0 in
      Array.iteri
        (fun k c -> if c = w.ranks && (k + 1) mod phases = 0 then incr completed)
        ctx.passed;
      let failed = ref 1 in
      for k = 0 to !completed - 1 do
        if ctx.step_failed.(k) then incr failed
      done;
      raise
        (Round_failed
           { attempted = !completed + 1; failed = !failed; error = Printexc.to_string e })
  in
  let t1 = now () in
  (match spans with
  | Some sp -> Spans.finish sp !host ~time:t1 ~words:(Gc.minor_words ()) ~posted:0
  | None -> ());
  let measured = List.init (w.steps - warmup) (fun k -> k + warmup) in
  let steps =
    List.map
      (fun k ->
        let a = k * phases and b = (k + 1) * phases in
        ( k,
          ctx.t_mark.(b) -. ctx.t_mark.(a),
          ctx.msgs_mark.(b) - ctx.msgs_mark.(a),
          ctx.bytes_mark.(b) -. ctx.bytes_mark.(a) ))
      measured
  in
  let phase_list =
    List.concat_map
      (fun step ->
        let names = w.phase_names ~step in
        List.init phases (fun j ->
            let b = (step * phases) + j + 1 in
            ( step,
              j,
              names.(j),
              ctx.t_mark.(b) -. ctx.t_mark.(b - 1),
              ctx.msgs_mark.(b) - ctx.msgs_mark.(b - 1),
              ctx.w_mark.(b) -. ctx.w_mark.(b - 1) )))
      measured
  in
  let first = warmup * phases and last = n in
  let gc_a, gc_b =
    match (ctx.gc_start, ctx.gc_end) with Some a, Some b -> (a, b) | _ -> assert false
  in
  let rt = runtime ctx in
  let hits, attempts =
    Array.fold_left
      (fun (h, a) pool ->
        let hits, misses, _ = Wire.pool_stats pool in
        (h + hits, a + hits + misses))
      (0, 0) rt.Runtime.wire_pools
  in
  let failed = Array.fold_left (fun n f -> if f then n + 1 else n) 0 ctx.step_failed in
  ( {
      setup = ctx.t_mark.(0) -. t0;
      setup_words_per_rank = (ctx.w_mark.(0) -. w0) /. float w.ranks;
      teardown = t1 -. ctx.t_done;
      steps;
      phases = phase_list;
      msgs = ctx.msgs_mark.(last) - ctx.msgs_mark.(first);
      words = ctx.w_mark.(last) -. ctx.w_mark.(first);
      minor_gcs = gc_b.Gc.minor_collections - gc_a.Gc.minor_collections;
      major_gcs = gc_b.Gc.major_collections - gc_a.Gc.major_collections;
      promoted = gc_b.Gc.promoted_words -. gc_a.Gc.promoted_words;
      makespan = report.Engine.max_time;
      report;
      pool_hits = hits;
      pool_attempts = attempts;
    },
    failed )

(* ---------- workloads ---------- *)

let rng seed parts = Random.State.make (Array.of_list (seed :: parts))

(* p2p_small: two ranks ping-pong 1-int messages; even steps use raw
   [Mpisim.P2p], odd steps [Kamping.P2p]. *)
let p2p_small =
  let round_trips = 2000 in
  {
    name = "p2p_small";
    ranks = 2;
    steps = 100;
    round_s = 0.45;
    phase_names =
      (fun ~step -> [| (if step land 1 = 0 then "p2p.pingpong" else "kamping.pingpong") |]);
    sizes = (1, 1, 1);
    prepare =
      (fun ~seed ->
        let st = rng seed [ 1 ] in
        let vals = Array.init round_trips (fun _ -> Random.State.bits st) in
        fun ctx comm ->
          let kc = Kamping.Communicator.of_mpi comm in
          let me = Comm.rank comm in
          for step = 0 to ctx.steps - 1 do
            let raw = step land 1 = 0 in
            for i = 0 to round_trips - 1 do
              let v = vals.(i) lxor step in
              if me = 0 then begin
                let got =
                  if raw then begin
                    let s = enter ctx comm ~layer:"p2p" ~op:"send" ~step in
                    P2p.send comm Datatype.int ~dest:1 [| v |];
                    leave ctx comm s;
                    let s = enter ctx comm ~layer:"p2p" ~op:"recv" ~step in
                    let got, _ = P2p.recv comm Datatype.int ~source:1 () in
                    leave ctx comm s;
                    got
                  end
                  else begin
                    let s = enter ctx comm ~layer:"kamping" ~op:"send" ~step in
                    Kamping.P2p.send kc Datatype.int ~dest:1 [| v |];
                    leave ctx comm s;
                    let s = enter ctx comm ~layer:"kamping" ~op:"recv" ~step in
                    let got = Kamping.P2p.recv kc Datatype.int ~source:1 () in
                    leave ctx comm s;
                    got
                  end
                in
                if Array.length got <> 1 || got.(0) <> v then fail_step ctx step
              end
              else if raw then begin
                let s = enter ctx comm ~layer:"p2p" ~op:"recv" ~step in
                let got, _ = P2p.recv comm Datatype.int ~source:0 () in
                leave ctx comm s;
                let s = enter ctx comm ~layer:"p2p" ~op:"send" ~step in
                P2p.send comm Datatype.int ~dest:0 got;
                leave ctx comm s
              end
              else begin
                let s = enter ctx comm ~layer:"kamping" ~op:"recv" ~step in
                let got = Kamping.P2p.recv kc Datatype.int ~source:0 () in
                leave ctx comm s;
                let s = enter ctx comm ~layer:"kamping" ~op:"send" ~step in
                Kamping.P2p.send kc Datatype.int ~dest:0 got;
                leave ctx comm s
              end
            done;
            mark ctx ~step ~phase:0
          done);
  }

type pair = { key : int; value : float }

let pair_dt =
  let dt =
    Datatype.record2 "perfbench_pair"
      (Datatype.field "key" Datatype.int (fun r -> r.key))
      (Datatype.field "value" Datatype.float (fun r -> r.value))
      (fun key value -> { key; value })
  in
  Datatype.commit dt;
  dt

let int_sum a ~pos ~len =
  let h = ref 0 in
  for i = pos to pos + len - 1 do
    h := (!h * 31) + a.(i)
  done;
  !h

let float_sum a ~pos ~len =
  let h = ref 0. in
  for i = pos to pos + len - 1 do
    h := !h +. a.(i)
  done;
  !h

let pair_sum a ~pos ~len =
  let h = ref 0 and f = ref 0. in
  for i = pos to pos + len - 1 do
    h := (!h * 31) + a.(i).key;
    f := !f +. a.(i).value
  done;
  (!h, !f)

(* bulk_exchange: eight ranks run three exchanges per step, each through
   kamping (receive counts inferred) and through raw [Coll] (all counts
   given); the order of the two alternates by step.  Counts are skewed by
   (source + destination) but do not depend on the seed; the values do.
   A raw barrier and a raw allreduce_single of a seeded value end each
   step, so both collectives are measured without wide_coll's 16384
   ranks. *)
let bulk_exchange =
  let p = 8 in
  let int_count s d = 8192 + (1024 * ((s + d) mod p)) - 3584 in
  let pair_count s d = 128 + (16 * ((s + d) mod p)) - 56 in
  let float_count r = 16384 + if r land 1 = 0 then -1024 else 1024 in
  let exchanges = [| "alltoallv"; "allgatherv"; "alltoallv_pair" |] in
  {
    name = "bulk_exchange";
    ranks = p;
    steps = 12;
    round_s = 0.8;
    phase_names =
      (fun ~step ->
        let kamping_first = step land 1 = 0 in
        Array.append
          (Array.init 6 (fun j ->
               let layer = if (j land 1 = 0) = kamping_first then "kamping" else "coll" in
               layer ^ "." ^ exchanges.(j / 2)))
          [| "coll.barrier"; "coll.allreduce_single" |]);
    sizes = (8192, 16384, 128);
    prepare =
      (fun ~seed ->
        let ints =
          Array.init p (fun r ->
              let st = rng seed [ 2; r ] in
              Array.init 65536 (fun _ -> Random.State.bits st))
        in
        let floats =
          Array.init p (fun r ->
              let st = rng seed [ 3; r ] in
              Array.init (float_count r) (fun _ -> Random.State.float st 1.0))
        in
        let pairs =
          Array.init p (fun r ->
              let st = rng seed [ 4; r ] in
              Array.init 1024 (fun _ ->
                  { key = Random.State.bits st; value = Random.State.float st 1.0 }))
        in
        let counts f = Array.init p (fun s -> Array.init p (fun d -> f s d)) in
        let ic = counts int_count and pc = counts pair_count in
        let displs c = Array.map Coll.exclusive_prefix_sum c in
        let idis = displs ic and pdis = displs pc in
        (* expected.(src).(dst): checksum of the block src sends to dst *)
        let exp_int =
          Array.init p (fun s ->
              Array.init p (fun d -> int_sum ints.(s) ~pos:idis.(s).(d) ~len:ic.(s).(d)))
        in
        let exp_pair =
          Array.init p (fun s ->
              Array.init p (fun d -> pair_sum pairs.(s) ~pos:pdis.(s).(d) ~len:pc.(s).(d)))
        in
        let exp_float =
          Array.init p (fun s -> float_sum floats.(s) ~pos:0 ~len:(float_count s))
        in
        let fcounts = Array.init p float_count in
        let st = rng seed [ 5 ] in
        let vals = Array.init p (fun _ -> Random.State.int st 1000) in
        let total = Array.fold_left ( + ) 0 vals in
        fun ctx comm ->
          let kc = Kamping.Communicator.of_mpi comm in
          let me = Comm.rank comm in
          let recv_i = Array.init p (fun s -> ic.(s).(me)) in
          let recv_p = Array.init p (fun s -> pc.(s).(me)) in
          let rdis_i = Coll.exclusive_prefix_sum recv_i in
          let rdis_p = Coll.exclusive_prefix_sum recv_p in
          let fdis = Coll.exclusive_prefix_sum fcounts in
          let ok_len step out n = if Array.length out <> n then fail_step ctx step in
          let check_int step out =
            ok_len step out (Array.fold_left ( + ) 0 recv_i);
            for s = 0 to p - 1 do
              if int_sum out ~pos:rdis_i.(s) ~len:recv_i.(s) <> exp_int.(s).(me) then
                fail_step ctx step
            done
          in
          let check_float step out =
            ok_len step out (Array.fold_left ( + ) 0 fcounts);
            for s = 0 to p - 1 do
              if float_sum out ~pos:fdis.(s) ~len:fcounts.(s) <> exp_float.(s) then
                fail_step ctx step
            done
          in
          let check_pair step out =
            ok_len step out (Array.fold_left ( + ) 0 recv_p);
            for s = 0 to p - 1 do
              if pair_sum out ~pos:rdis_p.(s) ~len:recv_p.(s) <> exp_pair.(s).(me) then
                fail_step ctx step
            done
          in
          let exchange step e ~kamping =
            let layer = if kamping then "kamping" else "coll" in
            match e with
            | 0 ->
                let s = enter ctx comm ~layer ~op:"alltoallv" ~step in
                let out =
                  if kamping then
                    Kamping.Collectives.alltoallv kc Datatype.int ~send_counts:ic.(me)
                      ints.(me)
                  else
                    Coll.alltoallv comm Datatype.int ~send_counts:ic.(me)
                      ~send_displs:idis.(me) ~recv_counts:recv_i ~recv_displs:rdis_i
                      ints.(me)
                in
                leave ctx comm s;
                check_int step out
            | 1 ->
                let s = enter ctx comm ~layer ~op:"allgatherv" ~step in
                let out =
                  if kamping then
                    Kamping.Collectives.allgatherv kc Datatype.float floats.(me)
                  else Coll.allgatherv comm Datatype.float ~recv_counts:fcounts floats.(me)
                in
                leave ctx comm s;
                check_float step out
            | _ ->
                let s = enter ctx comm ~layer ~op:"alltoallv" ~step in
                let out =
                  if kamping then
                    Kamping.Collectives.alltoallv kc pair_dt ~send_counts:pc.(me) pairs.(me)
                  else
                    Coll.alltoallv comm pair_dt ~send_counts:pc.(me) ~send_displs:pdis.(me)
                      ~recv_counts:recv_p ~recv_displs:rdis_p pairs.(me)
                in
                leave ctx comm s;
                check_pair step out
          in
          for step = 0 to ctx.steps - 1 do
            let kamping_first = step land 1 = 0 in
            for e = 0 to 2 do
              exchange step e ~kamping:kamping_first;
              mark ctx ~step ~phase:(2 * e);
              exchange step e ~kamping:(not kamping_first);
              mark ctx ~step ~phase:((2 * e) + 1)
            done;
            let s = enter ctx comm ~layer:"coll" ~op:"barrier" ~step in
            Coll.barrier comm;
            leave ctx comm s;
            mark ctx ~step ~phase:6;
            let s = enter ctx comm ~layer:"coll" ~op:"allreduce_single" ~step in
            let sum =
              Coll.allreduce_single comm Datatype.int Reduce_op.int_sum (vals.(me) + step)
            in
            leave ctx comm s;
            if sum <> total + (p * step) then fail_step ctx step;
            mark ctx ~step ~phase:7
          done);
  }

(* wide_coll: 16384 ranks; even steps are one raw barrier, odd steps one
   raw allreduce_single of a seeded per-rank value. *)
let wide_coll =
  let p = 16384 in
  {
    name = "wide_coll";
    ranks = p;
    steps = 2;
    round_s = 1.4;
    phase_names =
      (fun ~step ->
        [| (if step land 1 = 0 then "coll.barrier" else "coll.allreduce_single") |]);
    sizes = (1, 1, 1);
    prepare =
      (fun ~seed ->
        let st = rng seed [ 5 ] in
        let vals = Array.init p (fun _ -> Random.State.int st 1000) in
        let total = Array.fold_left ( + ) 0 vals in
        fun ctx comm ->
          let me = Comm.rank comm in
          for step = 0 to ctx.steps - 1 do
            if step land 1 = 0 then begin
              let s = enter ctx comm ~layer:"coll" ~op:"barrier" ~step in
              Coll.barrier comm;
              leave ctx comm s
            end
            else begin
              let s = enter ctx comm ~layer:"coll" ~op:"allreduce_single" ~step in
              let sum =
                Coll.allreduce_single comm Datatype.int Reduce_op.int_sum (vals.(me) + step)
              in
              leave ctx comm s;
              if sum <> total + (p * step) then fail_step ctx step
            end;
            mark ctx ~step ~phase:0
          done);
  }

(* Sequential BFS over the gathered distributed graph: hop counts by
   global vertex id, [Bfs.Common.undef] where unreachable. *)
let sequential_bfs (graphs : Graphgen.Distgraph.t array) ~source =
  let g0 = graphs.(0) in
  let n = Graphgen.Distgraph.n_global g0 in
  let dist = Array.make n Bfs.Common.undef in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let g = graphs.(Graphgen.Distgraph.owner g0 u) in
    Graphgen.Distgraph.iter_neighbors g (Graphgen.Distgraph.local_of_global g u) (fun v ->
        if dist.(v) = Bfs.Common.undef then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

(* bfs_sparse: the Fig. 10 BFS over RGG-2D with the NBX sparse exchanger.
   Each step is a BFS from another source in the giant component.  Source
   [i] is drawn from the [i]-th of [sources] equal vertex-id ranges, which
   are strips of the unit square, so every seed spreads its sources over
   the square alike and a run's cost does not hinge on where a few random
   sources happen to fall. *)
let bfs_sparse =
  let p = 64 and n_per_rank = 256 and sources = 24 in
  {
    name = "bfs_sparse";
    ranks = p;
    steps = sources;
    round_s = 1.65;
    phase_names = (fun ~step:_ -> [| "bfs" |]);
    sizes = (16, 16, 16);
    prepare =
      (fun ~seed ->
        let graphs, _ =
          Engine.run_collect ~clock_mode:Runtime.Virtual_only ~ranks:p (fun comm ->
              Graphgen.Rgg2d.generate (Kamping.Communicator.of_mpi comm) ~n_per_rank ~seed
                ())
        in
        let graphs = Array.map Option.get graphs in
        let n = Graphgen.Distgraph.n_global graphs.(0) in
        let st = rng seed [ 6 ] in
        let stratum = n / sources in
        let picked =
          Array.init sources (fun i ->
              let rec pick tries =
                if tries = 0 then die "bfs_sparse: no giant component in the seed's graph";
                let source = (i * stratum) + Random.State.int st stratum in
                let dist = sequential_bfs graphs ~source in
                let reached =
                  Array.fold_left
                    (fun c d -> if d <> Bfs.Common.undef then c + 1 else c)
                    0 dist
                in
                if 2 * reached > n then (source, dist) else pick (tries - 1)
              in
              pick 1000)
        in
        fun ctx comm ->
          let kc = Kamping.Communicator.of_mpi comm in
          let g = graphs.(Comm.rank comm) in
          for step = 0 to ctx.steps - 1 do
            let source, expected = picked.(step mod sources) in
            let dist, frontier0 = Bfs.Common.initial_state g ~source in
            let frontier = ref frontier0 and level = ref 0 in
            let globally_empty f =
              let s = enter ctx comm ~layer:"kamping" ~op:"allreduce_single" ~step in
              let r =
                Kamping.Collectives.allreduce_single kc Datatype.bool Reduce_op.bool_and
                  (f = [])
              in
              leave ctx comm s;
              r
            in
            while not (globally_empty !frontier) do
              let next_local, buckets =
                Bfs.Common.expand_frontier g dist !frontier ~level:!level
              in
              let outgoing =
                Hashtbl.fold
                  (fun dest vs acc -> (dest, Array.of_list (List.rev vs)) :: acc)
                  buckets []
              in
              let s = enter ctx comm ~layer:"sparse" ~op:"alltoallv" ~step in
              let incoming =
                Kamping_plugins.Sparse_alltoall.alltoallv kc Datatype.int outgoing
              in
              leave ctx comm s;
              Bfs.Common.relax_received g dist
                (Array.concat (List.map snd incoming))
                ~level:!level next_local;
              frontier := !next_local;
              incr level
            done;
            for l = 0 to Graphgen.Distgraph.n_local g - 1 do
              if dist.(l) <> expected.(Graphgen.Distgraph.global_of_local g l) then
                fail_step ctx step
            done;
            mark ctx ~step ~phase:0
          done);
  }

let workloads = [ p2p_small; bulk_exchange; wide_coll; bfs_sparse ]

(* ---------- standalone layer rows ---------- *)

(* Nanoseconds (fastest of five loops, as for steps) and minor words per
   call of [f]. *)
let time_loop ~iters f =
  let ns = ref [] and ws = ref [] in
  for _ = 1 to 5 do
    let w0 = Gc.minor_words () in
    let t0 = now () in
    for _ = 1 to iters do
      f ()
    done;
    let t1 = now () in
    let w1 = Gc.minor_words () in
    ns := ((t1 -. t0) *. 1e9 /. float iters) :: !ns;
    ws := ((w1 -. w0) /. float iters) :: !ws
  done;
  (List.fold_left Float.min infinity !ns, median !ws)

type dt_row = {
  pack_ns : float;
  pack_words : float;
  unpack_ns : float;
  unpack_words : float;
}

(* Pack onto a [Wire] writer and unpack into caller storage, per element;
   [ok] is false if the round trip changed the data. *)
let datatype_row (type a) (dt : a Datatype.t) (data : a array) ~ok =
  let n = Array.length data in
  let per x = x /. float n in
  let iters = max 20 (400_000 / n) in
  let w = Wire.create_writer ~capacity:(Datatype.size_of_count dt n) () in
  let pack_ns, pack_words =
    time_loop ~iters (fun () ->
        Wire.reset w;
        Datatype.pack_array dt w data ~pos:0 ~count:n)
  in
  let bytes = Wire.contents w in
  let dst = Array.copy data in
  Array.fill dst 0 n (Datatype.zero_elem dt);
  let unpack_ns, unpack_words =
    time_loop ~iters (fun () ->
        Datatype.unpack_into dt (Wire.reader_of_bytes bytes) dst ~pos:0 ~count:n)
  in
  if dst <> data then ok := false;
  { pack_ns = per pack_ns; pack_words = per pack_words; unpack_ns = per unpack_ns;
    unpack_words = per unpack_words }

type rt_row = { inject_ns : float; match_ns : float; complete_ns : float; rt_words : float }

(* [Runtime.inject], [Mailbox.post] matching and [Runtime.complete_receive]
   on a bare runtime, outside any fiber: batches of [n]-int messages,
   alternating direction so both pools stay warm. *)
let runtime_row n ~ok =
  let rt =
    Runtime.create ~clock_mode:Runtime.Virtual_only ~model:Net_model.omnipath ~size:2 ()
  in
  let data = Array.init n (fun i -> i) in
  let cap = Datatype.size_of_count Datatype.int n in
  let signature = Datatype.signature_of_count Datatype.int n in
  let batch = 256 in
  let payloads = Array.make batch (Bytes.empty, 0) in
  let msgs = ref [||] in
  let inject = ref [] and matching = ref [] and complete = ref [] and words = ref [] in
  for round = 0 to 99 do
    let src = round land 1 in
    let dst = 1 - src in
    for i = 0 to batch - 1 do
      let w = Runtime.acquire_writer rt src ~capacity:cap in
      Datatype.pack_array Datatype.int w data ~pos:0 ~count:n;
      payloads.(i) <- Wire.unsafe_contents w
    done;
    let send i =
      let payload, payload_len = payloads.(i) in
      Runtime.inject rt ~context:0 ~src ~dst ~tag:0 ~payload ~payload_off:0 ~payload_len
        ~count:n ~signature ~sync:false
    in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    if round = 0 then msgs := Array.init batch send
    else
      for i = 0 to batch - 1 do
        !msgs.(i) <- send i
      done;
    let t1 = now () in
    let mb = rt.Runtime.mailboxes.(dst) in
    for i = 0 to batch - 1 do
      let p = Mailbox.post mb ~context:0 ~src ~tag:0 ~now:(Runtime.clock rt dst) in
      match p.Mailbox.p_msg with Some m when m == !msgs.(i) -> () | _ -> ok := false
    done;
    let t2 = now () in
    for i = 0 to batch - 1 do
      Runtime.complete_receive rt dst !msgs.(i)
    done;
    let t3 = now () in
    let w1 = Gc.minor_words () in
    Array.iter (Runtime.recycle_payload rt) !msgs;
    if round > 0 then begin
      let per x = x *. 1e9 /. float batch in
      inject := per (t1 -. t0) :: !inject;
      matching := per (t2 -. t1) :: !matching;
      complete := per (t3 -. t2) :: !complete;
      words := ((w1 -. w0) /. float batch) :: !words
    end
  done;
  let fastest = List.fold_left Float.min infinity in
  {
    inject_ns = fastest !inject;
    match_ns = fastest !matching;
    complete_ns = fastest !complete;
    rt_words = median !words;
  }

let wire_row n =
  let pool = Wire.create_pool () in
  let capacity = Datatype.size_of_count Datatype.int n in
  fst
    (time_loop ~iters:200_000 (fun () ->
         let w = Wire.acquire pool ~capacity in
         Wire.recycle pool (fst (Wire.unsafe_contents w))))

(* ---------- a run ---------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable top_heap_words : int;  (* after the third round of the process *)
}

(* [n] rounds, stopping at the first that raises, or early once [cap]
   host seconds are spent and three rounds are done (a heavily loaded host
   must not stretch a run without bound); the first step of the process is
   the warm-up. *)
let run_rounds w ~body ~spans ~n ~cap tally =
  let t0 = now () in
  let rounds = ref [] in
  let go = ref true in
  let over_time () = List.length !rounds >= 3 && now () -. t0 > cap in
  while !go && List.length !rounds < n && not (over_time ()) do
    let warmup = if tally.attempted = 0 then 1 else 0 in
    (match run_round w ~body ~spans ~warmup with
    | r, failed ->
        rounds := r :: !rounds;
        tally.attempted <- tally.attempted + w.steps;
        tally.failed <- tally.failed + failed;
        if tally.attempted = 3 * w.steps then
          tally.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words
    | exception Round_failed { attempted; failed; error } ->
        tally.attempted <- tally.attempted + attempted;
        tally.failed <- tally.failed + failed;
        tally.errors <- error :: tally.errors;
        go := false)
  done;
  List.rev !rounds

let sum_f f xs = List.fold_left (fun a x -> a +. f x) 0. xs

let sum_i f xs = List.fold_left (fun a x -> a + f x) 0 xs

let measured_steps rounds = sum_i (fun r -> List.length r.steps) rounds

(* Every round does the same work, so each step of a round, and each phase
   of a step, is timed once per round.  Other load on the shared host can
   only slow it down, so its least disturbed time is the minimum over the
   rounds (min-of-k).  Returns, per step or phase, the fastest entry. *)
let minima key dur entries =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl (key e) with
      | Some e' when dur e' <= dur e -> ()
      | _ -> Hashtbl.replace tbl (key e) e)
    entries;
  Hashtbl.fold (fun _ e acc -> e :: acc) tbl []

let step_minima rounds =
  minima
    (fun (k, _, _, _) -> k)
    (fun (_, d, _, _) -> d)
    (List.concat_map (fun r -> r.steps) rounds)

(* p50 over a round's steps, each at its fastest, with the seconds,
   messages and payload bytes of such a round. *)
let step_summary rounds =
  let mins = step_minima rounds in
  let durs = sorted (List.map (fun (_, d, _, _) -> d) mins) in
  ( quantile durs 0.5,
    Array.fold_left ( +. ) 0. durs,
    float (sum_i (fun (_, _, m, _) -> m) mins),
    sum_f (fun (_, _, _, b) -> b) mins )

(* The tail over every measured step of every round as it was timed, so
   that GC pauses and other slow steps count: (seconds, percentile, steps,
   steps beyond it). *)
let step_tail rounds =
  let durs =
    sorted (List.concat_map (fun r -> List.map (fun (_, d, _, _) -> d) r.steps) rounds)
  in
  let pct, beyond = tail_percentile (Array.length durs) in
  (quantile durs (float pct /. 100.), pct, Array.length durs, beyond)

(* The eight end-to-end metrics, plus a line naming the tail percentile. *)
let end_to_end rounds tally =
  let p50, secs, msgs, bytes = step_summary rounds in
  let tail, pct, n, beyond = step_tail rounds in
  ( [
      ("setup_s", median (List.map (fun r -> r.setup) rounds), "s");
      ("step_s_p50", p50, "s");
      ("step_s_tail", tail, "s");
      ("msgs_per_s", msgs /. secs, "1/s");
      ("payload_mb_per_s", bytes /. 1e6 /. secs, "MB/s");
      ( "minor_words_per_msg",
        sum_f (fun r -> r.words) rounds /. float (sum_i (fun r -> r.msgs) rounds),
        "words" );
      ("peak_heap_mb", float (tally.top_heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
      ( "step_success_ratio",
        float (tally.attempted - tally.failed) /. float tally.attempted,
        "ratio" );
    ],
    Printf.sprintf
      "p50: each step at its fastest of %d rounds; step_s_tail: p%d of all %d steps (%d \
       beyond it)"
      (List.length rounds) pct n beyond )

(* Phase statistics by label: (median over the phases with that label of
   their fastest time, mean msgs, mean words). *)
let phase_stats rounds label =
  let all = List.concat_map (fun r -> r.phases) rounds in
  let mine = List.filter (fun (_, _, l, _, _, _) -> String.equal l label) all in
  let mins = minima (fun (k, j, _, _, _, _) -> (k, j)) (fun (_, _, _, d, _, _) -> d) mine in
  let n = float (List.length mine) in
  ( median (List.map (fun (_, _, _, d, _, _) -> d) mins),
    sum_f (fun (_, _, _, _, m, _) -> float m) mine /. n,
    sum_f (fun (_, _, _, _, _, w) -> w) mine /. n )

let per_layer (w : workload) ~untraced ~traced ~sp ~ok =
  let labels =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map (fun (_, _, l, _, _, _) -> l) r.phases) untraced)
  in
  (* Labels are "<layer>.<exchange>": kamping.X pairs with the raw phase of
     the same X. *)
  let split l =
    match String.index_opt l '.' with
    | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
    | None -> (l, l)
  in
  let pairs =
    List.filter_map
      (fun l ->
        match split l with
        | "kamping", x ->
            List.find_opt (fun r -> r <> l && snd (split r) = x) labels
            |> Option.map (fun raw -> (x, phase_stats untraced l, phase_stats untraced raw))
        | _ -> None)
      labels
  in
  let kamp_call x =
    match List.find_opt (fun (s, _, _) -> s = x) pairs with
    | Some (_, (dk, _, _), (dr, _, _)) -> (dk -. dr) *. 1e9
    | None -> 0.
  in
  let raw_msgs = sum_f (fun (_, _, (_, m, _)) -> m) pairs in
  let kamp_ns_msg =
    ratio (sum_f (fun (_, (dk, _, _), (dr, _, _)) -> dk -. dr) pairs *. 1e9) raw_msgs
  in
  let kamp_words_msg =
    ratio (sum_f (fun (_, (_, _, wk), (_, _, wr)) -> wk -. wr) pairs) raw_msgs
  in
  let tot layer op = Spans.totals sp ~layer ~op in
  let per_call layer op f =
    let x = tot layer op in
    ratio (f x) (float x.Spans.calls)
  in
  (* a collective call is one operation on every rank *)
  let per_coll layer op f =
    let x = tot layer op in
    ratio (f x) (float x.Spans.calls /. float w.ranks)
  in
  let coll op =
    [
      (Printf.sprintf "coll.%s.self_s" op, per_coll "coll" op (fun x -> x.Spans.self), "s");
      (Printf.sprintf "coll.%s.wait_s" op, per_call "coll" op (fun x -> x.Spans.wait), "s");
      ( Printf.sprintf "coll.%s.msgs_per_call" op,
        per_coll "coll" op (fun x -> float x.Spans.posted),
        "count" );
    ]
  in
  let ni, nf, np = w.sizes in
  let st = rng 0 [ 7 ] in
  let dt_int =
    datatype_row Datatype.int (Array.init ni (fun _ -> Random.State.bits st)) ~ok
  in
  let dt_float =
    datatype_row Datatype.float (Array.init nf (fun _ -> Random.State.float st 1.)) ~ok
  in
  let dt_pair =
    datatype_row pair_dt
      (Array.init np (fun _ ->
           { key = Random.State.bits st; value = Random.State.float st 1. }))
      ~ok
  in
  let rtr = runtime_row ni ~ok in
  let wire_ns = wire_row ni in
  let n_int = float ni in
  let standalone_ns =
    wire_ns
    +. ((dt_int.pack_ns +. dt_int.unpack_ns) *. n_int)
    +. rtr.inject_ns +. rtr.match_ns +. rtr.complete_ns
  in
  let standalone_words =
    ((dt_int.pack_words +. dt_int.unpack_words) *. n_int) +. rtr.rt_words
  in
  let untraced_p50, untraced_secs, untraced_msgs, _ = step_summary untraced in
  let traced_p50, _, _, _ = step_summary traced in
  let measured_ns = ratio (untraced_secs *. 1e9) untraced_msgs in
  let measured_words =
    ratio (sum_f (fun r -> r.words) untraced) (float (sum_i (fun r -> r.msgs) untraced))
  in
  let steps_u = float (measured_steps untraced) in
  let stat_sum rounds f = sum_f (fun r -> f r.report.Engine.stats) rounds in
  let counter name s = float (Stats.count (Stats.counter s name)) in
  let hist name f s = f (Stats.histogram s name) in
  let profile_calls op =
    float
      (sum_i
         (fun r ->
           List.fold_left
             (fun a (o, c, _) -> if String.equal o op then a + c else a)
             0 r.report.Engine.profile)
         traced)
  in
  let levels = float (tot "sparse" "alltoallv").Spans.calls /. float w.ranks in
  let traced_steps = float (List.length traced * w.steps) in
  let per_step f = f untraced /. steps_u in
  let engine_median f = median (List.map f untraced) in
  [
    ("kamping.overhead_ns_per_msg", kamp_ns_msg, "ns");
    ("kamping.overhead_words_per_msg", kamp_words_msg, "words");
    ("kamping.overhead_ns_per_call.alltoallv", kamp_call "alltoallv", "ns");
    ("kamping.overhead_ns_per_call.allgatherv", kamp_call "allgatherv", "ns");
    ("kamping.overhead_ns_per_call.alltoallv_pair", kamp_call "alltoallv_pair", "ns");
    ("p2p.send.self_ns", per_call "p2p" "send" (fun x -> x.Spans.self *. 1e9), "ns");
    ("p2p.recv.self_ns", per_call "p2p" "recv" (fun x -> x.Spans.self *. 1e9), "ns");
    ("p2p.recv.wait_ns", per_call "p2p" "recv" (fun x -> x.Spans.wait *. 1e9), "ns");
  ]
  @ List.concat_map coll [ "barrier"; "allreduce_single"; "alltoallv"; "allgatherv" ]
  @ List.concat_map
      (fun (ty, r) ->
        [
          ("datatype.pack_ns_per_elem." ^ ty, r.pack_ns, "ns");
          ("datatype.unpack_ns_per_elem." ^ ty, r.unpack_ns, "ns");
          ("datatype.pack_words_per_elem." ^ ty, r.pack_words, "words");
          ("datatype.unpack_words_per_elem." ^ ty, r.unpack_words, "words");
        ])
      [ ("int", dt_int); ("float", dt_float); ("pair", dt_pair) ]
  @ [
      ("wire.acquire_recycle_ns", wire_ns, "ns");
      ( "wire.pool_hit_ratio",
        ratio
          (float (sum_i (fun r -> r.pool_hits) untraced))
          (float (sum_i (fun r -> r.pool_attempts) untraced)),
        "ratio" );
      ("runtime.inject_ns", rtr.inject_ns, "ns");
      ("runtime.complete_receive_ns", rtr.complete_ns, "ns");
      ("runtime.words_per_msg", rtr.rt_words, "words");
      ("mailbox.match_ns", rtr.match_ns, "ns");
      ( "mailbox.unexpected_ratio",
        ratio
          (stat_sum traced (counter "msg.unexpected"))
          (stat_sum traced (counter "msg.sent")),
        "ratio" );
      ( "mailbox.unexpected_depth_mean",
        ratio
          (stat_sum traced (hist "mailbox_unexpected_depth" Stats.sum))
          (stat_sum traced
             (hist "mailbox_unexpected_depth" (fun h -> float (Stats.total h)))),
        "count" );
      ("scheduler.residual_ns_per_msg", measured_ns -. standalone_ns, "ns");
      ("scheduler.residual_words_per_msg", measured_words -. standalone_words, "words");
      ( "scheduler.park_wall_s",
        stat_sum traced (hist "fiber_park_wall_seconds" Stats.sum) /. traced_steps,
        "s" );
      ( "sparse.alltoallv.self_s",
        per_coll "sparse" "alltoallv" (fun x -> x.Spans.self),
        "s" );
      ( "sparse.probe_hit_ratio",
        ratio (profile_calls "issend") (profile_calls "iprobe"),
        "ratio" );
      ("sparse.polls_per_level", ratio (profile_calls "iprobe") levels, "count");
      ("engine.setup_s", engine_median (fun r -> r.setup), "s");
      ("engine.teardown_s", engine_median (fun r -> r.teardown), "s");
      ( "engine.setup_words_per_rank",
        engine_median (fun r -> r.setup_words_per_rank),
        "words" );
      ( "gc.minor_collections_per_step",
        per_step (fun rs -> float (sum_i (fun r -> r.minor_gcs) rs)),
        "count" );
      ( "gc.major_collections_per_step",
        per_step (fun rs -> float (sum_i (fun r -> r.major_gcs) rs)),
        "count" );
      ("gc.promoted_words_per_step", per_step (sum_f (fun r -> r.promoted)), "words");
      ("trace.overhead_ratio", ratio traced_p50 untraced_p50 -. 1., "ratio");
      ("ledger.measured_ns_per_msg", measured_ns, "ns");
      ("ledger.standalone_ns_per_msg", standalone_ns, "ns");
      ("ledger.standalone_time_share", ratio standalone_ns measured_ns, "ratio");
      ("ledger.standalone_words_share", ratio standalone_words measured_words, "ratio");
    ]

(* ---------- command line ---------- *)

(* These select non-default scheduler, checking or collective paths. *)
let guarded_env =
  [ "MPISIM_DOMAINS"; "MPISIM_LOOKAHEAD"; "MPISIM_CHECK"; "MPISIM_COLL_ALGO" ]

(* Reference makespans: lines "<workload> <seed or *> <seconds>". *)
let reference path ~workload ~seed =
  if not (Sys.file_exists path) then die "makespan reference file %s not found" path;
  let ic = open_in path in
  let found = ref None in
  (try
     while true do
       match String.split_on_char ' ' (String.trim (input_line ic)) with
       | [ wl; s; v ] when wl = workload && (s = "*" || s = string_of_int seed) ->
           found := Some (float_of_string v)
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  !found

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-48s %.6g %s\n" name v unit) metrics;
  let buf = Buffer.create 4096 in
  let o = Json_out.start_obj buf in
  Json_out.key o "correct";
  Json_out.bool buf correct;
  Json_out.field_int o "attempted" attempted;
  Json_out.field_int o "failed" failed;
  Json_out.key o "metrics";
  let m = Json_out.start_obj buf in
  List.iter
    (fun (name, v, unit) ->
      Json_out.key m name;
      let e = Json_out.start_obj buf in
      Json_out.field_float e "value" (if Float.is_finite v then v else 0.);
      Json_out.field_str e "unit" unit;
      Json_out.end_obj e)
    metrics;
  Json_out.end_obj m;
  Json_out.end_obj o;
  print_endline (Buffer.contents buf)

let () =
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then
        die "%s is set; the benchmark measures the default sequential path, unset it" v)
    guarded_env;
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of p2p_small, bulk_exchange, wide_coll, bfs_sparse" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S nominal host seconds to measure");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end metrics (0) or traced per-layer metrics (1)" );
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let body = w.prepare ~seed:!seed in
  (* at least three rounds, so set-up is a median *)
  let rounds_for share =
    max 3 (Float.to_int (Float.round (share *. !seconds /. w.round_s)))
  in
  let cap share = 1.25 *. share *. !seconds in
  let tally = { attempted = 0; failed = 0; errors = []; top_heap_words = 0 } in
  let expected = reference "perfbench/makespans.txt" ~workload:w.name ~seed:!seed in
  let ok = ref true in
  let rounds, metrics =
    if !trace = 0 then begin
      let rounds =
        run_rounds w ~body ~spans:None ~n:(rounds_for 1.) ~cap:(cap 1.) tally
      in
      if rounds = [] then (rounds, [])
      else
        let metrics, tail = end_to_end rounds tally in
        print_endline tail;
        (rounds, metrics)
    end
    else begin
      let untraced =
        run_rounds w ~body ~spans:None ~n:(rounds_for 0.5) ~cap:(cap 0.5) tally
      in
      let sp = Spans.create ~ranks:w.ranks ~keep:20_000 in
      let traced =
        if tally.errors <> [] then []
        else run_rounds w ~body ~spans:(Some sp) ~n:(rounds_for 0.5) ~cap:(cap 0.5) tally
      in
      if untraced = [] || traced = [] then (untraced @ traced, [])
      else begin
        let metrics = per_layer w ~untraced ~traced ~sp ~ok in
        let file = Printf.sprintf ".bench_build/perfbench-%s.trace.json" w.name in
        mkdir_p (Filename.dirname file);
        Spans.write_chrome sp file;
        Printf.printf "trace: %s (%d spans not written)\n" file (Spans.dropped sp);
        (untraced @ traced, metrics)
      end
    end
  in
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev tally.errors);
  if not !ok then print_endline "error: a standalone layer row changed its data";
  let makespans = List.sort_uniq compare (List.map (fun r -> r.makespan) rounds) in
  let makespan_ok =
    match (makespans, expected) with
    | [ m ], Some e when m = e ->
        Printf.printf "makespan %.17g s matches the reference\n" m;
        true
    | [ m ], None ->
        Printf.printf "makespan %.17g s (every round agrees; no reference for seed %d)\n"
          m !seed;
        true
    | _ ->
        Printf.printf "error: makespans %s differ from the reference %s\n"
          (String.concat ", " (List.map (Printf.sprintf "%.17g") makespans))
          (match expected with Some e -> Printf.sprintf "%.17g" e | None -> "(none)");
        false
  in
  let correct =
    tally.failed = 0 && tally.errors = [] && !ok && makespan_ok && metrics <> []
  in
  print_result ~correct ~attempted:(max 1 tally.attempted) ~failed:tally.failed metrics;
  exit (if correct then 0 else 1)
