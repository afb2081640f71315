(* Point-to-point communication.

   Sends are eager (buffered): the payload is packed and injected
   immediately, so a blocking [send] never deadlocks against another send.
   [ssend] is synchronous: it completes only once the receiver has matched
   the message — the property the NBX sparse all-to-all algorithm (§V-A)
   depends on.

   Receives may be dynamic ([recv] allocates an exact-size buffer from the
   matched message) or MPI-style ([recv_into] with truncation checking).

   All functions operate in communicator ranks; translation to world ranks
   happens here. *)

let any_source = Mailbox.any_source

let any_tag = Mailbox.any_tag

(* Internal tag space for collective algorithms. *)
let internal_tag op_id = Comm.max_user_tag + 1 + op_id

(* A message carries a tag in [0, Mailbox.max_tag]: a user tag or an
   internal one.  The mailbox packs (source, tag) into one int key, so a
   larger tag would alias another source's key.  Receives and probes may
   also name [any_tag]. *)
let check_tag tag =
  if tag < 0 || tag > Mailbox.max_tag then Errdefs.usage_error "invalid tag %d" tag

let check_recv_tag tag = if tag <> any_tag then check_tag tag

let check_alive_self comm = Runtime.check_alive (Comm.runtime comm) (Comm.world_rank comm)

let check_dest_alive comm ~op dest =
  let w = Comm.world_of_rank comm dest in
  if Runtime.is_failed (Comm.runtime comm) w then
    Comm.error comm Errdefs.Err_proc_failed "%s: destination rank %d has failed" op dest

let check_revoked comm ~op =
  if Comm.is_revoked comm then
    Comm.error comm Errdefs.Err_revoked "%s: communicator revoked" op

(* Trace span around a blocking point-to-point operation.  Eager sends are
   not wrapped (the runtime's "send" instant already marks them); blocking
   receives, synchronous sends and probes are where virtual time is spent.
   Callers test [tracing] first, so an untraced call builds no closure. *)
let tracing comm = Trace.enabled (Comm.runtime comm).Runtime.trace

let traced comm ~op f =
  Runtime.with_span (Comm.runtime comm) (Comm.world_rank comm) ~cat:"p2p" ~name:op f

(* Sanitizer hooks.  All are guarded on the checker's level at the call
   site so the off path is one load and branch, no allocation.

   The waiting table feeds the deadlock wait-for graph: an entry is set
   just before a fiber parks on a blocking operation and cleared on normal
   resume.  Error paths deliberately leave the entry in place — when the
   scheduler aborts parked fibers on deadlock, the stale entries are
   exactly the data the cycle report needs. *)
let checker comm = (Comm.runtime comm).Runtime.check

let set_waiting_recv comm ~op ~src_world ~tag =
  Check.set_waiting (checker comm) ~rank:(Comm.world_rank comm)
    (Check.Wrecv { src = src_world; tag; ctx = Comm.context comm; op })

let clear_waiting comm = Check.clear_waiting (checker comm) ~rank:(Comm.world_rank comm)

(* Pack [count] elements of [data] starting at [pos] and inject the message.
   Returns the in-flight message; the caller records the op in the PMPI
   profile.

   Zero-copy plane: the pack goes into a pooled per-rank writer, and the
   writer's storage is transferred into the message via [unsafe_contents]
   — no [Wire.contents] copy.  The storage returns to a pool when the
   receiver finishes unpacking ([Runtime.recycle_payload]). *)
let inject_message comm (dt : 'a Datatype.t) ~op ~dest ~tag ~sync (data : 'a array) ~pos
    ~count =
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  check_alive_self comm;
  (* Internal collective traffic (reserved tags) is exempt from the
     revocation entry check: the collective already checked at entry, and
     its in-flight exchanges must be allowed to drain after a revoke. *)
  if tag <= Comm.max_user_tag then check_revoked comm ~op;
  check_dest_alive comm ~op dest;
  if rt.Runtime.assertion_level >= 1 && not (Datatype.is_committed dt) then
    Errdefs.usage_error "%s: datatype %s is not committed" op (Datatype.name dt);
  let w = Runtime.acquire_writer rt me ~capacity:(max 8 (Datatype.size_of_count dt count)) in
  Datatype.pack_array dt w data ~pos ~count;
  let payload, payload_len = Wire.unsafe_contents w in
  Runtime.charge_copy rt me ~bytes:payload_len;
  Runtime.inject rt ~context:(Comm.context comm) ~src:me
    ~dst:(Comm.world_of_rank comm dest) ~tag ~payload ~payload_off:0 ~payload_len ~count
    ~signature:(Datatype.signature_of_count dt count)
    ~sync

let send_range_impl comm dt ~dest ~tag data ~pos ~count =
  check_tag tag;
  Comm.check_rank comm dest;
  let msg = inject_message comm dt ~op:"send" ~dest ~tag ~sync:false data ~pos ~count in
  Runtime.record_send (Comm.runtime comm) ~bytes:(Message.bytes msg)

let send_range comm dt ~dest ?(tag = 0) (data : 'a array) ~pos ~count =
  send_range_impl comm dt ~dest ~tag data ~pos ~count

let send_impl comm dt ~dest ~tag (data : 'a array) =
  Comm.check_user_tag comm tag;
  send_range_impl comm dt ~dest ~tag data ~pos:0 ~count:(Array.length data)

let send comm dt ~dest ?(tag = 0) data = send_impl comm dt ~dest ~tag data

(* Completion time of a synchronous send: the match time plus the latency
   of the (modelled) acknowledgement. *)
let ssend_complete_time rt (msg : Message.t) =
  msg.Message.matched_time +. Net_model.transit_time rt.Runtime.model

let issend_request comm (msg : Message.t) =
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  Request.make
    ~ready:(fun () -> Message.is_matched msg)
    ~finalize:(fun () ->
      Runtime.sync_clock rt me (ssend_complete_time rt msg);
      Status.make ~source:(Comm.rank comm) ~tag:msg.Message.tag ~count:msg.Message.count
        ~bytes:(Message.bytes msg))
    ~describe:(fun () -> Format.asprintf "issend %a" Message.pp msg)

(* Inject a synchronous message; the caller records it. *)
let inject_sync comm dt ~op ~dest ~tag data =
  Comm.check_user_tag comm tag;
  Comm.check_rank comm dest;
  inject_message comm dt ~op ~dest ~tag ~sync:true data ~pos:0 ~count:(Array.length data)

let ssend_impl comm dt ~dest ~tag (data : 'a array) =
  let msg = inject_sync comm dt ~op:"ssend" ~dest ~tag data in
  Runtime.record (Comm.runtime comm) ~op:"ssend" ~bytes:(Message.bytes msg);
  let chk = checker comm in
  if Check.enabled chk then
    Check.set_waiting chk ~rank:(Comm.world_rank comm)
      (Check.Wssend { dst = Comm.world_of_rank comm dest; tag; op = "ssend" });
  ignore (Request.wait (issend_request comm msg));
  if Check.enabled chk then clear_waiting comm

let ssend comm dt ~dest ?(tag = 0) data =
  if tracing comm then
    traced comm ~op:"ssend" (fun () -> ssend_impl comm dt ~dest ~tag data)
  else ssend_impl comm dt ~dest ~tag data

let isend comm dt ~dest ?(tag = 0) (data : 'a array) =
  Comm.check_user_tag comm tag;
  Comm.check_rank comm dest;
  let count = Array.length data in
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let msg = inject_message comm dt ~op:"isend" ~dest ~tag ~sync:false data ~pos:0 ~count in
  Runtime.record rt ~op:"isend" ~bytes:(Message.bytes msg);
  let complete_at = Runtime.clock rt me in
  let req =
    Request.make
      ~ready:(fun () -> true)
      ~finalize:(fun () ->
        Runtime.sync_clock rt me complete_at;
        Status.make ~source:(Comm.rank comm) ~tag ~count ~bytes:(Message.bytes msg))
      ~describe:(fun () -> "isend")
  in
  if Check.enabled rt.Runtime.check then
    Check.track_request rt.Runtime.check ~rank:me ~kind:"isend" req;
  req

let issend comm dt ~dest ?(tag = 0) (data : 'a array) =
  let msg = inject_sync comm dt ~op:"issend" ~dest ~tag data in
  let rt = Comm.runtime comm in
  Runtime.record_prepared rt rt.Runtime.prof_issend ~bytes:(Message.bytes msg);
  let req = issend_request comm msg in
  let chk = checker comm in
  if Check.enabled chk then
    Check.track_request chk ~rank:(Comm.world_rank comm) ~kind:"issend" req;
  req

(* ------------------------------------------------------------------ *)
(* Receives *)

let my_mailbox comm =
  (Comm.runtime comm).Runtime.mailboxes.(Comm.world_rank comm)

(* Check a receive pattern and translate its source to a world rank. *)
let source_world comm ~source ~tag =
  check_recv_tag tag;
  if source = any_source then any_source
  else begin
    Comm.check_rank comm source;
    Comm.world_of_rank comm source
  end

(* Wildcard-race detection (heavy): a wildcard receive that could match
   two or more already-queued messages is resolved by arrival order, i.e.
   by the schedule.  Receives that park and match on delivery see exactly
   one candidate, so probing the queue just before posting captures every
   ambiguous match. *)
let note_wildcard comm ~src_world ~tag =
  if src_world = any_source || tag = any_tag then begin
    let eligible =
      Mailbox.count_eligible (my_mailbox comm) ~context:(Comm.context comm) ~src:src_world
        ~tag
    in
    if eligible >= 2 then
      Check.on_wildcard_match (checker comm) ~rank:(Comm.world_rank comm) ~src:src_world
        ~tag ~eligible
  end

(* Analyzer-mode instants: which receive was posted with which pattern
   ("post": a=src b=tag c=ctx d=post id) and which message it finally
   matched ("matched": a=post id, b=msg seq, c=ctx, d=actual src).  Only
   emitted when vector clocks are on (trace-analysis runs), so ordinary
   traces keep their exact event mix; otherwise each is one branch. *)
let note_post comm (p : Mailbox.posted) =
  let rt = Comm.runtime comm in
  if Array.length rt.Runtime.vclocks > 0 then
    Trace.instant_d rt.Runtime.trace ~rank:(Comm.world_rank comm) ~cat:"sim" ~name:"post"
      ~a:p.Mailbox.p_src ~b:p.Mailbox.p_tag ~c:p.Mailbox.p_context ~d:p.Mailbox.p_id

let note_matched comm (p : Mailbox.posted) (msg : Message.t) =
  let rt = Comm.runtime comm in
  if Array.length rt.Runtime.vclocks > 0 then
    Trace.instant_d rt.Runtime.trace ~rank:(Comm.world_rank comm) ~cat:"sim"
      ~name:"matched" ~a:p.Mailbox.p_id ~b:msg.Message.seq ~c:p.Mailbox.p_context
      ~d:msg.Message.src

(* Post a receive for (src_world, tag) on this communicator at the
   receiver's current clock. *)
let post_recv comm ~src_world ~tag =
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  if Check.heavy rt.Runtime.check then note_wildcard comm ~src_world ~tag;
  let p =
    Mailbox.post rt.Runtime.mailboxes.(me) ~context:(Comm.context comm) ~src:src_world ~tag
      ~now:(Runtime.clock rt me)
  in
  note_post comm p;
  p

let check_signature comm (dt : 'a Datatype.t) (msg : Message.t) ~op =
  let rt = Comm.runtime comm in
  if
    rt.Runtime.assertion_level >= 1
    && not
         (Signature.matches_repeat msg.Message.signature ~unit:dt.Datatype.signature
            msg.Message.count)
  then
    Comm.error comm Errdefs.Err_type
      "%s: type signature mismatch: receiving as %s but message from rank %d has %s" op
      (Signature.to_string (Datatype.signature_of_count dt msg.Message.count))
      msg.Message.src
      (Signature.to_string msg.Message.signature)

(* Wake conditions of a posted receive besides a match.  The source died
   (a wildcard never fails this way)... *)
let source_failed comm ~src_world =
  src_world <> any_source && Runtime.is_failed (Comm.runtime comm) src_world

(* ...or the communicator was revoked.  A revoked communicator only aborts
   a receive once the source has itself observed the revocation (or died,
   or is a wildcard): until then the source may still complete the
   in-flight exchange, and waking early would tear down collectives that
   could drain. *)
let revocation_abort comm ~src_world =
  Comm.revoked_flag comm
  && (src_world = any_source || Comm.revocation_reached comm ~world:src_world)

let recv_ready comm ~src_world (p : Mailbox.posted) =
  match p.Mailbox.p_msg with
  | Some _ -> true
  | None -> source_failed comm ~src_world || revocation_abort comm ~src_world

(* The source is printed in communicator ranks, like the rank itself. *)
let describe_recv comm ~op (p : Mailbox.posted) () =
  let src = p.Mailbox.p_src in
  Printf.sprintf "%s on rank %d (ctx %d, src %d, tag %d)" op (Comm.rank comm)
    (Comm.context comm)
    (if src = any_source then any_source else Comm.rank_of_world comm src)
    p.Mailbox.p_tag

(* Wait until the posted receive [p] matches, also waking on source failure
   or revocation; then retire it.  Returns the matched message or raises.
   Only a receive that really parks allocates: the poll and describe it
   hands to the scheduler. *)
let take_matched comm ~op ~src_world (p : Mailbox.posted) =
  if not (recv_ready comm ~src_world p) then begin
    let chk = checker comm in
    if Check.enabled chk then set_waiting_recv comm ~op ~src_world ~tag:p.Mailbox.p_tag;
    Scheduler.park ~describe:(describe_recv comm ~op p) ~poll:(fun () ->
        if recv_ready comm ~src_world p then Some () else None);
    if Check.enabled chk then clear_waiting comm
  end;
  match p.Mailbox.p_msg with
  | Some msg ->
      Mailbox.retire (my_mailbox comm) p;
      note_matched comm p msg;
      msg
  | None ->
      Mailbox.cancel (my_mailbox comm) p;
      if revocation_abort comm ~src_world then
        Comm.error comm Errdefs.Err_revoked "%s: communicator revoked" op
      else Comm.error comm Errdefs.Err_proc_failed "%s: source rank has failed" op

let status_of comm (msg : Message.t) =
  Status.make
    ~source:(Comm.rank_of_world comm msg.Message.src)
    ~tag:msg.Message.tag ~count:msg.Message.count ~bytes:(Message.bytes msg)

(* Receiver-side accounting of a matched message: signature check, clock
   accounting and the unpack charge.  The caller records the op. *)
let complete_matched comm dt ~op (msg : Message.t) =
  let rt = Comm.runtime comm in
  check_signature comm dt msg ~op;
  Runtime.complete_receive rt (Comm.world_rank comm) msg;
  Runtime.charge_copy rt (Comm.world_rank comm) ~bytes:(Message.bytes msg)

(* Dynamic receive: allocates an exact-size result from the message. *)
let recv_impl comm (dt : 'a Datatype.t) ~source ~tag : 'a array * Status.t =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  let src_world = source_world comm ~source ~tag in
  let p = post_recv comm ~src_world ~tag in
  let msg = take_matched comm ~op:"recv" ~src_world p in
  complete_matched comm dt ~op:"recv" msg;
  Runtime.record_recv rt ~bytes:(Message.bytes msg);
  let status = status_of comm msg in
  let data = Datatype.unpack_array dt (Message.reader msg) ~count:msg.Message.count in
  Runtime.recycle_payload rt msg;
  (data, status)

let recv comm dt ?(source = any_source) ?(tag = any_tag) () =
  if tracing comm then traced comm ~op:"recv" (fun () -> recv_impl comm dt ~source ~tag)
  else recv_impl comm dt ~source ~tag

(* The receive count bound: [maxcount], or the space after [pos]. *)
let check_recv_range ~op into ~pos ~maxcount =
  let maxcount = match maxcount with Some c -> c | None -> Array.length into - pos in
  if maxcount < 0 || pos < 0 || pos + maxcount > Array.length into then
    Errdefs.usage_error "%s: invalid range (pos %d, maxcount %d, len %d)" op pos maxcount
      (Array.length into);
  maxcount

(* MPI-style receive into a caller-provided buffer. *)
let recv_into_impl comm (dt : 'a Datatype.t) ~source ~tag ~pos ~maxcount (into : 'a array)
    : Status.t =
  check_alive_self comm;
  let maxcount = check_recv_range ~op:"recv_into" into ~pos ~maxcount in
  let rt = Comm.runtime comm in
  let src_world = source_world comm ~source ~tag in
  let p = post_recv comm ~src_world ~tag in
  let msg = take_matched comm ~op:"recv" ~src_world p in
  if msg.Message.count > maxcount then
    Comm.error comm Errdefs.Err_truncate
      "recv: message of %d elements truncated to buffer of %d" msg.Message.count maxcount;
  complete_matched comm dt ~op:"recv" msg;
  Runtime.record_recv rt ~bytes:(Message.bytes msg);
  let status = status_of comm msg in
  Datatype.unpack_into dt (Message.reader msg) into ~pos ~count:msg.Message.count;
  Runtime.recycle_payload rt msg;
  status

let recv_into comm dt ?(source = any_source) ?(tag = any_tag) ?(pos = 0) ?maxcount into =
  if tracing comm then
    traced comm ~op:"recv_into" (fun () ->
        recv_into_impl comm dt ~source ~tag ~pos ~maxcount into)
  else recv_into_impl comm dt ~source ~tag ~pos ~maxcount into

(* A receive request over posted receive [p]: ready on match or source
   failure; [finish] consumes the matched message and returns the
   status. *)
let posted_request comm ~src_world ~kind ~describe (p : Mailbox.posted) finish =
  let rt = Comm.runtime comm in
  let req =
    Request.make
      ~ready:(fun () ->
        match p.Mailbox.p_msg with
        | Some _ -> true
        | None -> source_failed comm ~src_world)
      ~finalize:(fun () ->
        match p.Mailbox.p_msg with
        | None ->
            Mailbox.cancel (my_mailbox comm) p;
            Comm.error comm Errdefs.Err_proc_failed "irecv: source rank has failed"
        | Some msg ->
            Mailbox.retire (my_mailbox comm) p;
            note_matched comm p msg;
            finish msg)
      ~describe
  in
  if Check.enabled rt.Runtime.check then
    Check.track_request rt.Runtime.check ~rank:(Comm.world_rank comm) ~kind req;
  req

(* Non-blocking receive into a caller-provided buffer. *)
let irecv_into comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag)
    ?(pos = 0) ?maxcount (into : 'a array) : Request.t =
  check_alive_self comm;
  let maxcount = check_recv_range ~op:"irecv" into ~pos ~maxcount in
  let rt = Comm.runtime comm in
  let src_world = source_world comm ~source ~tag in
  let p = post_recv comm ~src_world ~tag in
  posted_request comm ~src_world ~kind:"irecv" p
    ~describe:(fun () ->
      Printf.sprintf "irecv on rank %d (src %d, tag %d)" (Comm.rank comm) source tag)
    (fun msg ->
      if msg.Message.count > maxcount then
        Comm.error comm Errdefs.Err_truncate "irecv: message truncated";
      complete_matched comm dt ~op:"irecv" msg;
      Runtime.record rt ~op:"irecv" ~bytes:(Message.bytes msg);
      let status = status_of comm msg in
      Datatype.unpack_into dt (Message.reader msg) into ~pos ~count:msg.Message.count;
      Runtime.recycle_payload rt msg;
      status)

(* ------------------------------------------------------------------ *)
(* Probing *)

let find_unexpected comm ~src_world ~tag =
  Mailbox.find_unexpected ~remove:false (my_mailbox comm) ~context:(Comm.context comm)
    ~src:src_world ~tag

let iprobe comm ?(source = any_source) ?(tag = any_tag) () : Status.t option =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  Runtime.record_prepared rt rt.Runtime.prof_iprobe ~bytes:0;
  let src_world = source_world comm ~source ~tag in
  match find_unexpected comm ~src_world ~tag with
  | None -> None
  | Some msg ->
      (* Probing observes the message only once it has arrived. *)
      Runtime.sync_clock rt (Comm.world_rank comm) msg.Message.arrival;
      Some (status_of comm msg)

let probe_impl comm ~source ~tag : Status.t =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  Runtime.record rt ~op:"probe" ~bytes:0;
  let src_world = source_world comm ~source ~tag in
  let msg =
    match find_unexpected comm ~src_world ~tag with
    | Some m -> m
    | None ->
        if Check.enabled (checker comm) then
          set_waiting_recv comm ~op:"probe" ~src_world ~tag;
        let m =
          Scheduler.park
            ~describe:(fun () ->
              Printf.sprintf "probe on rank %d (src %d, tag %d)" (Comm.rank comm) source tag)
            ~poll:(fun () -> find_unexpected comm ~src_world ~tag)
        in
        if Check.enabled (checker comm) then clear_waiting comm;
        m
  in
  Runtime.sync_clock rt (Comm.world_rank comm) msg.Message.arrival;
  status_of comm msg

let probe comm ?(source = any_source) ?(tag = any_tag) () =
  if tracing comm then traced comm ~op:"probe" (fun () -> probe_impl comm ~source ~tag)
  else probe_impl comm ~source ~tag

(* Combined send+receive, deadlock-free because sends are eager. *)
let sendrecv comm dt ~dest ?(send_tag = 0) ~source ?(recv_tag = any_tag) (data : 'a array)
    : 'a array * Status.t =
  send_impl comm dt ~dest ~tag:send_tag data;
  recv comm dt ~source ~tag:recv_tag ()

(* ------------------------------------------------------------------ *)
(* Raw byte transfers (serialization fast path) and typed dynamic
   non-blocking receives *)

let blob_signature bytes_len = Signature.of_base ~count:bytes_len Signature.Blob

(* Send a raw byte payload without datatype packing; matched by
   [recv_bytes].  The element count equals the byte length.  The single
   defensive copy (the caller keeps ownership of [payload]) goes straight
   into a pooled wire buffer, so the path allocates nothing once the pool
   is warm. *)
let send_bytes comm ~dest ?(tag = 0) (payload : Bytes.t) =
  check_tag tag;
  Comm.check_rank comm dest;
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  check_alive_self comm;
  check_revoked comm ~op:"send_bytes";
  check_dest_alive comm ~op:"send_bytes" dest;
  let len = Bytes.length payload in
  let w = Runtime.acquire_writer rt me ~capacity:(max 8 len) in
  Wire.put_bytes w payload ~pos:0 ~len;
  let storage, payload_len = Wire.unsafe_contents w in
  ignore
    (Runtime.inject rt ~context:(Comm.context comm) ~src:me
       ~dst:(Comm.world_of_rank comm dest) ~tag ~payload:storage ~payload_off:0
       ~payload_len ~count:len ~signature:(blob_signature len) ~sync:false);
  Runtime.record_send rt ~bytes:len

let recv_bytes_impl comm ~source ~tag : Bytes.t * Status.t =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  let src_world = source_world comm ~source ~tag in
  let p = post_recv comm ~src_world ~tag in
  let msg = take_matched comm ~op:"recv" ~src_world p in
  Runtime.complete_receive rt (Comm.world_rank comm) msg;
  Runtime.charge_copy rt (Comm.world_rank comm) ~bytes:(Message.bytes msg);
  Runtime.record_recv rt ~bytes:(Message.bytes msg);
  let status = status_of comm msg in
  let data = Message.payload_copy msg in
  Runtime.recycle_payload rt msg;
  (data, status)

let recv_bytes comm ?(source = any_source) ?(tag = any_tag) () =
  if tracing comm then
    traced comm ~op:"recv_bytes" (fun () -> recv_bytes_impl comm ~source ~tag)
  else recv_bytes_impl comm ~source ~tag

(* A non-blocking receive whose buffer is allocated at completion time from
   the matched message — the substrate for the binding layer's
   ownership-safe non-blocking results (§III-E). *)
type 'a dyn_request = { base : Request.t; cell : 'a array option ref }

let irecv_dyn comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag) () :
    'a dyn_request =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  let src_world = source_world comm ~source ~tag in
  let p = post_recv comm ~src_world ~tag in
  let cell = ref None in
  let base =
    posted_request comm ~src_world ~kind:"irecv_dyn" p
      ~describe:(fun () ->
        Printf.sprintf "irecv_dyn on rank %d (src %d, tag %d)" (Comm.rank comm) source tag)
      (fun msg ->
        complete_matched comm dt ~op:"irecv" msg;
        Runtime.record rt ~op:"irecv" ~bytes:(Message.bytes msg);
        let status = status_of comm msg in
        cell :=
          Some (Datatype.unpack_array dt (Message.reader msg) ~count:msg.Message.count);
        Runtime.recycle_payload rt msg;
        status)
  in
  { base; cell }

let dyn_wait (r : 'a dyn_request) : 'a array * Status.t =
  let status = Request.wait r.base in
  match !(r.cell) with
  | Some data -> (data, status)
  | None -> Errdefs.usage_error "dyn_wait: request finalized without data"

let dyn_test (r : 'a dyn_request) : ('a array * Status.t) option =
  match Request.test r.base with
  | None -> None
  | Some status -> (
      match !(r.cell) with
      | Some data -> Some (data, status)
      | None -> Errdefs.usage_error "dyn_test: request finalized without data")

(* ------------------------------------------------------------------ *)
(* Persistent operations (MPI-4 MPI_Send_init / MPI_Recv_init)

   Everything a cycle does not strictly need is hoisted to init: argument
   validation, the datatype plan (byte size + wire signature), the
   profiling counter handles, rank translation, and a pre-warmed pooled
   writer large enough for the payload.  The remaining per-cycle
   allocations are the transport's own (the in-flight [Message.t], the
   3-word pooled-writer record, the posted-receive record) — the fully
   allocation-free hot path is the single-rank persistent collective,
   which skips transport entirely. *)

let send_init comm (dt : 'a Datatype.t) ~dest ?(tag = 0) (data : 'a array) ~pos ~count =
  Comm.check_user_tag comm tag;
  Comm.check_rank comm dest;
  if count < 0 || pos < 0 || pos + count > Array.length data then
    Errdefs.usage_error "send_init: invalid range (pos %d, count %d, len %d)" pos count
      (Array.length data);
  if not (Datatype.is_committed dt) then
    Errdefs.usage_error "send_init: datatype %s is not committed" (Datatype.name dt);
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let plan = Datatype.plan dt ~count in
  let prep = Profiling.prepare rt.Runtime.profile "send" in
  let context = Comm.context comm in
  let dst_world = Comm.world_of_rank comm dest in
  Runtime.preheat_writer rt me ~capacity:(max 8 plan.Datatype.plan_bytes);
  let start () =
    Runtime.check_alive rt me;
    check_revoked comm ~op:"send";
    check_dest_alive comm ~op:"send" dest;
    let w = Runtime.acquire_writer rt me ~capacity:(max 8 plan.Datatype.plan_bytes) in
    Datatype.pack_array dt w data ~pos ~count;
    let payload, payload_len = Wire.unsafe_contents w in
    Runtime.charge_copy rt me ~bytes:payload_len;
    ignore
      (Runtime.inject rt ~context ~src:me ~dst:dst_world ~tag ~payload ~payload_off:0
         ~payload_len ~count
         ~signature:plan.Datatype.plan_signature ~sync:false);
    Profiling.record_prepared rt.Runtime.profile prep ~bytes:payload_len
  in
  (* Eager send: injected at [start], so the cycle is complete immediately. *)
  Request.make_p ~describe:"send_init" ~start ~ready:(fun () -> true) ~run:(fun () -> ())

let recv_init comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag)
    ?(pos = 0) ?maxcount (into : 'a array) =
  let maxcount = check_recv_range ~op:"recv_init" into ~pos ~maxcount in
  if not (Datatype.is_committed dt) then
    Errdefs.usage_error "recv_init: datatype %s is not committed" (Datatype.name dt);
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let src_world = source_world comm ~source ~tag in
  let prep = Profiling.prepare rt.Runtime.profile "recv" in
  let posted : Mailbox.posted option ref = ref None in
  let start () =
    Runtime.check_alive rt me;
    posted := Some (post_recv comm ~src_world ~tag)
  in
  (* The poll must wake on the same conditions as a blocking receive —
     match, source failure, observed revocation — or a cycle receiving
     from a dead rank would park forever instead of raising. *)
  let ready () =
    match !posted with None -> true | Some p -> recv_ready comm ~src_world p
  in
  let run () =
    match !posted with
    | None -> ()
    | Some p ->
        posted := None;
        let msg = take_matched comm ~op:"recv" ~src_world p in
        if msg.Message.count > maxcount then
          Comm.error comm Errdefs.Err_truncate
            "recv: message of %d elements truncated to buffer of %d" msg.Message.count
            maxcount;
        complete_matched comm dt ~op:"recv" msg;
        Profiling.record_prepared rt.Runtime.profile prep ~bytes:(Message.bytes msg);
        Datatype.unpack_into dt (Message.reader msg) into ~pos ~count:msg.Message.count;
        Runtime.recycle_payload rt msg
  in
  Request.make_p ~describe:"recv_init" ~start ~ready ~run
