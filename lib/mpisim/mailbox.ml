(* Per-rank message matching.

   Matching follows MPI semantics: a receive names (context, source, tag),
   where source and tag may be wildcards; messages between a fixed
   (context, source, tag) triple are non-overtaking, and a wildcard takes
   the unexpected message with the oldest global sequence number.

   - Posted receives form an intrusive doubly-linked list in posting order:
     post links a node, retire and cancel unlink it.
   - Unexpected messages sit in one FIFO per packed (src, tag) key, in an
     int table per context; a context's non-empty FIFOs are also linked in
     the list wildcard lookups walk.  A drained FIFO stays in the table for
     its key's next message, up to [idle_cap] per context.

   Matching and lookups are top-level recursive functions that take every
   value they read as an argument: no closure, no allocation. *)

let any_source = -1

let any_tag = -1

(* Tags fill the low [tag_bits] of a packed key: user tags, then the
   internal tags of collective algorithms above them. *)
let tag_bits = 21

let max_tag = (1 lsl tag_bits) - 1

let pack ~src ~tag =
  if src < 0 || tag < 0 || tag > max_tag then
    invalid_arg (Printf.sprintf "Mailbox: (src %d, tag %d) has no packed key" src tag);
  (src lsl tag_bits) lor tag

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Keys differ mostly above the tag bits: fold high bits into low ones. *)
  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

type posted = {
  p_context : int;
  p_src : int;  (* may be [any_source] *)
  p_tag : int;  (* may be [any_tag] *)
  p_id : int;
  p_clock : float;  (* receiver's virtual clock when the recv was posted *)
  mutable p_msg : Message.t option;  (* set when matched *)
  mutable p_deferred : bool;  (* model checker owns this match choice *)
  mutable p_prev : posted;  (* list links; both are the sentinel when off the list *)
  mutable p_next : posted;
}

type fifo = {
  key : int;
  msgs : Message.t Queue.t;
  mutable prev : fifo;  (* links among the context's non-empty FIFOs *)
  mutable next : fifo;
}

type context = {
  fifos : fifo Itbl.t;
  nonempty : fifo;  (* sentinel of the non-empty list *)
  mutable idle : int;  (* drained FIFOs kept in [fifos] *)
}

type t = {
  contexts : context Itbl.t;
  posted : posted;  (* sentinel of the posted list *)
  mutable next_posted_id : int;
  (* O(1) depth counters so the runtime can histogram queue depths without
     walking the structures on every delivery. *)
  mutable n_unexpected : int;
  mutable n_posted : int;
}

let idle_cap = 64

let create () =
  let rec posted =
    {
      p_context = -1;
      p_src = -1;
      p_tag = -1;
      p_id = -1;
      p_clock = 0.;
      p_msg = None;
      p_deferred = false;
      p_prev = posted;
      p_next = posted;
    }
  in
  { contexts = Itbl.create 4; posted; next_posted_id = 0; n_unexpected = 0; n_posted = 0 }

let unmatched (p : posted) = match p.p_msg with None -> true | Some _ -> false

(* The oldest posted receive from [p] on that [m] matches, or [stop]. *)
let rec first_match stop p (m : Message.t) =
  if
    p == stop
    || unmatched p && (not p.p_deferred)
       && p.p_context = m.Message.context
       && (p.p_src = any_source || p.p_src = m.Message.src)
       && (p.p_tag = any_tag || p.p_tag = m.Message.tag)
  then p
  else first_match stop p.p_next m

(* The match time — which is when a synchronous sender may complete — is
   when both the message has arrived AND the receiver was ready for it. *)
let set_match (p : posted) (m : Message.t) =
  p.p_msg <- Some m;
  m.Message.matched_time <- Float.max m.Message.arrival p.p_clock

(* [p] is fresh from [post], so its next is already the sentinel. *)
let link_posted t p =
  p.p_prev <- t.posted.p_prev;
  p.p_prev.p_next <- p;
  t.posted.p_prev <- p;
  t.n_posted <- t.n_posted + 1

(* A receive off the list links to the sentinel, whose next is never it. *)
let unlink_posted t p =
  if p.p_prev.p_next == p then begin
    p.p_prev.p_next <- p.p_next;
    p.p_next.p_prev <- p.p_prev;
    p.p_prev <- t.posted;
    p.p_next <- t.posted;
    t.n_posted <- t.n_posted - 1
  end

let enqueue_unexpected t (m : Message.t) =
  let c =
    match Itbl.find t.contexts m.Message.context with
    | c -> c
    | exception Not_found ->
        let rec nonempty =
          { key = -1; msgs = Queue.create (); prev = nonempty; next = nonempty }
        in
        let c = { fifos = Itbl.create 8; nonempty; idle = 0 } in
        Itbl.add t.contexts m.Message.context c;
        c
  in
  let key = pack ~src:m.Message.src ~tag:m.Message.tag in
  let f =
    match Itbl.find c.fifos key with
    | f -> f
    | exception Not_found ->
        let f = { key; msgs = Queue.create (); prev = c.nonempty; next = c.nonempty } in
        Itbl.add c.fifos key f;
        c.idle <- c.idle + 1;
        f
  in
  if Queue.is_empty f.msgs then begin
    c.idle <- c.idle - 1;
    f.prev <- c.nonempty.prev;
    f.next <- c.nonempty;
    f.prev.next <- f;
    c.nonempty.prev <- f
  end;
  Queue.add m f.msgs;
  t.n_unexpected <- t.n_unexpected + 1

(* Entry point for the runtime: a message has arrived at this rank.
   Returns [true] if the message matched an already-posted receive. *)
let deliver t (m : Message.t) =
  let p = first_match t.posted t.posted.p_next m in
  if p != t.posted then set_match p m else enqueue_unexpected t m;
  p != t.posted

(* Pop the head of [f]; a FIFO that drains leaves the non-empty list. *)
let take t c f =
  let m = Queue.take f.msgs in
  t.n_unexpected <- t.n_unexpected - 1;
  if Queue.is_empty f.msgs then begin
    f.prev.next <- f.next;
    f.next.prev <- f.prev;
    if c.idle < idle_cap then c.idle <- c.idle + 1 else Itbl.remove c.fifos f.key
  end;
  m

let fits f ~src ~tag =
  (src = any_source || f.key lsr tag_bits = src)
  && (tag = any_tag || f.key land max_tag = tag)

(* The non-empty FIFO from [f] on whose head is the oldest message the
   pattern matches, if its seq is below [seq]; else [best]. *)
let rec oldest stop f ~src ~tag best seq =
  if f == stop then best
  else
    let s = (Queue.peek f.msgs).Message.seq in
    if s < seq && fits f ~src ~tag then oldest stop f.next ~src ~tag f s
    else oldest stop f.next ~src ~tag best seq

let find_fifo c ~src ~tag =
  if src = any_source || tag = any_tag then
    oldest c.nonempty c.nonempty.next ~src ~tag c.nonempty max_int
  else
    match Itbl.find c.fifos (pack ~src ~tag) with
    | f -> if Queue.is_empty f.msgs then c.nonempty else f
    | exception Not_found -> c.nonempty

(* Find (and optionally remove) the oldest unexpected message matching the
   (context, src, tag) pattern.  An exact pattern is two table lookups; a
   wildcard walks the context's non-empty FIFOs. *)
let find_unexpected ?(remove = true) t ~context ~src ~tag =
  match Itbl.find t.contexts context with
  | exception Not_found -> None
  | c ->
      let f = find_fifo c ~src ~tag in
      if f == c.nonempty then None
      else Some (if remove then take t c f else Queue.peek f.msgs)

(* Post a receive at receiver-clock [now].  A receive that matches an
   unexpected message at once never joins the posted list.

   Under the model checker (Choice installed), wildcard receives are NOT
   matched eagerly: the match is the decision point being explored, so
   the post parks as deferred and the explorer's quiescence resolver
   picks among the candidates.  Exact (src, tag) receives stay eager —
   non-overtaking makes their match unique, so deferring them would only
   multiply equivalent schedules. *)
let post t ~context ~src ~tag ~now =
  let p =
    {
      p_context = context;
      p_src = src;
      p_tag = tag;
      p_id = t.next_posted_id;
      p_clock = now;
      p_msg = None;
      p_deferred = false;
      p_prev = t.posted;
      p_next = t.posted;
    }
  in
  t.next_posted_id <- t.next_posted_id + 1;
  if Choice.deferring () && (src = any_source || tag = any_tag) then begin
    p.p_deferred <- true;
    link_posted t p
  end
  else (
    match find_unexpected t ~context ~src ~tag with
    | Some m -> set_match p m
    | None -> link_posted t p);
  p

(* Visit every live posted receive, in posting order. *)
let iter_posted t f =
  let rec walk p =
    if p != t.posted then begin
      let next = p.p_next in
      f p;
      walk next
    end
  in
  walk t.posted.p_next

(* ---- Model-checker resolver API (only used while Choice is installed) ---- *)

(* Visit every unmatched deferred receive, in posting order. *)
let iter_deferred t f = iter_posted t (fun p -> if p.p_deferred && unmatched p then f p)

(* The candidate set for a deferred receive: the *heads* of each matching
   per-(src, tag) queue, sorted by global seq.  Non-head messages in those
   queues are unreachable choices — MPI non-overtaking forces the head of
   each queue to match first — so they are pruned from the branching
   factor and only counted.  This is the persistent/sleep-set-style
   reduction: schedules differing only in the order of same-link messages
   are equivalent and explored once. *)
let candidate_heads t ~context ~src ~tag =
  match Itbl.find t.contexts context with
  | exception Not_found -> ([], 0)
  | c ->
      let rec walk f heads eligible =
        if f == c.nonempty then
          ( List.sort (fun a b -> compare a.Message.seq b.Message.seq) heads,
            eligible - List.length heads )
        else if fits f ~src ~tag then
          walk f.next (Queue.peek f.msgs :: heads) (eligible + Queue.length f.msgs)
        else walk f.next heads eligible
      in
      walk c.nonempty.next [] 0

(* Number of unexpected messages a (context, src, tag) pattern could match
   right now.  The sanitizer's wildcard-race check calls this (heavy level
   only) just before posting a wildcard receive: two or more eligible
   candidates mean the match is arbitrated by sequence number — i.e. by the
   schedule — and a real MPI run could return a different message. *)
let count_eligible t ~context ~src ~tag =
  let heads, pruned = candidate_heads t ~context ~src ~tag in
  List.length heads + pruned

(* Apply a resolver decision: match deferred receive [p] with candidate
   [m], which must be the head of its exact-key unexpected queue. *)
let resolve_deferred t (p : posted) (m : Message.t) =
  assert (p.p_deferred && unmatched p);
  let context = m.Message.context and src = m.Message.src and tag = m.Message.tag in
  (match find_unexpected ~remove:false t ~context ~src ~tag with
  | Some head when head == m -> ignore (find_unexpected t ~context ~src ~tag)
  | _ -> invalid_arg "Mailbox.resolve_deferred: candidate is not a queue head");
  p.p_deferred <- false;
  set_match p m

(* Cancel a posted receive that has NOT matched.  Per MPI semantics a
   receive that has already been matched must complete — cancelling it
   here would silently drop the matched message. *)
let cancel t p =
  (match p.p_msg with
  | Some m ->
      Errdefs.usage_error
        "Mailbox.cancel: receive already matched message from rank %d (tag %d); a \
         matched receive must be completed, not cancelled"
        m.Message.src m.Message.tag
  | None -> ());
  unlink_posted t p

(* Once a posted receive has matched, drop it from the posted list. *)
let retire t p = unlink_posted t p

let unexpected_depth t = t.n_unexpected

let posted_depth t = t.n_posted

(* Entries in the unexpected index, drained FIFOs included: at most
   [idle_cap] per context beyond the non-empty ones. *)
let unexpected_key_count t =
  Itbl.fold (fun _ c acc -> acc + Itbl.length c.fifos) t.contexts 0
