(** In-memory span recorder for the traced benchmark run.

    A span covers one public call the benchmark's rank bodies make into a
    layer ([Kamping.*], [Mpisim.P2p.*], [Mpisim.Coll.*],
    [Sparse_alltoall.alltoallv], [Engine.run]).  Time, minor words and the
    rank's posted-receive count are passed in by the caller, so a test can
    replay a hand-built interleaving.

    Only one simulated fiber runs at a time, so every instant belongs to
    exactly one span: the most recently started span still open.  A
    span's self time is the part of its interval it owns; the rest is
    owned by spans that started inside it, split into child time (spans
    of the same rank, i.e. its descendants) and wait time (other ranks'
    spans: it was parked while they ran).  Equivalently, self time is the
    span's length minus the time covered by spans that started inside it
    on any rank. *)

type t

type span

(** [create ~ranks ~keep] records spans of ranks [0 .. ranks - 1] plus a
    host track, rank [ranks], for calls made outside any fiber such as
    [Engine.run]; the first [keep] spans are also kept for
    {!write_chrome}. *)
val create : ranks:int -> keep:int -> t

(** The span handed out when tracing is off; {!finish} ignores it. *)
val none : span

val start :
  t -> rank:int -> layer:string -> op:string -> step:int -> time:float -> words:float ->
  posted:int -> span

(** Close a span; spans of one rank close innermost first. *)
val finish : t -> span -> time:float -> words:float -> posted:int -> unit

(** Per-(layer, op) sums over finished spans.  [posted] counts the
    receives the span's own rank posted while it was open. *)
type totals = {
  mutable calls : int;
  mutable len : float;
  mutable self : float;
  mutable child : float;
  mutable wait : float;
  mutable posted : int;
}

(** Sums for one (layer, op); all zero when no such span finished. *)
val totals : t -> layer:string -> op:string -> totals

(** Spans started but not kept for the Chrome file. *)
val dropped : t -> int

(** Write the kept spans as Chrome trace-event JSON (one thread per rank,
    B/E pairs, timestamps relative to the first span).  Each event's
    args carry the span id, parent id, step id and minor words. *)
val write_chrome : t -> string -> unit
