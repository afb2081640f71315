(* Ownership rule: the most recently started open span owns the current
   instant.  Starts are in time order, so the open spans form a stack by
   start time; finished spans below the top are popped lazily. *)

open Mpisim

type span = {
  id : int;
  rank : int;
  layer : string;
  op : string;
  step : int;
  parent : int;
  t0 : float;
  w0 : float;
  posted0 : int;
  rank_time0 : float;  (* time owned by this rank's spans when it started *)
  mutable self_t : float;
  mutable closed : bool;
  kept : bool;
}

type event = Begin of span | End of span * float * float

type totals = {
  mutable calls : int;
  mutable len : float;
  mutable self : float;
  mutable child : float;
  mutable wait : float;
  mutable posted : int;
}

type t = {
  keep : int;
  mutable next_id : int;
  mutable started : bool;
  mutable last_time : float;
  mutable owners : span list;  (* open spans, latest start first *)
  rank_time : float array;  (* time owned so far by each rank's spans *)
  rank_open : span list array;  (* each rank's open spans, innermost first *)
  table : (string * string, totals) Hashtbl.t;
  mutable events : event list;  (* kept events, newest first *)
  mutable kept : int;
  mutable dropped : int;
}

let create ~ranks ~keep =
  {
    keep;
    next_id = 0;
    started = false;
    last_time = 0.;
    owners = [];
    rank_time = Array.make (ranks + 1) 0.;
    rank_open = Array.make (ranks + 1) [];
    table = Hashtbl.create 32;
    events = [];
    kept = 0;
    dropped = 0;
  }

let none =
  {
    id = -1;
    rank = -1;
    layer = "";
    op = "";
    step = -1;
    parent = -1;
    t0 = 0.;
    w0 = 0.;
    posted0 = 0;
    rank_time0 = 0.;
    self_t = 0.;
    closed = true;
    kept = false;
  }

(* Hand the interval since the previous event to its owner. *)
let advance t ~time =
  if t.started then begin
    let rec live = function s :: rest when s.closed -> live rest | l -> l in
    t.owners <- live t.owners;
    match t.owners with
    | s :: _ ->
        let dt = time -. t.last_time in
        s.self_t <- s.self_t +. dt;
        t.rank_time.(s.rank) <- t.rank_time.(s.rank) +. dt
    | [] -> ()
  end;
  t.started <- true;
  t.last_time <- time

let start t ~rank ~layer ~op ~step ~time ~words ~posted =
  advance t ~time;
  let parent = match t.rank_open.(rank) with s :: _ -> s.id | [] -> -1 in
  let kept = t.kept < t.keep in
  let s =
    {
      id = t.next_id;
      rank;
      layer;
      op;
      step;
      parent;
      t0 = time;
      w0 = words;
      posted0 = posted;
      rank_time0 = t.rank_time.(rank);
      self_t = 0.;
      closed = false;
      kept;
    }
  in
  t.next_id <- t.next_id + 1;
  t.owners <- s :: t.owners;
  t.rank_open.(rank) <- s :: t.rank_open.(rank);
  if kept then begin
    t.kept <- t.kept + 1;
    t.events <- Begin s :: t.events
  end
  else t.dropped <- t.dropped + 1;
  s

let zero () =
  { calls = 0; len = 0.; self = 0.; child = 0.; wait = 0.; posted = 0 }

let totals t ~layer ~op =
  match Hashtbl.find_opt t.table (layer, op) with Some x -> x | None -> zero ()

let finish t s ~time ~words ~posted =
  if s != none then begin
    advance t ~time;
    (match t.rank_open.(s.rank) with
    | top :: rest when top == s -> t.rank_open.(s.rank) <- rest
    | _ -> invalid_arg "Spans.finish: not the innermost open span of its rank");
    s.closed <- true;
    let len = time -. s.t0 in
    (* While [s] was open only [s], its descendants and spans of other
       ranks started inside it could own time. *)
    let own = t.rank_time.(s.rank) -. s.rank_time0 in
    let x =
      match Hashtbl.find_opt t.table (s.layer, s.op) with
      | Some x -> x
      | None ->
          let x = zero () in
          Hashtbl.replace t.table (s.layer, s.op) x;
          x
    in
    x.calls <- x.calls + 1;
    x.len <- x.len +. len;
    x.self <- x.self +. s.self_t;
    x.child <- x.child +. (own -. s.self_t);
    x.wait <- x.wait +. (len -. own);
    x.posted <- x.posted + (posted - s.posted0);
    if s.kept then t.events <- End (s, time, words) :: t.events
  end

let dropped t = t.dropped

let write_chrome t path =
  let events = List.rev t.events in
  let base = match events with Begin s :: _ -> s.t0 | _ -> 0. in
  let us time = (time -. base) *. 1e6 in
  let buf = Buffer.create 65536 in
  let root = Json_out.start_obj buf in
  Json_out.field_str root "displayTimeUnit" "ms";
  Json_out.key root "otherData";
  let od = Json_out.start_obj buf in
  Json_out.field_int od "droppedSpans" t.dropped;
  Json_out.end_obj od;
  Json_out.key root "traceEvents";
  let arr = Json_out.start_arr buf in
  let host = Array.length t.rank_time - 1 in
  let named = Hashtbl.create 16 in
  let write ~ph ~(s : span) ~ts ~words =
    if not (Hashtbl.mem named s.rank) then begin
      Hashtbl.replace named s.rank ();
      Trace_chrome.write_thread_name buf arr ~tid:s.rank
        ~name:(if s.rank = host then "host" else Printf.sprintf "rank %d" s.rank)
    end;
    Json_out.sep arr;
    let o = Json_out.start_obj buf in
    Json_out.field_str o "name" (s.layer ^ "." ^ s.op);
    Json_out.field_str o "cat" s.layer;
    Json_out.field_str o "ph" ph;
    Json_out.field_int o "pid" 0;
    Json_out.field_int o "tid" s.rank;
    Json_out.field_float o "ts" (us ts);
    Json_out.key o "args";
    let args = Json_out.start_obj buf in
    Json_out.field_int args "span" s.id;
    Json_out.field_int args "parent" s.parent;
    Json_out.field_int args "step" s.step;
    Json_out.field_float args "minor_words" words;
    Json_out.end_obj args;
    Json_out.end_obj o
  in
  List.iter
    (function
      | Begin s -> write ~ph:"B" ~s ~ts:s.t0 ~words:s.w0
      | End (s, time, words) -> write ~ph:"E" ~s ~ts:time ~words)
    events;
  Json_out.end_arr arr;
  Json_out.end_obj root;
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf)
