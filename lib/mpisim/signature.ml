(* Datatype signatures.

   MPI requires the type signatures of matching send and receive operations
   to agree.  C's lack of introspection makes violations a classic source of
   silent corruption; the simulator checks signatures on every match (when
   assertions are enabled) and raises a type-matching error on disagreement,
   mirroring the compile-time guarantees the paper provides (§III-D).

   A signature is a run-length-encoded sequence of base kinds.  Opaque
   byte-blob types (trivially-copyable structs sent as contiguous bytes,
   serialized payloads) use [Blob], which matches any byte count of [Blob]:
   this mirrors MPI_BYTE's matching rules. *)

type base = Int64 | Int32 | Float64 | Float32 | Char | Bool | Blob

type t = (base * int) list
(* Invariant: counts are positive and adjacent bases differ. *)

let base_size = function
  | Int64 -> 8
  | Int32 -> 4
  | Float64 -> 8
  | Float32 -> 4
  | Char -> 1
  | Bool -> 1
  | Blob -> 1

let base_name = function
  | Int64 -> "int64"
  | Int32 -> "int32"
  | Float64 -> "float64"
  | Float32 -> "float32"
  | Char -> "char"
  | Bool -> "bool"
  | Blob -> "blob"

let empty : t = []

let of_base ?(count = 1) b : t = if count = 0 then [] else [ (b, count) ]

(* Normalizing append: merges adjacent equal bases. *)
let append (a : t) (b : t) : t =
  match (List.rev a, b) with
  | [], _ -> b
  | _, [] -> a
  | (ba, ca) :: rest_a, (bb, cb) :: rest_b when ba = bb ->
      List.rev_append rest_a ((ba, ca + cb) :: rest_b)
  | _, _ -> a @ b

let concat (xs : t list) : t = List.fold_left append empty xs

let rec last_run = function
  | [ r ] -> r
  | _ :: rest -> last_run rest
  | [] -> invalid_arg "Signature.last_run"

(* [n] copies of [s] in one pass, O(n * |s|): built back to front, each
   copy's reversed runs are pushed onto the accumulator, and a copy's last
   run absorbs the next copy's first run when the two bases agree (the
   merge [append] would make at that boundary). *)
let repeat (s : t) n : t =
  if n < 0 then invalid_arg "Signature.repeat";
  match s with
  | [] -> empty
  | [ (b, c) ] -> of_base ~count:(c * n) b
  | _ ->
      let rs = List.rev s in
      let rec go acc k =
        if k = 0 then acc
        else
          match (rs, acc) with
          | (bl, cl) :: rs', (bf, cf) :: acc' when bl = bf ->
              go (List.rev_append rs' ((bl, cl + cf) :: acc')) (k - 1)
          | _ -> go (List.rev_append rs acc) (k - 1)
      in
      go empty n

let size_in_bytes (s : t) =
  List.fold_left (fun acc (b, c) -> acc + (base_size b * c)) 0 s

(* Two signatures match when their base-kind expansions are equal, except
   that Blob runs match Blob runs with equal *byte* counts regardless of
   segmentation (both sides count bytes). *)
let matches (a : t) (b : t) = a = b

(* [matches_repeat s ~unit n] is [matches s (repeat unit n)], decided by
   walking [s] against the runs [repeat] would produce, without building
   them: the receive-side check allocates nothing.  [join] says whether a
   copy's last run absorbs the next copy's first run ([first] is that run's
   count); [k] counts the copies still to come after the current one. *)
let rec walk_repeat unit ~join ~first k (s : t) (u : t) =
  match (u, s) with
  | [], [] -> k = 0
  | [], _ -> k > 0 && walk_repeat unit ~join ~first (k - 1) s unit
  | [ (b, c) ], (b', c') :: s' when join && k > 0 ->
      b = b' && c + first = c' && walk_repeat unit ~join ~first (k - 1) s' (List.tl unit)
  | (b, c) :: u', (b', c') :: s' -> b = b' && c = c' && walk_repeat unit ~join ~first k s' u'
  | _ :: _, [] -> false

let matches_repeat (s : t) ~(unit : t) n =
  if n < 0 then invalid_arg "Signature.matches_repeat";
  match unit with
  | [] -> s = []
  | [ (b, c) ] -> (
      match s with
      | [] -> c * n = 0
      | [ (b', c') ] -> c * n <> 0 && b = b' && c * n = c'
      | _ -> false)
  | (bf, cf) :: _ ->
      if n = 0 then s = []
      else
        let bl, _ = last_run unit in
        walk_repeat unit ~join:(bf = bl) ~first:cf (n - 1) s unit

(* Receive-side compatibility: a receive of signature [recv] repeated enough
   times may be longer than the incoming data in MPI; we instead require the
   exact per-message equality because the runtime transfers whole messages.
   Truncation (recv buffer shorter than message) is detected separately via
   counts. *)

let pp ppf (s : t) =
  let pp_item ppf (b, c) =
    if c = 1 then Format.fprintf ppf "%s" (base_name b)
    else Format.fprintf ppf "%s[%d]" (base_name b) c
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_item)
    s

let to_string s = Format.asprintf "%a" pp s
