(* Unit and property tests for the datatype system (paper §III-D). *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

let roundtrip (dt : 'a Datatype.t) (v : 'a) : 'a =
  let w = Wire.create_writer () in
  dt.Datatype.pack w v;
  dt.Datatype.unpack (Wire.reader_of_bytes (Wire.contents w))

let test_builtin_sizes () =
  Alcotest.(check int) "int" 8 (Datatype.elem_size Datatype.int);
  Alcotest.(check int) "int32" 4 (Datatype.elem_size Datatype.int32);
  Alcotest.(check int) "float" 8 (Datatype.elem_size Datatype.float);
  Alcotest.(check int) "float32" 4 (Datatype.elem_size Datatype.float32);
  Alcotest.(check int) "char" 1 (Datatype.elem_size Datatype.char);
  Alcotest.(check int) "bool" 1 (Datatype.elem_size Datatype.bool)

let test_builtins_committed () =
  List.iter
    (fun b -> Alcotest.(check bool) "committed" true b)
    [
      Datatype.is_committed Datatype.int;
      Datatype.is_committed Datatype.float;
      Datatype.is_committed Datatype.char;
      Datatype.is_committed Datatype.bool;
      Datatype.is_committed Datatype.byte;
    ]

let test_derived_commit_lifecycle () =
  let dt = Datatype.pair Datatype.int Datatype.float in
  Alcotest.(check bool) "fresh derived not committed" false (Datatype.is_committed dt);
  Datatype.commit dt;
  Alcotest.(check bool) "committed" true (Datatype.is_committed dt);
  Datatype.free dt;
  Alcotest.(check bool) "freed" false (Datatype.is_committed dt);
  Alcotest.check_raises "double free"
    (Invalid_argument "Datatype.free: double free: pair(int,float)") (fun () ->
      Datatype.free dt)

let test_cannot_free_builtin () =
  Alcotest.check_raises "free builtin"
    (Invalid_argument "Datatype.free: cannot free builtin") (fun () ->
      Datatype.free Datatype.int)

let test_with_committed_scopes () =
  let dt = Datatype.pair Datatype.int Datatype.int in
  let before = Datatype.live_derived_count () in
  Datatype.with_committed dt (fun dt' ->
      Alcotest.(check bool) "committed inside" true (Datatype.is_committed dt'));
  Alcotest.(check bool) "freed outside" false (Datatype.is_committed dt);
  Alcotest.(check int) "no leak" before (Datatype.live_derived_count ())

let test_uncommitted_send_rejected () =
  let dt = Datatype.pair Datatype.int Datatype.int in
  let failure = ref "" in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm dt ~dest:1 [| (1, 2) |]
            else ignore (P2p.recv comm dt ~source:0 ())))
   with Scheduler.Aborted { exn = Errdefs.Usage_error msg; _ } -> failure := msg);
  Alcotest.(check bool) "mentions commit" true
    (String.length !failure > 0
    && String.length !failure > 10
    &&
    let has_sub s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    has_sub !failure "not committed")

let test_signature_mismatch_detected () =
  (* Send ints, receive as floats: same byte size, different signature. *)
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm Datatype.int ~dest:1 [| 1; 2; 3 |]
            else ignore (P2p.recv comm Datatype.float ~source:0 ())))
   with Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_type; _ }; _ } ->
     caught := true);
  Alcotest.(check bool) "type mismatch raises ERR_TYPE" true !caught

(* Records of equal size but different field order: the receive check
   walks the message signature against the receive type's one, so it must
   still tell them apart, and still let an empty message through. *)
let test_record_layout_mismatch () =
  let sent = Datatype.pair Datatype.int Datatype.float in
  let swapped = Datatype.pair Datatype.float Datatype.int in
  Datatype.commit sent;
  Datatype.commit swapped;
  Alcotest.(check int) "same element size" (Datatype.elem_size sent)
    (Datatype.elem_size swapped);
  let exchange recv_dt n =
    match
      Engine.run ~ranks:2 (fun comm ->
          if Comm.rank comm = 0 then
            P2p.send comm sent ~dest:1 (Array.init n (fun i -> (i, float_of_int i)))
          else ignore (P2p.recv comm recv_dt ~source:0 ()))
    with
    | _ -> `Ok
    | exception Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_type; _ }; _ }
      ->
        `Err_type
  in
  Alcotest.(check bool) "swapped fields raise ERR_TYPE" true (exchange swapped 3 = `Err_type);
  Alcotest.(check bool) "same layout matches" true (exchange sent 3 = `Ok);
  Alcotest.(check bool) "count 0 is accepted" true (exchange swapped 0 = `Ok);
  Datatype.free sent;
  Datatype.free swapped

(* The append-fold [Signature.repeat] was before it became linear: one
   normalizing [append] per copy, O(n^2) for multi-run units.  Kept here as
   the oracle for the one-pass version. *)
let repeat_by_append (s : Signature.t) n =
  let rec go acc k = if k = 0 then acc else go (Signature.append acc s) (k - 1) in
  match s with [ (b, c) ] -> Signature.of_base ~count:(c * n) b | _ -> go Signature.empty n

(* Normalized units of 1..6 runs; half of them end on the base they start
   with, so the copies merge at every boundary. *)
let gen_unit =
  let open QCheck.Gen in
  let base = oneofl Signature.[ Int64; Int32; Float64; Float32; Char; Bool; Blob ] in
  list_size (int_range 1 5) (pair base (int_range 1 4)) >>= fun runs ->
  bool >|= fun close ->
  let runs = if close then runs @ [ (fst (List.hd runs), 1) ] else runs in
  Signature.concat (List.map (fun (b, c) -> Signature.of_base ~count:c b) runs)

let arb_unit_n =
  QCheck.make
    ~print:(fun (u, n) -> Printf.sprintf "%s x %d" (Signature.to_string u) n)
    QCheck.Gen.(pair gen_unit (int_range 0 300))

let prop_repeat_linear_equals_fold =
  QCheck.Test.make ~name:"Signature.repeat = append fold" ~count:300 arb_unit_n
    (fun (u, n) -> Signature.repeat u n = repeat_by_append u n)

(* [matches_repeat] against building the repetition, on the exact
   repetition and on near misses: another count, another unit, one run
   count off by one. *)
let prop_matches_repeat_equals_build =
  let open QCheck.Gen in
  let bump (s : Signature.t) i = List.mapi (fun j (b, c) -> if i = j then (b, c + 1) else (b, c)) s in
  let gen =
    gen_unit >>= fun u ->
    int_range 0 300 >>= fun n ->
    oneof
      [
        return (Signature.repeat u n);
        map (Signature.repeat u) (int_range 0 300);
        map (fun u' -> Signature.repeat u' n) gen_unit;
        (let s = Signature.repeat u n in
         map (bump s) (int_bound (max 0 (List.length s - 1))));
      ]
    >|= fun s -> (u, n, s)
  in
  QCheck.Test.make ~name:"Signature.matches_repeat = matches (repeat ...)" ~count:400
    (QCheck.make
       ~print:(fun (u, n, s) ->
         Printf.sprintf "unit %s x %d vs %s" (Signature.to_string u) n
           (Signature.to_string s))
       gen)
    (fun (u, n, s) ->
      Signature.matches_repeat s ~unit:u n = Signature.matches s (repeat_by_append u n))

let test_blob_matches_any_blob () =
  (* byte <-> blob of equal total size must match (MPI_BYTE semantics). *)
  let sig_a = Signature.of_base ~count:24 Signature.Blob in
  let sig_b =
    Signature.concat
      [ Signature.of_base ~count:16 Signature.Blob; Signature.of_base ~count:8 Signature.Blob ]
  in
  Alcotest.(check bool) "normalized equal" true (Signature.matches sig_a sig_b)

let test_signature_zero_count () =
  (* A zero-count run is not a run at all: it must normalize to the empty
     signature, not a [(base, 0)] entry that would break [matches]. *)
  Alcotest.(check bool) "of_base ~count:0 is empty" true
    (Signature.of_base ~count:0 Signature.Int64 = Signature.empty);
  Alcotest.(check bool) "empty is left identity" true
    (Signature.append Signature.empty (Signature.of_base Signature.Char)
    = Signature.of_base Signature.Char);
  Alcotest.(check bool) "empty is right identity" true
    (Signature.append (Signature.of_base Signature.Char) Signature.empty
    = Signature.of_base Signature.Char);
  Alcotest.(check int) "empty has no bytes" 0 (Signature.size_in_bytes Signature.empty)

let test_signature_normalization () =
  let open Signature in
  (* Adjacent equal bases merge across every constructor. *)
  Alcotest.(check bool) "append merges runs" true
    (append (of_base ~count:2 Int64) (of_base ~count:3 Int64) = of_base ~count:5 Int64);
  Alcotest.(check bool) "concat merges runs" true
    (concat [ of_base Float64; of_base Float64; of_base ~count:2 Float64 ]
    = of_base ~count:4 Float64);
  Alcotest.(check bool) "repeat of a single run scales the count" true
    (repeat (of_base ~count:2 Char) 3 = of_base ~count:6 Char);
  Alcotest.(check bool) "repeat zero times is empty" true
    (repeat (of_base ~count:2 Char) 0 = empty);
  (* A multi-run repeat must keep the alternation (no bogus merge across
     the repetition boundary when the bases differ). *)
  let unit_sig = append (of_base Int64) (of_base Char) in
  Alcotest.(check bool) "multi-run repeat alternates" true
    (repeat unit_sig 2 = concat [ of_base Int64; of_base Char; of_base Int64; of_base Char ]);
  Alcotest.(check int) "repeat byte size" (2 * size_in_bytes unit_sig)
    (size_in_bytes (repeat unit_sig 2))

let test_blob_segmentation_independent () =
  let open Signature in
  (* MPI_BYTE semantics: how a byte region was assembled must not affect
     matching — only the total byte count does. *)
  Alcotest.(check bool) "2+2 blob matches 4 blob" true
    (matches (concat [ of_base ~count:2 Blob; of_base ~count:2 Blob ]) (of_base ~count:4 Blob));
  Alcotest.(check bool) "repeat-built blob matches" true
    (matches (repeat (of_base ~count:3 Blob) 4) (of_base ~count:12 Blob));
  Alcotest.(check bool) "different byte counts do not match" false
    (matches (of_base ~count:4 Blob) (of_base ~count:5 Blob));
  (* Segmentation independence must also hold for blob runs embedded
     between typed runs. *)
  let a = concat [ of_base Int64; of_base ~count:2 Blob; of_base ~count:6 Blob ] in
  let b = concat [ of_base Int64; of_base ~count:8 Blob ] in
  Alcotest.(check bool) "embedded blob runs merge" true (matches a b)

let test_zero_elem_decodes () =
  Alcotest.(check int) "int" 0 (Datatype.zero_elem Datatype.int);
  Alcotest.(check bool) "bool" false (Datatype.zero_elem Datatype.bool);
  let dt = Datatype.option_ Datatype.float in
  Alcotest.(check bool) "option" true (Datatype.zero_elem dt = None)

type my_record = { ra : int; rb : float; rc : char }

let my_record_dt =
  Datatype.record3 "my_record"
    (Datatype.field "ra" Datatype.int (fun r -> r.ra))
    (Datatype.field "rb" Datatype.float (fun r -> r.rb))
    (Datatype.field "rc" Datatype.char (fun r -> r.rc))
    (fun ra rb rc -> { ra; rb; rc })

let prop_record_roundtrip =
  let gen = QCheck.(triple int float printable_char) in
  QCheck.Test.make ~name:"record3 roundtrip" ~count:300 gen (fun (ra, rb, rc) ->
      let v = { ra; rb; rc } in
      let v' = roundtrip my_record_dt v in
      v'.ra = ra && Int64.bits_of_float v'.rb = Int64.bits_of_float rb && v'.rc = rc)

let prop_pair_roundtrip =
  QCheck.Test.make ~name:"pair roundtrip" ~count:300
    QCheck.(pair int int)
    (fun v -> roundtrip (Datatype.pair Datatype.int Datatype.int) v = v)

let prop_triple_roundtrip =
  QCheck.Test.make ~name:"triple roundtrip" ~count:300
    QCheck.(triple int bool int)
    (fun v -> roundtrip (Datatype.triple Datatype.int Datatype.bool Datatype.int) v = v)

let prop_option_roundtrip =
  QCheck.Test.make ~name:"option roundtrip" ~count:300
    QCheck.(option int)
    (fun v -> roundtrip (Datatype.option_ Datatype.int) v = v)

let prop_contiguous_roundtrip =
  let gen = QCheck.(array_of_size (Gen.return 5) int) in
  QCheck.Test.make ~name:"contiguous roundtrip" ~count:200 gen (fun v ->
      roundtrip (Datatype.contiguous ~count:5 Datatype.int) v = v)

let prop_array_pack_unpack =
  let gen = QCheck.(array_of_size Gen.small_nat int) in
  QCheck.Test.make ~name:"pack_array/unpack_array inverse" ~count:200 gen (fun v ->
      let w = Wire.create_writer () in
      Datatype.pack_array Datatype.int w v ~pos:0 ~count:(Array.length v);
      let r = Wire.reader_of_bytes (Wire.contents w) in
      Datatype.unpack_array Datatype.int r ~count:(Array.length v) = v)

let prop_size_matches_packed_bytes =
  let gen = QCheck.(triple int float printable_char) in
  QCheck.Test.make ~name:"elem_size = packed bytes" ~count:200 gen (fun (ra, rb, rc) ->
      let w = Wire.create_writer () in
      my_record_dt.Datatype.pack w { ra; rb; rc };
      Wire.length w = Datatype.elem_size my_record_dt)

(* ------------------------------------------------------------------ *)
(* Bulk fast path: the kernel dispatch must be an implementation detail.
   For every type that carries a kernel, packing through it and through
   the same type forced onto the general per-element path
   ([Datatype.without_bulk]) must produce byte-identical wire images, and
   each image must unpack correctly through either path. *)

let test_bulk_dispatch () =
  List.iter
    (fun (name, has) -> Alcotest.(check bool) name true has)
    [
      ("int has kernel", Datatype.bulk_available Datatype.int);
      ("float has kernel", Datatype.bulk_available Datatype.float);
      ("char has kernel", Datatype.bulk_available Datatype.char);
      ("byte has kernel", Datatype.bulk_available Datatype.byte);
      ("bool has kernel", Datatype.bulk_available Datatype.bool);
      ( "contiguous of builtin composes",
        Datatype.bulk_available (Datatype.contiguous ~count:3 Datatype.int) );
      ( "pair of builtins composes",
        Datatype.bulk_available (Datatype.pair Datatype.int Datatype.float) );
    ];
  Alcotest.(check bool) "record3 takes the general path" false
    (Datatype.bulk_available my_record_dt);
  Alcotest.(check bool) "without_bulk strips the kernel" false
    (Datatype.bulk_available (Datatype.without_bulk Datatype.int))

(* Pack the window [v.(pos) .. v.(pos + count - 1)] through the bulk
   kernel and through the general path: the images must agree, and each
   must unpack through either path, by [unpack_array] and by [unpack_into]
   at [dst_pos] of a larger array (whose other cells stay untouched), to
   the window as the wire format decodes it ([norm]). *)
let bulk_equiv (type elt) ?(eq : elt -> elt -> bool = ( = )) ?(norm : elt -> elt = Fun.id)
    (dt : elt Datatype.t) ((v : elt array), pos, count, dst_pos) : bool =
  let general = Datatype.without_bulk dt in
  let pack_image d =
    let w = Wire.create_writer () in
    Datatype.pack_array d w v ~pos ~count;
    Wire.contents w
  in
  let img_fast = pack_image dt and img_general = pack_image general in
  let expected = Array.map norm (Array.sub v pos count) in
  let arr_eq a b = Array.length a = Array.length b && Array.for_all2 eq a b in
  let into d img =
    let z = Datatype.zero_elem dt in
    let len = dst_pos + count + 2 in
    let buf = Array.make len z in
    Datatype.unpack_into d (Wire.reader_of_bytes img) buf ~pos:dst_pos ~count;
    arr_eq expected (Array.sub buf dst_pos count)
    && Array.for_all (eq z) (Array.sub buf 0 dst_pos)
    && Array.for_all (eq z) (Array.sub buf (dst_pos + count) 2)
  in
  Bytes.equal img_fast img_general
  && arr_eq expected (Datatype.unpack_array dt (Wire.reader_of_bytes img_general) ~count)
  && arr_eq expected (Datatype.unpack_array general (Wire.reader_of_bytes img_fast) ~count)
  && into dt img_general && into general img_fast

let float_bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let to_float32 x = Int32.float_of_bits (Int32.bits_of_float x)

let prop_bulk_equals_general =
  let open QCheck in
  let window ?(n = 32) g =
    Gen.(
      array_size (int_bound n) g >>= fun v ->
      let len = Array.length v in
      int_range 0 len >>= fun pos ->
      int_range 0 (len - pos) >>= fun count ->
      int_bound 3 >|= fun dst_pos -> (v, pos, count, dst_pos))
  in
  let gen =
    Gen.oneof
      [
        Gen.map (fun a -> `Int a) (window Gen.int);
        Gen.map (fun a -> `Int32 a) (window Gen.int32);
        Gen.map (fun a -> `Int64 a) (window Gen.int64);
        Gen.map (fun a -> `Float a) (window Gen.float);
        Gen.map (fun a -> `Float32 a) (window Gen.float);
        Gen.map (fun a -> `Char a) (window Gen.char);
        Gen.map (fun a -> `Bool a) (window Gen.bool);
        Gen.map (fun a -> `Pair a) (window ~n:16 Gen.(pair int float));
        Gen.map (fun a -> `Rows a) (window ~n:8 Gen.(array_size (return 3) int));
      ]
  in
  QCheck.Test.make ~name:"bulk fast path = general path (wire images)" ~count:500
    (QCheck.make gen) (function
    | `Int a -> bulk_equiv Datatype.int a
    | `Int32 a -> bulk_equiv Datatype.int32 a
    | `Int64 a -> bulk_equiv Datatype.int64 a
    | `Float a -> bulk_equiv ~eq:float_bits_eq Datatype.float a
    | `Float32 a -> bulk_equiv ~eq:float_bits_eq ~norm:to_float32 Datatype.float32 a
    | `Char a -> bulk_equiv Datatype.char a
    | `Bool a -> bulk_equiv Datatype.bool a
    | `Pair a ->
        bulk_equiv
          ~eq:(fun (i, f) (i', f') -> i = i' && float_bits_eq f f')
          (Datatype.pair Datatype.int Datatype.float)
          a
    | `Rows a -> bulk_equiv (Datatype.contiguous ~count:3 Datatype.int) a)

(* Words allocated by [f ()], minor and major heap together (a
   4096-element array is allocated straight into the major heap), net of
   what reading the counters costs. *)
let allocated_words f =
  let total () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let measure f =
    let before = total () in
    let r = f () in
    (total () -. before, r)
  in
  let overhead, () = measure ignore in
  let words, r = measure f in
  (words -. overhead, r)

(* The run kernels allocate nothing per element or per message: a pack
   followed by an [unpack_into] of a whole array allocates no word, and
   [unpack_array] allocates exactly its result. *)
let test_run_kernels_allocate_nothing () =
  let check (type a) name (dt : a Datatype.t) (src : a array) =
    let n = Array.length src in
    let w = Wire.create_writer ~capacity:(Datatype.size_of_count dt n) () in
    let dst = Array.copy src in
    let round () =
      let buf, _ = Wire.unsafe_contents w in
      Wire.reset w;
      let r = Wire.reader_of_bytes ~len:(Datatype.size_of_count dt n) buf in
      fst
        (allocated_words (fun () ->
             Datatype.pack_array dt w src ~pos:0 ~count:n;
             Datatype.unpack_into dt r dst ~pos:0 ~count:n))
    in
    ignore (round ());
    Alcotest.(check (float 0.)) (name ^ ": pack + unpack_into") 0. (round ());
    let r = Wire.reader_of_bytes (Wire.contents w) in
    let words, result =
      allocated_words (fun () -> Datatype.unpack_array dt r ~count:n)
    in
    Alcotest.(check (float 0.))
      (name ^ ": unpack_array allocates its result only")
      (float_of_int (Obj.reachable_words (Obj.repr result)))
      words;
    Alcotest.(check bool) (name ^ ": unpacked = packed") true (result = src)
  in
  check "int" Datatype.int (Array.init 4096 (fun i -> (i * 7919) - 1_000_000));
  check "float" Datatype.float (Array.init 4096 (fun i -> float_of_int i /. 7.))

(* --- commit/free lifecycle: state lives in the type ---

   A derived type's commit state is part of the type, so a type that is no
   longer referenced leaves nothing behind once freed. *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_freed_types_leave_heap_flat () =
  let n = 100_000 in
  let cycle () = Datatype.with_committed (Datatype.pair Datatype.int Datatype.int) ignore in
  cycle ();
  let before = Datatype.live_derived_count () in
  let w0 = live_words () in
  for _ = 1 to n do
    cycle ()
  done;
  let per_type = float_of_int (live_words () - w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "live words per freed type (%.3f)" per_type)
    true (per_type < 1.);
  Alcotest.(check int) "no live derived types" before (Datatype.live_derived_count ())

let test_without_bulk_shares_commit_state () =
  let dt = Datatype.pair Datatype.int Datatype.int in
  let copy = Datatype.without_bulk dt in
  Alcotest.(check bool) "copy starts uncommitted" false (Datatype.is_committed copy);
  Datatype.commit dt;
  Alcotest.(check bool) "commit original: copy committed" true (Datatype.is_committed copy);
  let live = Datatype.live_derived_count () in
  Datatype.free copy;
  Alcotest.(check bool) "free copy: original freed" false (Datatype.is_committed dt);
  Alcotest.(check int) "one free, one fewer live type" (live - 1)
    (Datatype.live_derived_count ());
  Alcotest.check_raises "original already freed"
    (Invalid_argument "Datatype.free: double free: pair(int,int)") (fun () ->
      Datatype.free dt)

(* [is_committed] runs on every send at assertion level >= 1. *)
let test_is_committed_allocates_nothing () =
  let derived = Datatype.pair Datatype.int Datatype.float in
  Datatype.commit derived;
  let per_call (type a) (dt : a Datatype.t) =
    let calls = 10_000 in
    let words, () =
      allocated_words (fun () ->
          for _ = 1 to calls do
            ignore (Sys.opaque_identity (Datatype.is_committed (Sys.opaque_identity dt)))
          done)
    in
    words /. float_of_int calls
  in
  Alcotest.(check (float 0.)) "builtin" 0. (per_call Datatype.int);
  Alcotest.(check (float 0.)) "derived" 0. (per_call derived);
  Datatype.free derived

let test_gapped_vs_blob_sizes () =
  let gapped =
    Datatype.record3_with_gaps "gap_t"
      (Datatype.field "a" Datatype.int (fun (a, _, _) -> a))
      (Datatype.field ~pad_after:7 "b" Datatype.char (fun (_, b, _) -> b))
      (Datatype.field "c" Datatype.float (fun (_, _, c) -> c))
      (fun a b c -> (a, b, c))
  in
  Alcotest.(check int) "padded size" 24 (Datatype.elem_size gapped);
  let v = (11, 'q', 2.5) in
  Alcotest.(check bool) "roundtrip with gaps" true (roundtrip gapped v = v)

let tests =
  [
    Alcotest.test_case "builtin sizes" `Quick test_builtin_sizes;
    Alcotest.test_case "builtins committed" `Quick test_builtins_committed;
    Alcotest.test_case "derived commit lifecycle" `Quick test_derived_commit_lifecycle;
    Alcotest.test_case "cannot free builtin" `Quick test_cannot_free_builtin;
    Alcotest.test_case "with_committed scopes" `Quick test_with_committed_scopes;
    Alcotest.test_case "uncommitted send rejected" `Quick test_uncommitted_send_rejected;
    Alcotest.test_case "signature mismatch" `Quick test_signature_mismatch_detected;
    Alcotest.test_case "record layout mismatch" `Quick test_record_layout_mismatch;
    qtest prop_repeat_linear_equals_fold;
    qtest prop_matches_repeat_equals_build;
    Alcotest.test_case "blob signature normalization" `Quick test_blob_matches_any_blob;
    Alcotest.test_case "zero-count signature" `Quick test_signature_zero_count;
    Alcotest.test_case "signature normalization" `Quick test_signature_normalization;
    Alcotest.test_case "blob segmentation independence" `Quick
      test_blob_segmentation_independent;
    Alcotest.test_case "zero_elem decodes" `Quick test_zero_elem_decodes;
    Alcotest.test_case "gapped struct size" `Quick test_gapped_vs_blob_sizes;
    Alcotest.test_case "bulk kernel dispatch" `Quick test_bulk_dispatch;
    qtest prop_bulk_equals_general;
    Alcotest.test_case "run kernels allocate nothing" `Quick test_run_kernels_allocate_nothing;
    Alcotest.test_case "freed types leave heap flat" `Quick
      test_freed_types_leave_heap_flat;
    Alcotest.test_case "without_bulk shares commit state" `Quick
      test_without_bulk_shares_commit_state;
    Alcotest.test_case "is_committed allocates nothing" `Quick
      test_is_committed_allocates_nothing;
    qtest prop_record_roundtrip;
    qtest prop_pair_roundtrip;
    qtest prop_triple_roundtrip;
    qtest prop_option_roundtrip;
    qtest prop_contiguous_roundtrip;
    qtest prop_array_pack_unpack;
    qtest prop_size_matches_packed_bytes;
  ]

let () = Alcotest.run "datatype" [ ("datatype", tests) ]
