(* Typed datatype descriptors.

   A ['a t] describes how values of type ['a] are laid out on the wire:
   their per-element byte size, their type signature (for send/recv matching
   checks), and pack/unpack functions.  This is the simulator-side analogue
   of MPI_Datatype, and the substrate on which the binding layer's
   compile-time type mapping (paper §III-D) is built:

   - builtins ([int], [float], ...) correspond to MPI's basic types;
   - [record2]..[record5] build gap-skipping struct types from field lists,
     the analogue of MPI_Type_create_struct driven by PFR reflection: the
     layout cannot go out of sync with the data because the fields *are*
     the accessors;
   - [blob] maps a trivially-copyable value to an opaque contiguous byte
     block, the paper's preferred default (§III-D4): one bulk copy,
     alignment gaps included on the wire;
   - [contiguous], [pair], [option_], [create] cover derived and dynamic
     (runtime-sized) types.

   Derived types must be committed before use and freed afterwards; each
   type carries its own commit state, and one process-wide count of live
   derived types lets tests assert the absence of resource leaks (the
   paper notes MPL/RWTH-MPI leak committed types). *)

type kind = Builtin | Derived

(* Bulk fast-path kernel for fixed-size, contiguously-encoded element
   types (builtins, [blob], and compositions of them): [bk_write buf pos v]
   stores exactly [elem_size] bytes at [pos]; [bk_read buf pos] loads them.
   [pack_array]/[unpack_array]/[unpack_into] use it to do ONE bounds check
   and buffer reservation for a whole run of elements and a tight
   direct-store loop — no closure dispatch, no [Wire] cursor updates per
   element.  The kernel is chosen once when the type is constructed (for
   builtins, that is commit time: they are born committed), so the
   per-message cost of the dispatch is a single branch.

   Builtins also carry a run kernel ([bk_run]): whole-run loops written
   against the concrete array type, so the element accessors inline and
   a [float array] is read and written unboxed.  [rk_pack buf off src pos
   count] stores [src.(pos) .. src.(pos + count - 1)] at [off];
   [rk_unpack buf off dst pos count] loads them into [dst]; [rk_alloc n]
   makes an [n]-element array of the right representation (a flat float
   array for floats) for [rk_unpack] to fill. *)
type 'a run_kernel = {
  rk_pack : Bytes.t -> int -> 'a array -> int -> int -> unit;
  rk_unpack : Bytes.t -> int -> 'a array -> int -> int -> unit;
  rk_alloc : int -> 'a array;
}

type 'a bulk_kernel = {
  bk_write : Bytes.t -> int -> 'a -> unit;
  bk_read : Bytes.t -> int -> 'a;
  bk_run : 'a run_kernel option;
}

(* Commit state.  Builtins are born [Committed] and stay so; a derived
   type goes [Uncommitted] -> [Committed] -> [Freed].  The cell is shared
   by a type and its [without_bulk] copy. *)
type state = Uncommitted | Committed | Freed

type cell = state ref

type 'a t = {
  name : string;
  kind : kind;
  elem_size : int;  (* wire bytes per element *)
  signature : Signature.t;  (* per element *)
  pack : Wire.writer -> 'a -> unit;
  unpack : Wire.reader -> 'a;
  bulk : 'a bulk_kernel option;  (* fast path; [None] = general path *)
  cell : cell;
}

(* ------------------------------------------------------------------ *)
(* Commit/free lifecycle *)

(* Derived types that were committed but not yet freed; builtins are
   permanently committed and not counted.  Tests use this to detect
   resource leakage (the paper notes that MPL and RWTH-MPI leak committed
   types). *)
let live_derived = Atomic.make 0

let commit t =
  match !(t.cell) with
  | Committed -> ()
  | Freed -> invalid_arg ("Datatype.commit: type already freed: " ^ t.name)
  | Uncommitted ->
      t.cell := Committed;
      Atomic.incr live_derived

let free t =
  if t.kind = Builtin then invalid_arg "Datatype.free: cannot free builtin";
  match !(t.cell) with
  | Freed -> invalid_arg ("Datatype.free: double free: " ^ t.name)
  | Committed ->
      t.cell := Freed;
      Atomic.decr live_derived
  | Uncommitted -> t.cell := Freed

let is_committed t = match !(t.cell) with Committed -> true | Uncommitted | Freed -> false

let live_derived_count () = Atomic.get live_derived

(* ------------------------------------------------------------------ *)
(* Builtins *)

let builtin ~name ~size ~signature ~pack ~unpack ~bulk =
  {
    name;
    kind = Builtin;
    elem_size = size;
    signature;
    pack;
    unpack;
    bulk = Some bulk;
    cell = ref Committed;
  }

(* Each builtin kernel must produce exactly the bytes its [Wire] put/get
   pair would — the fast-path≡general-path qcheck property enforces this.
   The run loops repeat the per-element accessors on purpose: written
   against the concrete array type, they compile to direct loads and
   stores with no closure call and no boxing. *)

let int : int t =
  builtin ~name:"int" ~size:8
    ~signature:(Signature.of_base Signature.Int64)
    ~pack:Wire.put_int ~unpack:Wire.get_int
    ~bulk:
      {
        bk_write = (fun b p v -> Bytes.set_int64_le b p (Int64.of_int v));
        bk_read = (fun b p -> Int64.to_int (Bytes.get_int64_le b p));
        bk_run =
          Some
            {
              rk_pack =
                (fun b off (src : int array) pos n ->
                  for i = 0 to n - 1 do
                    Bytes.set_int64_le b (off + (i * 8))
                      (Int64.of_int (Array.unsafe_get src (pos + i)))
                  done);
              rk_unpack =
                (fun b off (dst : int array) pos n ->
                  for i = 0 to n - 1 do
                    Array.unsafe_set dst (pos + i)
                      (Int64.to_int (Bytes.get_int64_le b (off + (i * 8))))
                  done);
              rk_alloc = (fun n -> Array.make n 0);
            };
      }

let int32 : int32 t =
  builtin ~name:"int32" ~size:4
    ~signature:(Signature.of_base Signature.Int32)
    ~pack:Wire.put_int32 ~unpack:Wire.get_int32
    ~bulk:
      {
        bk_write = (fun b p v -> Bytes.set_int32_le b p v);
        bk_read = Bytes.get_int32_le;
        bk_run =
          Some
            {
              rk_pack =
                (fun b off (src : int32 array) pos n ->
                  for i = 0 to n - 1 do
                    Bytes.set_int32_le b (off + (i * 4)) (Array.unsafe_get src (pos + i))
                  done);
              rk_unpack =
                (fun b off (dst : int32 array) pos n ->
                  for i = 0 to n - 1 do
                    Array.unsafe_set dst (pos + i) (Bytes.get_int32_le b (off + (i * 4)))
                  done);
              rk_alloc = (fun n -> Array.make n 0l);
            };
      }

let int64 : int64 t =
  builtin ~name:"int64" ~size:8
    ~signature:(Signature.of_base Signature.Int64)
    ~pack:Wire.put_int64 ~unpack:Wire.get_int64
    ~bulk:
      {
        bk_write = (fun b p v -> Bytes.set_int64_le b p v);
        bk_read = Bytes.get_int64_le;
        bk_run =
          Some
            {
              rk_pack =
                (fun b off (src : int64 array) pos n ->
                  for i = 0 to n - 1 do
                    Bytes.set_int64_le b (off + (i * 8)) (Array.unsafe_get src (pos + i))
                  done);
              rk_unpack =
                (fun b off (dst : int64 array) pos n ->
                  for i = 0 to n - 1 do
                    Array.unsafe_set dst (pos + i) (Bytes.get_int64_le b (off + (i * 8)))
                  done);
              rk_alloc = (fun n -> Array.make n 0L);
            };
      }

let float : float t =
  builtin ~name:"float" ~size:8
    ~signature:(Signature.of_base Signature.Float64)
    ~pack:Wire.put_float ~unpack:Wire.get_float
    ~bulk:
      {
        bk_write = (fun b p v -> Bytes.set_int64_le b p (Int64.bits_of_float v));
        bk_read = (fun b p -> Int64.float_of_bits (Bytes.get_int64_le b p));
        bk_run =
          Some
            {
              rk_pack =
                (fun b off (src : float array) pos n ->
                  for i = 0 to n - 1 do
                    Bytes.set_int64_le b (off + (i * 8))
                      (Int64.bits_of_float (Array.unsafe_get src (pos + i)))
                  done);
              rk_unpack =
                (fun b off (dst : float array) pos n ->
                  for i = 0 to n - 1 do
                    Array.unsafe_set dst (pos + i)
                      (Int64.float_of_bits (Bytes.get_int64_le b (off + (i * 8))))
                  done);
              rk_alloc = Array.create_float;
            };
      }

let float32 : float t =
  builtin ~name:"float32" ~size:4
    ~signature:(Signature.of_base Signature.Float32)
    ~pack:Wire.put_float32 ~unpack:Wire.get_float32
    ~bulk:
      {
        bk_write = (fun b p v -> Bytes.set_int32_le b p (Int32.bits_of_float v));
        bk_read = (fun b p -> Int32.float_of_bits (Bytes.get_int32_le b p));
        bk_run =
          Some
            {
              rk_pack =
                (fun b off (src : float array) pos n ->
                  for i = 0 to n - 1 do
                    Bytes.set_int32_le b (off + (i * 4))
                      (Int32.bits_of_float (Array.unsafe_get src (pos + i)))
                  done);
              rk_unpack =
                (fun b off (dst : float array) pos n ->
                  for i = 0 to n - 1 do
                    Array.unsafe_set dst (pos + i)
                      (Int32.float_of_bits (Bytes.get_int32_le b (off + (i * 4))))
                  done);
              rk_alloc = Array.create_float;
            };
      }

let char_kernel =
  {
    bk_write = (fun b p c -> Bytes.unsafe_set b p c);
    bk_read = Bytes.get;
    bk_run =
      Some
        {
          rk_pack =
            (fun b off (src : char array) pos n ->
              for i = 0 to n - 1 do
                Bytes.unsafe_set b (off + i) (Array.unsafe_get src (pos + i))
              done);
          rk_unpack =
            (fun b off (dst : char array) pos n ->
              for i = 0 to n - 1 do
                Array.unsafe_set dst (pos + i) (Bytes.get b (off + i))
              done);
          rk_alloc = (fun n -> Array.make n '\000');
        };
  }

let char : char t =
  builtin ~name:"char" ~size:1
    ~signature:(Signature.of_base Signature.Char)
    ~pack:Wire.put_char ~unpack:Wire.get_char ~bulk:char_kernel

let byte : char t =
  builtin ~name:"byte" ~size:1
    ~signature:(Signature.of_base Signature.Blob)
    ~pack:Wire.put_char ~unpack:Wire.get_char ~bulk:char_kernel

let bool_of_byte = function
  | '\000' -> false
  | '\001' -> true
  | c -> raise (Wire.Decode_error { what = "bool must be 0 or 1"; got = Char.code c })

let bool : bool t =
  builtin ~name:"bool" ~size:1
    ~signature:(Signature.of_base Signature.Bool)
    ~pack:Wire.put_bool ~unpack:Wire.get_bool
    ~bulk:
      {
        bk_write = (fun b p v -> Bytes.set b p (if v then '\001' else '\000'));
        bk_read = (fun b p -> bool_of_byte (Bytes.get b p));
        bk_run =
          Some
            {
              rk_pack =
                (fun b off (src : bool array) pos n ->
                  for i = 0 to n - 1 do
                    Bytes.unsafe_set b (off + i)
                      (if Array.unsafe_get src (pos + i) then '\001' else '\000')
                  done);
              rk_unpack =
                (fun b off (dst : bool array) pos n ->
                  for i = 0 to n - 1 do
                    Array.unsafe_set dst (pos + i) (bool_of_byte (Bytes.get b (off + i)))
                  done);
              rk_alloc = (fun n -> Array.make n false);
            };
      }

(* ------------------------------------------------------------------ *)
(* Derived-type constructors *)

(* Internal constructor: derived type with an explicit (optional) bulk
   kernel.  The public [create] takes opaque pack/unpack closures, about
   which nothing can be assumed, so it always gets the general path. *)
let create_k ~name ~size ~signature ~pack ~unpack ~bulk =
  if size < 0 then invalid_arg "Datatype.create: negative size";
  {
    name;
    kind = Derived;
    elem_size = size;
    signature;
    pack;
    unpack;
    bulk;
    cell = ref Uncommitted;
  }

(* Fully custom ("dynamic", §III-D2): the caller supplies everything, with
   sizes possibly known only at runtime. *)
let create ~name ~size ~signature ~pack ~unpack =
  create_k ~name ~size ~signature ~pack ~unpack ~bulk:None

let contiguous ~count (base : 'a t) : 'a array t =
  if count < 0 then invalid_arg "Datatype.contiguous: negative count";
  let name = Printf.sprintf "contiguous(%d,%s)" count base.name in
  let length_check (a : 'a array) =
    if Array.length a <> count then
      invalid_arg
        (Printf.sprintf "%s: expected %d elements, got %d" name count (Array.length a))
  in
  let pack w (a : 'a array) =
    length_check a;
    for i = 0 to count - 1 do
      base.pack w (Array.unsafe_get a i)
    done
  in
  let unpack r = Array.init count (fun _ -> base.unpack r) in
  (* A fixed run of a bulk-capable base is itself bulk-capable: the block
     kernel inherits the per-element stores. *)
  let bulk =
    match base.bulk with
    | None -> None
    | Some k ->
        let sz = base.elem_size in
        Some
          {
            bk_write =
              (fun buf pos (a : 'a array) ->
                length_check a;
                for i = 0 to count - 1 do
                  k.bk_write buf (pos + (i * sz)) (Array.unsafe_get a i)
                done);
            bk_read =
              (fun buf pos -> Array.init count (fun i -> k.bk_read buf (pos + (i * sz))));
            bk_run = None;
          }
  in
  create_k ~name ~size:(count * base.elem_size)
    ~signature:(Signature.repeat base.signature count)
    ~pack ~unpack ~bulk

let pair (a : 'a t) (b : 'b t) : ('a * 'b) t =
  let name = Printf.sprintf "pair(%s,%s)" a.name b.name in
  let bulk =
    match (a.bulk, b.bulk) with
    | Some ka, Some kb ->
        let sza = a.elem_size in
        Some
          {
            bk_write =
              (fun buf pos (x, y) ->
                ka.bk_write buf pos x;
                kb.bk_write buf (pos + sza) y);
            bk_read = (fun buf pos -> (ka.bk_read buf pos, kb.bk_read buf (pos + sza)));
            bk_run = None;
          }
    | _ -> None
  in
  create_k ~name ~size:(a.elem_size + b.elem_size)
    ~signature:(Signature.append a.signature b.signature)
    ~pack:(fun w (x, y) ->
      a.pack w x;
      b.pack w y)
    ~unpack:(fun r ->
      let x = a.unpack r in
      let y = b.unpack r in
      (x, y))
    ~bulk

let triple (a : 'a t) (b : 'b t) (c : 'c t) : ('a * 'b * 'c) t =
  let name = Printf.sprintf "triple(%s,%s,%s)" a.name b.name c.name in
  create ~name ~size:(a.elem_size + b.elem_size + c.elem_size)
    ~signature:(Signature.concat [ a.signature; b.signature; c.signature ])
    ~pack:(fun w (x, y, z) ->
      a.pack w x;
      b.pack w y;
      c.pack w z)
    ~unpack:(fun r ->
      let x = a.unpack r in
      let y = b.unpack r in
      let z = c.unpack r in
      (x, y, z))

(* Fixed-size option: a presence byte plus space for the payload either way,
   so that elements stay fixed-size (absent payloads are zero padding). *)
let option_ (base : 'a t) : 'a option t =
  let name = Printf.sprintf "option(%s)" base.name in
  create ~name
    ~size:(1 + base.elem_size)
    ~signature:(Signature.append (Signature.of_base Signature.Bool)
                  (Signature.of_base ~count:base.elem_size Signature.Blob))
    ~pack:(fun w v ->
      match v with
      | None ->
          Wire.put_bool w false;
          Wire.put_padding w base.elem_size
      | Some x ->
          Wire.put_bool w true;
          let before = Wire.length w in
          base.pack w x;
          let written = Wire.length w - before in
          if written <> base.elem_size then
            invalid_arg (name ^ ": payload size mismatch");
          ())
    ~unpack:(fun r ->
      if Wire.get_bool r then Some (base.unpack r)
      else begin
        Wire.skip r base.elem_size;
        None
      end)

(* ------------------------------------------------------------------ *)
(* Struct types from field lists (the PFR/struct_type analogue) *)

type ('r, 'a) field = {
  fname : string;
  ftype : 'a t;
  fget : 'r -> 'a;
  fpad_after : int;  (* alignment gap after this field (not sent) *)
}

let field ?(pad_after = 0) fname ftype fget =
  if pad_after < 0 then invalid_arg "Datatype.field: negative padding";
  { fname; ftype; fget; fpad_after = pad_after }

(* Gap-skipping struct type: packs field by field, omitting padding from
   the wire — the analogue of MPI_Type_create_struct. *)
let record2 name (fa : ('r, 'a) field) (fb : ('r, 'b) field) (make : 'a -> 'b -> 'r) : 'r t =
  create ~name
    ~size:(fa.ftype.elem_size + fb.ftype.elem_size)
    ~signature:(Signature.append fa.ftype.signature fb.ftype.signature)
    ~pack:(fun w r ->
      fa.ftype.pack w (fa.fget r);
      fb.ftype.pack w (fb.fget r))
    ~unpack:(fun rd ->
      let a = fa.ftype.unpack rd in
      let b = fb.ftype.unpack rd in
      make a b)

let record3 name (fa : ('r, 'a) field) (fb : ('r, 'b) field) (fc : ('r, 'c) field)
    (make : 'a -> 'b -> 'c -> 'r) : 'r t =
  create ~name
    ~size:(fa.ftype.elem_size + fb.ftype.elem_size + fc.ftype.elem_size)
    ~signature:
      (Signature.concat [ fa.ftype.signature; fb.ftype.signature; fc.ftype.signature ])
    ~pack:(fun w r ->
      fa.ftype.pack w (fa.fget r);
      fb.ftype.pack w (fb.fget r);
      fc.ftype.pack w (fc.fget r))
    ~unpack:(fun rd ->
      let a = fa.ftype.unpack rd in
      let b = fb.ftype.unpack rd in
      let c = fc.ftype.unpack rd in
      make a b c)

let record4 name (fa : ('r, 'a) field) (fb : ('r, 'b) field) (fc : ('r, 'c) field)
    (fd : ('r, 'd) field) (make : 'a -> 'b -> 'c -> 'd -> 'r) : 'r t =
  create ~name
    ~size:
      (fa.ftype.elem_size + fb.ftype.elem_size + fc.ftype.elem_size + fd.ftype.elem_size)
    ~signature:
      (Signature.concat
         [ fa.ftype.signature; fb.ftype.signature; fc.ftype.signature; fd.ftype.signature ])
    ~pack:(fun w r ->
      fa.ftype.pack w (fa.fget r);
      fb.ftype.pack w (fb.fget r);
      fc.ftype.pack w (fc.fget r);
      fd.ftype.pack w (fd.fget r))
    ~unpack:(fun rd ->
      let a = fa.ftype.unpack rd in
      let b = fb.ftype.unpack rd in
      let c = fc.ftype.unpack rd in
      let d = fd.ftype.unpack rd in
      make a b c d)

let record5 name (fa : ('r, 'a) field) (fb : ('r, 'b) field) (fc : ('r, 'c) field)
    (fd : ('r, 'd) field) (fe : ('r, 'e) field) (make : 'a -> 'b -> 'c -> 'd -> 'e -> 'r) :
    'r t =
  create ~name
    ~size:
      (fa.ftype.elem_size + fb.ftype.elem_size + fc.ftype.elem_size + fd.ftype.elem_size
     + fe.ftype.elem_size)
    ~signature:
      (Signature.concat
         [
           fa.ftype.signature;
           fb.ftype.signature;
           fc.ftype.signature;
           fd.ftype.signature;
           fe.ftype.signature;
         ])
    ~pack:(fun w r ->
      fa.ftype.pack w (fa.fget r);
      fb.ftype.pack w (fb.fget r);
      fc.ftype.pack w (fc.fget r);
      fd.ftype.pack w (fd.fget r);
      fe.ftype.pack w (fe.fget r))
    ~unpack:(fun rd ->
      let a = fa.ftype.unpack rd in
      let b = fb.ftype.unpack rd in
      let c = fc.ftype.unpack rd in
      let d = fd.ftype.unpack rd in
      let e = fe.ftype.unpack rd in
      make a b c d e)

(* Gap-including struct type: like record*, but alignment gaps are sent as
   zero padding in a single pass — the trivially-copyable "contiguous bytes"
   default of §III-D4.  Wire size includes padding; the signature is Blob
   so it matches any equally-sized blob. *)
let record3_with_gaps name (fa : ('r, 'a) field) (fb : ('r, 'b) field) (fc : ('r, 'c) field)
    (make : 'a -> 'b -> 'c -> 'r) : 'r t =
  let size =
    fa.ftype.elem_size + fa.fpad_after + fb.ftype.elem_size + fb.fpad_after
    + fc.ftype.elem_size + fc.fpad_after
  in
  create ~name ~size
    ~signature:(Signature.of_base ~count:size Signature.Blob)
    ~pack:(fun w r ->
      fa.ftype.pack w (fa.fget r);
      Wire.put_padding w fa.fpad_after;
      fb.ftype.pack w (fb.fget r);
      Wire.put_padding w fb.fpad_after;
      fc.ftype.pack w (fc.fget r);
      Wire.put_padding w fc.fpad_after)
    ~unpack:(fun rd ->
      let a = fa.ftype.unpack rd in
      Wire.skip rd fa.fpad_after;
      let b = fb.ftype.unpack rd in
      Wire.skip rd fb.fpad_after;
      let c = fc.ftype.unpack rd in
      Wire.skip rd fc.fpad_after;
      make a b c)

(* Opaque contiguous byte block for trivially-copyable values: a single bulk
   write/read per element.  [write buf pos v] must fill exactly [size]
   bytes at [pos]; [read buf pos] must read exactly [size] bytes. *)
let blob ~name ~size ~(write : Bytes.t -> int -> 'a -> unit) ~(read : Bytes.t -> int -> 'a) :
    'a t =
  if size <= 0 then invalid_arg "Datatype.blob: size must be positive";
  (* Single-pass, zero-copy: the value is written directly into (and read
     directly from) the wire buffer. *)
  let pack w v =
    let pos = Wire.reserve w size in
    write (Wire.storage w) pos v
  in
  let unpack r =
    let pos = Wire.read_raw r size in
    read (Wire.source r) pos
  in
  create_k ~name ~size
    ~signature:(Signature.of_base ~count:size Signature.Blob)
    ~pack ~unpack
    ~bulk:(Some { bk_write = write; bk_read = read; bk_run = None })

(* ------------------------------------------------------------------ *)
(* Array pack/unpack helpers used by the runtime *)

(* Each helper dispatches ONCE per message, to the best tier the type has:
   the run kernel (one reservation, one monomorphic loop), else the
   per-element kernel (one reservation, one closure call per element),
   else the general path (per-element [pack]/[unpack] through the [Wire]
   cursor: derived/struct types, dynamic sizes). *)

let pack_array (t : 'a t) (w : Wire.writer) (a : 'a array) ~pos ~count =
  if pos < 0 || count < 0 || pos + count > Array.length a then
    invalid_arg "Datatype.pack_array: range out of bounds";
  match t.bulk with
  | Some { bk_run = Some rk; _ } ->
      let base = Wire.reserve w (count * t.elem_size) in
      rk.rk_pack (Wire.storage w) base a pos count
  | Some k ->
      let sz = t.elem_size in
      let base = Wire.reserve w (count * sz) in
      let buf = Wire.storage w in
      let off = ref base in
      for i = pos to pos + count - 1 do
        k.bk_write buf !off (Array.unsafe_get a i);
        off := !off + sz
      done
  | None ->
      for i = pos to pos + count - 1 do
        t.pack w (Array.unsafe_get a i)
      done

let unpack_array (t : 'a t) (r : Wire.reader) ~count : 'a array =
  if count < 0 then invalid_arg "Datatype.unpack_array: negative count";
  match t.bulk with
  | Some { bk_run = Some rk; _ } ->
      let base = Wire.read_raw r (count * t.elem_size) in
      let a = rk.rk_alloc count in
      rk.rk_unpack (Wire.source r) base a 0 count;
      a
  | Some k ->
      let sz = t.elem_size in
      let base = Wire.read_raw r (count * sz) in
      let buf = Wire.source r in
      Array.init count (fun i -> k.bk_read buf (base + (i * sz)))
  | None -> Array.init count (fun _ -> t.unpack r)

let unpack_into (t : 'a t) (r : Wire.reader) (dst : 'a array) ~pos ~count =
  if pos < 0 || count < 0 || pos + count > Array.length dst then
    invalid_arg "Datatype.unpack_into: range out of bounds";
  match t.bulk with
  | Some { bk_run = Some rk; _ } ->
      let base = Wire.read_raw r (count * t.elem_size) in
      rk.rk_unpack (Wire.source r) base dst pos count
  | Some k ->
      let sz = t.elem_size in
      let base = Wire.read_raw r (count * sz) in
      let buf = Wire.source r in
      let off = ref base in
      for i = pos to pos + count - 1 do
        Array.unsafe_set dst i (k.bk_read buf !off);
        off := !off + sz
      done
  | None ->
      for i = pos to pos + count - 1 do
        Array.unsafe_set dst i (t.unpack r)
      done

(* Whether the type has a bulk kernel (i.e. takes the fast path). *)
let bulk_available t = t.bulk <> None

(* The same type with its kernel stripped: forced onto the general path.
   Benchmarks and the fast≡general equivalence property use this as the
   "before" side; the copy shares the original's commit state. *)
let without_bulk (t : 'a t) : 'a t = { t with bulk = None }

(* Scoped commit: commit [t] if needed, run [f t], and free [t] again if
   we were the ones to commit it.  This is how the binding layer manages
   derived types transparently (Construct-On-First-Use with guaranteed
   cleanup, §III-D1) while the raw layer keeps MPI's manual discipline. *)
let with_committed (t : 'a t) (f : 'a t -> 'b) : 'b =
  if is_committed t then f t
  else begin
    commit t;
    Fun.protect ~finally:(fun () -> free t) (fun () -> f t)
  end

(* A placeholder element decoded from zero bytes; used to seed freshly
   allocated receive arrays when the receiver holds no local element of the
   type.  All combinators in this module decode zero bytes successfully. *)
let zero_elem (t : 'a t) : 'a =
  let w = Wire.create_writer ~capacity:(Stdlib.max 1 t.elem_size) () in
  Wire.put_padding w t.elem_size;
  t.unpack (Wire.reader_of_bytes (Wire.contents w))

let size_of_count (t : 'a t) n = t.elem_size * n

(* One element's signature is the type's own (already normalized), so a
   single-element send builds none. *)
let signature_of_count (t : 'a t) n =
  if n = 1 then t.signature else Signature.repeat t.signature n

let name t = t.name

let elem_size t = t.elem_size

(* A pre-compiled pack/unpack plan for a (type, count) pair.  Persistent
   requests resolve byte size and wire signature once at init so the
   per-cycle path passes cached values instead of recomputing them
   ([signature_of_count] allocates a fresh signature per call). *)
type 'a plan = {
  plan_dt : 'a t;
  plan_count : int;
  plan_bytes : int;
  plan_signature : Signature.t;
}

let plan (t : 'a t) ~count =
  if count < 0 then Errdefs.usage_error "Datatype.plan: negative count %d" count;
  {
    plan_dt = t;
    plan_count = count;
    plan_bytes = size_of_count t count;
    plan_signature = signature_of_count t count;
  }
