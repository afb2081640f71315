(* MPL-style layouts: programmatic views over chunks of contiguous memory
   (paper §II and §III-D2 — the type-construction approach the authors
   plan to integrate as the default way of building dynamic types).

   A layout selects element positions out of a flat array:

   - [contiguous n]                  positions 0..n-1
   - [vector ~count ~blocklen ~stride]   [count] blocks of [blocklen],
                                     each [stride] apart (halo exchanges,
                                     matrix columns, ...)
   - [indexed blocks]                explicit (displacement, length) pairs
   - [offset k l]                    l shifted by k positions
   - [concat ls]                     positions of each layout in turn

   [extract] gathers the selected elements into a packed array;
   [scatter_into] writes a packed array back into the selected positions;
   [to_datatype] turns (base datatype, layout) into a datatype for the
   whole flat array that transfers exactly the selected elements. *)

type t =
  | Contiguous of int
  | Vector of { count : int; blocklen : int; stride : int }
  | Indexed of (int * int) list  (* (displacement, length) *)
  | Offset of int * t
  | Concat of t list

let contiguous n =
  if n < 0 then Errdefs.usage_error "Layout.contiguous: negative count";
  Contiguous n

let vector ~count ~blocklen ~stride =
  if count < 0 || blocklen < 0 then Errdefs.usage_error "Layout.vector: negative size";
  if stride < blocklen then
    Errdefs.usage_error "Layout.vector: stride %d smaller than block length %d" stride
      blocklen;
  Vector { count; blocklen; stride }

let indexed blocks =
  List.iter
    (fun (d, l) ->
      if d < 0 || l < 0 then Errdefs.usage_error "Layout.indexed: negative block")
    blocks;
  Indexed blocks

let offset k l =
  if k < 0 then Errdefs.usage_error "Layout.offset: negative offset";
  Offset (k, l)

let concat ls = Concat ls

let rec element_count = function
  | Contiguous n -> n
  | Vector { count; blocklen; _ } -> count * blocklen
  | Indexed blocks -> List.fold_left (fun acc (_, l) -> acc + l) 0 blocks
  | Offset (_, l) -> element_count l
  | Concat ls -> List.fold_left (fun acc l -> acc + element_count l) 0 ls

(* One past the highest position the layout touches. *)
let rec extent = function
  | Contiguous n -> n
  | Vector { count; blocklen; stride } ->
      if count = 0 || blocklen = 0 then 0 else ((count - 1) * stride) + blocklen
  | Indexed blocks -> List.fold_left (fun acc (d, l) -> max acc (d + l)) 0 blocks
  | Offset (k, l) -> k + extent l
  | Concat ls -> List.fold_left (fun acc l -> max acc (extent l)) 0 ls

(* Apply [f start len] to every selected block of consecutive positions,
   in layout order; empty blocks are skipped. *)
let iter_blocks (layout : t) (f : int -> int -> unit) =
  let block start len = if len > 0 then f start len in
  let rec go base = function
    | Contiguous n -> block base n
    | Vector { count; blocklen; stride } ->
        for b = 0 to count - 1 do
          block (base + (b * stride)) blocklen
        done
    | Indexed blocks -> List.iter (fun (d, l) -> block (base + d) l) blocks
    | Offset (k, l) -> go (base + k) l
    | Concat ls -> List.iter (go base) ls
  in
  go 0 layout

(* Apply [f] to every selected position, in layout order. *)
let iter_positions (layout : t) (f : int -> unit) =
  iter_blocks layout (fun start len ->
      for i = start to start + len - 1 do
        f i
      done)

let positions layout =
  let acc = ref [] in
  iter_positions layout (fun i -> acc := i :: !acc);
  List.rev !acc

(* Gather the selected elements of [src] into a fresh packed array. *)
let extract (layout : t) (src : 'a array) : 'a array =
  let n = element_count layout in
  if extent layout > Array.length src then
    Errdefs.usage_error "Layout.extract: layout extent %d exceeds array length %d"
      (extent layout) (Array.length src);
  if n = 0 then [||]
  else begin
    let out = Array.make n src.(0) in
    let j = ref 0 in
    iter_positions layout (fun i ->
        out.(!j) <- src.(i);
        incr j);
    out
  end

(* Write packed elements back into the selected positions of [dst]. *)
let scatter_into (layout : t) ~(packed : 'a array) (dst : 'a array) : unit =
  if element_count layout <> Array.length packed then
    Errdefs.usage_error "Layout.scatter_into: %d packed elements for a layout of %d"
      (Array.length packed) (element_count layout);
  if extent layout > Array.length dst then
    Errdefs.usage_error "Layout.scatter_into: layout extent exceeds array length";
  let j = ref 0 in
  iter_positions layout (fun i ->
      dst.(i) <- packed.(!j);
      incr j)

(* A datatype whose single element is the *whole flat array*, transferring
   exactly the layout's selection.  Each block of two or more elements goes
   through [Datatype.pack_array], so a base with a run kernel copies it in
   one loop instead of one closure call per element; a one-element block
   is packed directly, skipping that call's dispatch.  Unpacking yields
   the packed selection (use [scatter_into] to place it into strided
   storage). *)
let to_datatype (base : 'a Datatype.t) (layout : t) : 'a array Datatype.t =
  let n = element_count layout in
  Datatype.create
    ~name:(Printf.sprintf "layout(%d,%s)" n (Datatype.name base))
    ~size:(n * Datatype.elem_size base)
    ~signature:(Datatype.signature_of_count base n)
    ~pack:(fun w src ->
      if extent layout > Array.length src then
        Errdefs.usage_error "layout pack: extent exceeds array length";
      iter_blocks layout (fun pos count ->
          if count = 1 then base.Datatype.pack w src.(pos)
          else Datatype.pack_array base w src ~pos ~count))
    ~unpack:(fun r -> Datatype.unpack_array base r ~count:n)
