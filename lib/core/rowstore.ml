(* Flat structure-of-arrays row storage for routing indices.

   One contiguous backing buffer holds every peer row of a node's index:
   row [slot] occupies [stride] consecutive cells starting at
   [slot * stride].  A peer -> slot hash table resolves rows; freed
   slots are recycled LIFO, so the backing buffer never shrinks but also
   never fragments.

   Two cell formats share the interface:

   - [Floats] (the default): one IEEE double per cell, exposed raw
     through {!data} for the zero-copy arithmetic kernels.  This is the
     bit-identity format — every figure runs on it.

   - [Codes]: log-scale bucketed, bit-packed topic counts (paper §6's
     compression argument applied to the store itself).  Cell [v] maps
     to code [round(log1p v / gamma)] in [bits] bits, decoded through a
     precomputed [expm1] table; zero is exactly representable both
     ways.  Readers decode whole rows into a per-domain scratch buffer
     ({!decode_row} / {!scratch}), writers encode whole rows back, so
     the arithmetic above the store is unchanged — only resident size
     (and accuracy, boundedly) differs.

   Bit-for-bit determinism contract: aggregation iterates rows in the
   order of the peer index table, NOT in slot order.  The table is
   created with the same initial size (8) and sees exactly the same
   add/remove key sequence as the per-peer [Summary] hash tables this
   store replaced, and OCaml's [Hashtbl.replace] mutates an existing
   binding in place, so iteration order — and therefore float summation
   order — is unchanged from the boxed representation.  Stores rebuilt
   from a snapshot cannot re-create a hash table's history, so they
   carry the live iteration order as an explicit peer array ([order])
   recorded at save time; {!iter} replays it verbatim. *)

type quant_config = { bits : int; vmax : float }

type quantizer = {
  q_bits : int;
  q_vmax : float;
  q_levels : int;
  q_gamma : float;
  q_decode : float array;  (* code -> representative value *)
}

type cells =
  | Floats of float array
  | Codes of { q : quantizer; mutable codes : Bytes.t }

type t = {
  stride : int;
  mutable cells : cells;
  mutable stamps : int array;
      (* per-slot provenance stamp: the logical update-wave id that last
         wrote the row; 0 marks rows untouched since construction.  Kept
         parallel to the cells (one int per row) and excluded from
         [capacity_words], which reports the index payload only. *)
  mutable index : (int, int) Hashtbl.t;  (* peer -> slot *)
  mutable shared_index : bool;
      (* the peer table is shared with clones (copy-on-write): it must
         be re-copied privately before any insert or remove *)
  mutable order : int array option;
      (* explicit iteration order (peers), for stores reconstructed from
         a snapshot.  Treated as immutable: mutations that change the
         peer set install a fresh array, so clones sharing it are safe. *)
  mutable free : int list;  (* recycled slots, most recently freed first *)
  mutable next : int;  (* first never-used slot *)
}

let initial_rows = 4

let default_quant = { bits = 8; vmax = 1e9 }

let make_quantizer { bits; vmax } =
  if bits < 1 || bits > 16 then
    invalid_arg "Rowstore: quantizer bits must be in 1..16";
  if not (vmax > 0.) then invalid_arg "Rowstore: quantizer vmax must be > 0";
  let levels = 1 lsl bits in
  let gamma = Float.log1p vmax /. float_of_int (levels - 1) in
  {
    q_bits = bits;
    q_vmax = vmax;
    q_levels = levels;
    q_gamma = gamma;
    q_decode =
      Array.init levels (fun k -> Float.expm1 (float_of_int k *. gamma));
  }

let encode_cell q v =
  if not (v > 0.) then 0
  else
    let k = int_of_float (Float.round (Float.log1p v /. q.q_gamma)) in
    if k < 0 then 0 else if k > q.q_levels - 1 then q.q_levels - 1 else k

(* Bytes per packed row, padded so the 3-byte windows below never read
   past a row into uninitialized territory (2 spare bytes at the very
   end of the buffer cover the last row). *)
let row_bytes_of ~stride q = ((stride * q.q_bits) + 7) / 8

let pad_bytes = 2

(* Cell [i] of the row starting at byte [base]: up to 16 bits starting
   at bit [i * bits], read/written through a little-endian 3-byte
   window. *)
let get_code codes ~base ~bits i =
  let bitpos = i * bits in
  let byte = base + (bitpos lsr 3) in
  let shift = bitpos land 7 in
  let w =
    Char.code (Bytes.unsafe_get codes byte)
    lor (Char.code (Bytes.unsafe_get codes (byte + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get codes (byte + 2)) lsl 16)
  in
  (w lsr shift) land ((1 lsl bits) - 1)

let set_code codes ~base ~bits i v =
  let bitpos = i * bits in
  let byte = base + (bitpos lsr 3) in
  let shift = bitpos land 7 in
  let mask = ((1 lsl bits) - 1) lsl shift in
  let w =
    Char.code (Bytes.unsafe_get codes byte)
    lor (Char.code (Bytes.unsafe_get codes (byte + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get codes (byte + 2)) lsl 16)
  in
  let w = w land lnot mask lor ((v lsl shift) land mask) in
  Bytes.unsafe_set codes byte (Char.unsafe_chr (w land 0xff));
  Bytes.unsafe_set codes (byte + 1) (Char.unsafe_chr ((w lsr 8) land 0xff));
  Bytes.unsafe_set codes (byte + 2) (Char.unsafe_chr ((w lsr 16) land 0xff))

(* [rows] is a capacity hint — typically the node's overlay degree, so a
   well-hinted store never reallocates and wastes no slots.  The minor
   heap feels the difference: a default-sized store on a 2000-node tree
   costs an extra ~250 words per node in unused and regrown rows. *)
let create ?(rows = initial_rows) ?quant ~stride () =
  if stride <= 0 then invalid_arg "Rowstore.create: stride must be positive";
  let rows = max 1 rows in
  let cells =
    match quant with
    | None -> Floats (Array.make (rows * stride) 0.)
    | Some qc ->
        let q = make_quantizer qc in
        Codes { q; codes = Bytes.make ((rows * row_bytes_of ~stride q) + pad_bytes) '\000' }
  in
  {
    stride;
    cells;
    stamps = Array.make rows 0;
    index = Hashtbl.create 8;
    shared_index = false;
    order = None;
    free = [];
    next = 0;
  }

(* Template cloning: the cells are blitted, but the peer table is
   shared copy-on-write — a converged-network clone only ever rewrites
   existing rows, so in the common case no clone pays for a table.
   When a mutation does force materialisation, [Hashtbl.copy]
   duplicates the bucket structure verbatim, so iteration order — and
   therefore every aggregation's float summation order — is identical
   either way.  This is what makes cached converged networks safe to
   hand out as per-trial clones.  An explicit [order] array is shared
   outright: it is replaced, never mutated. *)
let copy t =
  t.shared_index <- true;
  let cells =
    match t.cells with
    | Floats d -> Floats (Array.copy d)
    | Codes { q; codes } -> Codes { q; codes = Bytes.copy codes }
  in
  { t with cells; stamps = Array.copy t.stamps }

(* Materialise a private peer table before an insert or remove.  The
   original's flag stays set: it may be shared with any number of other
   clones, none of which ever sees this mutation. *)
let own_index t =
  if t.shared_index then begin
    t.index <- Hashtbl.copy t.index;
    t.shared_index <- false
  end

let stride t = t.stride

let data t =
  match t.cells with
  | Floats d -> d
  | Codes _ ->
      invalid_arg "Rowstore.data: quantized store has no raw float view"

let quantized t = match t.cells with Floats _ -> false | Codes _ -> true

let quant t =
  match t.cells with
  | Floats _ -> None
  | Codes { q; _ } -> Some { bits = q.q_bits; vmax = q.q_vmax }

let count t = Hashtbl.length t.index

let mem t peer = Hashtbl.mem t.index peer

let find t peer =
  match Hashtbl.find_opt t.index peer with
  | None -> None
  | Some slot -> Some (slot * t.stride)

let capacity_rows t =
  match t.cells with
  | Floats d -> Array.length d / t.stride
  | Codes { q; codes } ->
      (Bytes.length codes - pad_bytes) / row_bytes_of ~stride:t.stride q

let grow t needed_rows =
  let cap = capacity_rows t in
  (* Double from the actual capacity: flooring at [initial_rows] here
     would quadruple every degree-1 store on its first insert and undo
     the caller's degree hint. *)
  let cap' = ref (max cap 1) in
  while !cap' < needed_rows do
    cap' := !cap' * 2
  done;
  if !cap' > cap then begin
    (match t.cells with
    | Floats d ->
        let d' = Array.make (!cap' * t.stride) 0. in
        Array.blit d 0 d' 0 (t.next * t.stride);
        t.cells <- Floats d'
    | Codes c ->
        let rb = row_bytes_of ~stride:t.stride c.q in
        let codes' = Bytes.make ((!cap' * rb) + pad_bytes) '\000' in
        Bytes.blit c.codes 0 codes' 0 (t.next * rb);
        c.codes <- codes');
    let stamps' = Array.make !cap' 0 in
    Array.blit t.stamps 0 stamps' 0 t.next;
    t.stamps <- stamps'
  end

(* Keep the explicit iteration order (when one exists) in sync with the
   peer set by replacing the array — clones sharing the old one keep
   their own view. *)
let order_append t peer =
  match t.order with
  | None -> ()
  | Some o ->
      let n = Array.length o in
      let o' = Array.make (n + 1) peer in
      Array.blit o 0 o' 0 n;
      t.order <- Some o'

let order_drop t peer =
  match t.order with
  | None -> ()
  | Some o -> t.order <- Some (Array.of_list (List.filter (fun p -> p <> peer) (Array.to_list o)))

let ensure t peer =
  match Hashtbl.find_opt t.index peer with
  | Some slot -> slot * t.stride
  | None ->
      own_index t;
      let slot =
        match t.free with
        | s :: rest ->
            t.free <- rest;
            s
        | [] ->
            let s = t.next in
            grow t (s + 1);
            t.next <- s + 1;
            s
      in
      Hashtbl.replace t.index peer slot;
      order_append t peer;
      slot * t.stride

(* Back to the empty state [create] leaves, keeping the backing
   buffers.  [Hashtbl.reset] shrinks the peer table to its initial
   bucket array, so a reset store iterates a later insert sequence
   exactly as a fresh one does; a table shared with clones is replaced
   instead.  Used rows are zeroed, keeping [ensure]'s zeroed-row
   promise. *)
let reset t =
  (match t.cells with
  | Floats d -> Array.fill d 0 (t.next * t.stride) 0.
  | Codes c ->
      Bytes.fill c.codes 0 (t.next * row_bytes_of ~stride:t.stride c.q) '\000');
  Array.fill t.stamps 0 t.next 0;
  if t.shared_index then begin
    t.index <- Hashtbl.create 8;
    t.shared_index <- false
  end
  else Hashtbl.reset t.index;
  t.order <- None;
  t.free <- [];
  t.next <- 0

let remove t peer =
  match Hashtbl.find_opt t.index peer with
  | None -> ()
  | Some slot ->
      own_index t;
      Hashtbl.remove t.index peer;
      (* Zero the freed row so a recycled slot starts clean and stale
         values can never leak into a future peer's partial writes. *)
      (match t.cells with
      | Floats d -> Array.fill d (slot * t.stride) t.stride 0.
      | Codes c ->
          let rb = row_bytes_of ~stride:t.stride c.q in
          Bytes.fill c.codes (slot * rb) rb '\000');
      t.stamps.(slot) <- 0;
      t.free <- slot :: t.free;
      order_drop t peer

let iter t f =
  match t.order with
  | None -> Hashtbl.iter (fun peer slot -> f peer (slot * t.stride)) t.index
  | Some o ->
      Array.iter
        (fun peer ->
          match Hashtbl.find_opt t.index peer with
          | Some slot -> f peer (slot * t.stride)
          | None -> assert false)
        o

let iteration_peers t =
  match t.order with
  | Some o -> Array.copy o
  | None ->
      let out = Array.make (count t) 0 in
      let i = ref 0 in
      Hashtbl.iter
        (fun peer _ ->
          out.(!i) <- peer;
          incr i)
        t.index;
      out

let set_stamp t peer wave =
  match Hashtbl.find_opt t.index peer with
  | None -> ()
  | Some slot -> t.stamps.(slot) <- wave

let stamp t peer =
  match Hashtbl.find_opt t.index peer with
  | None -> 0
  | Some slot -> t.stamps.(slot)

let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest

(* Peers sort in place in an int array, and the result list is consed
   from the largest id down, so it is the only list built. *)
let map_sorted t ~except f =
  let ps = Array.make (Hashtbl.length t.index) 0 in
  let n = ref 0 in
  Hashtbl.iter
    (fun p _ ->
      ps.(!n) <- p;
      incr n)
    t.index;
  Array.sort Int.compare ps;
  let acc = ref [] in
  for i = Array.length ps - 1 downto 0 do
    let p = ps.(i) in
    if not (mem_int p except) then
      acc := f p (Hashtbl.find t.index p * t.stride) :: !acc
  done;
  !acc

let peers t = map_sorted t ~except:[] (fun p _ -> p)

let capacity_words t =
  match t.cells with
  | Floats d -> Array.length d
  | Codes { codes; _ } -> (Bytes.length codes + 7) / 8

let capacity_bytes t =
  match t.cells with
  | Floats d -> 8 * Array.length d
  | Codes { codes; _ } -> Bytes.length codes

(* {2 Quantized row access}

   Whole-row decode/encode against caller-held float buffers.  On an
   exact store these degrade to blits, so generic code can be written
   once — though the schemes keep their zero-copy fast path on the raw
   array for the exact (bit-identity) format. *)

let decode_row t off dst =
  match t.cells with
  | Floats d -> Array.blit d off dst 0 t.stride
  | Codes { q; codes } ->
      let slot = off / t.stride in
      let base = slot * row_bytes_of ~stride:t.stride q in
      let bits = q.q_bits in
      let table = q.q_decode in
      for i = 0 to t.stride - 1 do
        dst.(i) <- Array.unsafe_get table (get_code codes ~base ~bits i)
      done

let encode_cells t off src pos =
  match t.cells with
  | Floats d -> Array.blit src pos d off t.stride
  | Codes { q; codes } ->
      let slot = off / t.stride in
      let base = slot * row_bytes_of ~stride:t.stride q in
      let bits = q.q_bits in
      for i = 0 to t.stride - 1 do
        set_code codes ~base ~bits i (encode_cell q src.(pos + i))
      done

let encode_row t off src = encode_cells t off src 0

let load_row t ~peer src ~pos = encode_cells t (ensure t peer) src pos

(* Per-domain decode scratch: strictly transient (consumed before the
   next decode on the same domain), so one buffer per domain suffices —
   and pool workers decoding concurrently never share it. *)
let scratch_key : float array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let scratch t =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r < t.stride then r := Array.make t.stride 0.;
  !r

let quant_rel_error_bound qc =
  let q = make_quantizer qc in
  Float.expm1 (q.q_gamma /. 2.)

(* {2 Snapshot reconstruction} *)

let row_code_bytes t =
  match t.cells with
  | Floats _ -> invalid_arg "Rowstore.row_code_bytes: exact store"
  | Codes { q; _ } -> row_bytes_of ~stride:t.stride q

let blit_row_codes t off dst dpos =
  match t.cells with
  | Floats _ -> invalid_arg "Rowstore.blit_row_codes: exact store"
  | Codes { q; codes } ->
      let rb = row_bytes_of ~stride:t.stride q in
      Bytes.blit codes (off / t.stride * rb) dst dpos rb

let of_loaded ~stride ?quant ~peers ~stamps payload =
  if stride <= 0 then invalid_arg "Rowstore.of_loaded: stride must be positive";
  let n = Array.length peers in
  if Array.length stamps <> n then
    invalid_arg "Rowstore.of_loaded: stamps length mismatch";
  let cells =
    match (quant, payload) with
    | None, `Floats d ->
        if Array.length d <> n * stride then
          invalid_arg "Rowstore.of_loaded: float payload length mismatch";
        Floats (if n = 0 then Array.make stride 0. else d)
    | Some qc, `Codes b ->
        let q = make_quantizer qc in
        let rb = row_bytes_of ~stride q in
        if Bytes.length b <> n * rb then
          invalid_arg "Rowstore.of_loaded: code payload length mismatch";
        let padded = Bytes.make ((max 1 n * rb) + pad_bytes) '\000' in
        Bytes.blit b 0 padded 0 (Bytes.length b);
        Codes { q; codes = padded }
    | None, `Codes _ | Some _, `Floats _ ->
        invalid_arg "Rowstore.of_loaded: payload does not match cell format"
  in
  let index = Hashtbl.create 8 in
  Array.iteri
    (fun slot peer ->
      if Hashtbl.mem index peer then
        invalid_arg "Rowstore.of_loaded: duplicate peer";
      Hashtbl.replace index peer slot)
    peers;
  let stamps' = Array.make (max 1 n) 0 in
  Array.blit stamps 0 stamps' 0 n;
  {
    stride;
    cells;
    stamps = stamps';
    index;
    shared_index = false;
    (* The recorded live order, replayed verbatim by [iter]: this — not
       the freshly built hash table's order — is what keeps summation
       order, and with it every exported float, bit-identical to the
       store that was saved. *)
    order = Some (Array.copy peers);
    free = [];
    next = n;
  }
