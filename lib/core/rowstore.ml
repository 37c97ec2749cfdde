(* Flat structure-of-arrays row storage for routing indices.

   One contiguous float array holds every peer row of a node's index:
   row [slot] occupies [stride] consecutive cells starting at
   [slot * stride], one IEEE double per cell, exposed raw through
   {!data} for the zero-copy arithmetic kernels.  A peer -> slot hash
   table resolves rows; freed slots are recycled LIFO, so the backing
   array never shrinks but also never fragments.

   Bit-for-bit determinism contract: aggregation iterates rows in the
   order of the peer index table, NOT in slot order.  The table is
   created with the same initial size (8) and sees exactly the same
   add/remove key sequence as the per-peer [Summary] hash tables this
   store replaced, and OCaml's [Hashtbl.replace] mutates an existing
   binding in place, so iteration order — and therefore float summation
   order — is unchanged from the boxed representation. *)

type t = {
  stride : int;
  mutable cells : float array;
  mutable stamps : int array;
      (* per-slot provenance stamp: the logical update-wave id that last
         wrote the row; 0 marks rows untouched since construction.  Kept
         parallel to the cells (one int per row) and excluded from
         [capacity_words], which reports the index payload only. *)
  index : (int, int) Hashtbl.t;  (* peer -> slot *)
  mutable free : int list;  (* recycled slots, most recently freed first *)
  mutable next : int;  (* first never-used slot *)
}

let initial_rows = 4

(* [rows] is a capacity hint — typically the node's overlay degree, so a
   well-hinted store never reallocates and wastes no slots.  The minor
   heap feels the difference: a default-sized store on a 2000-node tree
   costs an extra ~250 words per node in unused and regrown rows. *)
let create ?(rows = initial_rows) ~stride () =
  if stride <= 0 then invalid_arg "Rowstore.create: stride must be positive";
  let rows = max 1 rows in
  {
    stride;
    cells = Array.make (rows * stride) 0.;
    stamps = Array.make rows 0;
    index = Hashtbl.create 8;
    free = [];
    next = 0;
  }

let stride t = t.stride

let data t = t.cells

let count t = Hashtbl.length t.index

let find t peer =
  match Hashtbl.find_opt t.index peer with
  | None -> None
  | Some slot -> Some (slot * t.stride)

let capacity_rows t = Array.length t.cells / t.stride

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
    let d' = Array.make (!cap' * t.stride) 0. in
    Array.blit t.cells 0 d' 0 (t.next * t.stride);
    t.cells <- d';
    let stamps' = Array.make !cap' 0 in
    Array.blit t.stamps 0 stamps' 0 t.next;
    t.stamps <- stamps'
  end

let ensure t peer =
  match Hashtbl.find_opt t.index peer with
  | Some slot -> slot * t.stride
  | None ->
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
      slot * t.stride

(* Back to the empty state [create] leaves, keeping the backing
   buffers.  [Hashtbl.reset] shrinks the peer table to its initial
   bucket array, so a reset store iterates a later insert sequence
   exactly as a fresh one does.  Used rows are zeroed, keeping
   [ensure]'s zeroed-row promise. *)
let reset t =
  Array.fill t.cells 0 (t.next * t.stride) 0.;
  Array.fill t.stamps 0 t.next 0;
  Hashtbl.reset t.index;
  t.free <- [];
  t.next <- 0

let remove t peer =
  match Hashtbl.find_opt t.index peer with
  | None -> ()
  | Some slot ->
      Hashtbl.remove t.index peer;
      (* Zero the freed row so a recycled slot starts clean and stale
         values can never leak into a future peer's partial writes. *)
      Array.fill t.cells (slot * t.stride) t.stride 0.;
      t.stamps.(slot) <- 0;
      t.free <- slot :: t.free

let iter t f = Hashtbl.iter (fun peer slot -> f peer (slot * t.stride)) t.index

let iteration_peers t =
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

let capacity_words t = Array.length t.cells

let capacity_bytes t = 8 * Array.length t.cells

(* [ensure] may grow the store, so the backing array is read after it. *)
let load_row t ~peer src ~pos =
  let off = ensure t peer in
  Array.blit src pos t.cells off t.stride

