module Matrix = Kernels.Matrix

type node = int

let main_memory = 0

type region = { r_row : int; r_col : int }

type handle = {
  h_id : int;
  h_name : string;
  rows : int;
  cols : int;
  buffer : Matrix.buf option;  (** physical storage, row-major *)
  buffer_cols : int;  (** stride of [buffer] (parent width for children) *)
  buffer_off : int;  (** offset of (0,0) within [buffer] *)
  parent : (handle * region) option;
  mutable valid : node list;
  mutable parts : handle array option;
}

(* The id allocator is the only mutable state shared between engines;
   an atomic keeps concurrent registrations (sharded engines, the task
   service) race-free.  Ids only feed dependency hashtables keyed per
   engine, so allocation order across engines never affects results. *)
let counter = Atomic.make 0
let fresh_namespace () = Atomic.set counter 0
let fresh () = 1 + Atomic.fetch_and_add counter 1

let register_matrix ?name (m : Matrix.t) =
  let h_id = fresh () in
  {
    h_id;
    h_name = Option.value ~default:(Printf.sprintf "matrix%d" h_id) name;
    rows = m.rows;
    cols = m.cols;
    buffer = Some m.data;
    buffer_cols = m.cols;
    buffer_off = 0;
    parent = None;
    valid = [ main_memory ];
    parts = None;
  }

let register_vector ?name v =
  register_matrix ?name (Matrix.of_array ~rows:1 ~cols:(Array.length v) v)

let register_virtual ?name ~rows ~cols () =
  let h_id = fresh () in
  {
    h_id;
    h_name = Option.value ~default:(Printf.sprintf "virtual%d" h_id) name;
    rows;
    cols;
    buffer = None;
    buffer_cols = cols;
    buffer_off = 0;
    parent = None;
    valid = [ main_memory ];
    parts = None;
  }

let name h = h.h_name
let id h = h.h_id
let dims h = (h.rows, h.cols)
let bytes h = 8.0 *. float_of_int h.rows *. float_of_int h.cols
let is_virtual h = h.buffer = None

let valid_nodes h = h.valid

(* Node lists hold ints: compare them as ints, not through the
   polymorphic [List.mem]. *)
let rec mem_node n = function [] -> false | m :: l -> Int.equal n m || mem_node n l

let is_valid_at h n = mem_node n h.valid
let add_valid h n = if not (mem_node n h.valid) then h.valid <- h.valid @ [ n ]
let write_at h n = h.valid <- [ n ]

let invalidate h = h.valid <- [ main_memory ]

let guard_unpartitioned op h =
  if h.parts <> None then
    invalid_arg (Printf.sprintf "Data.%s: handle %S is partitioned" op h.h_name)

let child h ~row ~col ~rows ~cols ~index =
  {
    h_id = fresh ();
    h_name = h.h_name ^ "[" ^ index ^ "]";
    rows;
    cols;
    buffer = h.buffer;
    buffer_cols = h.buffer_cols;
    buffer_off = h.buffer_off + (row * h.buffer_cols) + col;
    parent = Some (h, { r_row = row; r_col = col });
    valid = h.valid;
    parts = None;
  }

let partition_rows h nparts =
  guard_unpartitioned "partition_rows" h;
  if nparts < 1 || nparts > h.rows then
    invalid_arg
      (Printf.sprintf "Data.partition_rows: cannot split %d rows into %d parts"
         h.rows nparts);
  let base = h.rows / nparts and extra = h.rows mod nparts in
  let parts =
    Array.init nparts (fun i ->
        let rows = base + if i < extra then 1 else 0 in
        let row = (i * base) + min i extra in
        child h ~row ~col:0 ~rows ~cols:h.cols ~index:(string_of_int i))
  in
  h.parts <- Some parts;
  parts

let partition_tiles h ~rows ~cols =
  guard_unpartitioned "partition_tiles" h;
  if rows < 1 || cols < 1 || rows > h.rows || cols > h.cols then
    invalid_arg "Data.partition_tiles: bad grid";
  let rbase = h.rows / rows and rextra = h.rows mod rows in
  let cbase = h.cols / cols and cextra = h.cols mod cols in
  let grid =
    Array.init rows (fun i ->
        let trows = rbase + if i < rextra then 1 else 0 in
        let row = (i * rbase) + min i rextra in
        Array.init cols (fun j ->
            let tcols = cbase + if j < cextra then 1 else 0 in
            let col = (j * cbase) + min j cextra in
            child h ~row ~col ~rows:trows ~cols:tcols
              ~index:(string_of_int i ^ "," ^ string_of_int j)))
  in
  h.parts <- Some (Array.concat (Array.to_list grid));
  grid

let children h =
  match h.parts with Some parts -> Array.to_list parts | None -> []

let is_partitioned h = h.parts <> None

let unpartition h =
  match h.parts with
  | None -> ()
  | Some _ ->
      h.parts <- None;
      (* Writes scattered across device nodes are gathered back to
         main memory; the physical buffer already holds them since
         children write through. *)
      h.valid <- [ main_memory ]

let region_of h =
  match h.parent with
  | Some (p, r) -> Some (p, r.r_row, r.r_col)
  | None -> None

let view h =
  match h.buffer with
  | None ->
      invalid_arg (Printf.sprintf "Data.view: handle %S is virtual" h.h_name)
  | Some buf -> (buf, h.buffer_off, h.buffer_cols)

(* Views from one registration share its leading dimension and never
   wrap a row, so they overlap iff their row and column ranges both
   intersect.  Views with different leading dimensions over one buffer
   are compared by their flat extents, which may report a false
   overlap but never miss one. *)
let overlaps h1 h2 =
  match (h1.buffer, h2.buffer) with
  | Some b1, Some b2
    when b1 == b2 && h1.rows > 0 && h1.cols > 0 && h2.rows > 0 && h2.cols > 0 ->
      let meet lo1 n1 lo2 n2 = lo1 < lo2 + n2 && lo2 < lo1 + n1 in
      let ld = h1.buffer_cols in
      if ld = h2.buffer_cols then
        meet (h1.buffer_off / ld) h1.rows (h2.buffer_off / ld) h2.rows
        && meet (h1.buffer_off mod ld) h1.cols (h2.buffer_off mod ld) h2.cols
      else
        let extent h = ((h.rows - 1) * h.buffer_cols) + h.cols in
        meet h1.buffer_off (extent h1) h2.buffer_off (extent h2)
  | _ -> false

let c_copy_bytes =
  Obs.Counter.make
    ~help:"bytes copied between handles and private matrices"
    "data_copy_bytes"

let read_matrix h =
  match h.buffer with
  | None ->
      invalid_arg
        (Printf.sprintf "Data.read_matrix: handle %S is virtual" h.h_name)
  | Some buf ->
      (* every element is overwritten below: no zero-fill *)
      let m =
        { Matrix.rows = h.rows; cols = h.cols;
          data = Matrix.alloc_buf (h.rows * h.cols) }
      in
      Obs.Counter.add c_copy_bytes (8 * h.rows * h.cols);
      if h.cols = h.buffer_cols then
        (* contiguous rows: one copy, not one per row *)
        Bigarray.Array1.blit
          (Bigarray.Array1.sub buf h.buffer_off (h.rows * h.cols))
          m.data
      else
        for i = 0 to h.rows - 1 do
          Bigarray.Array1.blit
            (Bigarray.Array1.sub buf
               (h.buffer_off + (i * h.buffer_cols))
               h.cols)
            (Bigarray.Array1.sub m.data (i * h.cols) h.cols)
        done;
      m

let write_matrix h (m : Matrix.t) =
  if m.rows <> h.rows || m.cols <> h.cols then
    invalid_arg "Data.write_matrix: shape mismatch";
  match h.buffer with
  | None ->
      invalid_arg
        (Printf.sprintf "Data.write_matrix: handle %S is virtual" h.h_name)
  | Some buf ->
      Obs.Counter.add c_copy_bytes (8 * h.rows * h.cols);
      if h.cols = h.buffer_cols then
        Bigarray.Array1.blit m.data
          (Bigarray.Array1.sub buf h.buffer_off (h.rows * h.cols))
      else
        for i = 0 to h.rows - 1 do
          Bigarray.Array1.blit
            (Bigarray.Array1.sub m.data (i * m.cols) m.cols)
            (Bigarray.Array1.sub buf
               (h.buffer_off + (i * h.buffer_cols))
               m.cols)
        done
