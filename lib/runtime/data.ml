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
let is_valid_at h n = List.mem n h.valid
let add_valid h n = if not (List.mem n h.valid) then h.valid <- h.valid @ [ n ]
let write_at h n = h.valid <- [ n ]

let invalidate h = h.valid <- [ main_memory ]

let guard_unpartitioned op h =
  if h.parts <> None then
    invalid_arg (Printf.sprintf "Data.%s: handle %S is partitioned" op h.h_name)

let child h ~row ~col ~rows ~cols ~index =
  {
    h_id = fresh ();
    h_name = Printf.sprintf "%s[%s]" h.h_name index;
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
              ~index:(Printf.sprintf "%d,%d" i j)))
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
