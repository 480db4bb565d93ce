(** Data handles and distributed-coherence tracking.

    The runtime manages data the way StarPU does: applications
    {e register} matrices or vectors and thereafter refer to them
    through handles; the runtime tracks, per memory node, which copies
    are valid, schedules the transfers tasks need, and invalidates
    stale replicas on writes (an MSI-style protocol).

    Because the machine is simulated (DESIGN.md §3), there is one
    physical OCaml buffer per handle; device "copies" are virtual and
    only their validity is tracked. Kernel results stay bit-exact
    while transfer timing follows the protocol.

    Handles can be {e partitioned} into row blocks or 2-D tiles. A
    partitioned handle must not be accessed directly until
    {!unpartition} (the StarPU rule); children are first-class handles
    with their own coherence state. *)

type node = int
(** Memory-node index; {!main_memory} is the host RAM. *)

val main_memory : node

type handle

val register_matrix : ?name:string -> Kernels.Matrix.t -> handle
(** The matrix buffer is shared with (not copied from) the caller.
    Valid initially in {!main_memory} only. *)

val register_vector : ?name:string -> float array -> handle
(** A [1 x n] handle holding a copy of the caller's array (the
    physical storage is a Bigarray; read results back with
    {!read_matrix}). *)

val register_virtual : ?name:string -> rows:int -> cols:int -> unit -> handle
(** A handle with shape but no buffer, for model-only runs at sizes
    too large to materialize. Reading it raises. *)

val name : handle -> string
val id : handle -> int
val dims : handle -> int * int
val bytes : handle -> float
(** Payload size in bytes (8 per element), physical or virtual. *)

val is_virtual : handle -> bool

(** {1 Coherence} *)

val valid_nodes : handle -> node list
val is_valid_at : handle -> node -> bool

val add_valid : handle -> node -> unit
(** Record a completed transfer: the node now holds a valid shared
    copy. *)

val write_at : handle -> node -> unit
(** The node wrote the handle: it holds the only valid copy. *)

val invalidate : handle -> unit
(** Drop all copies except {!main_memory}'s; if main memory was not
    valid, this simulates a write-back and makes it valid. *)

(** {1 Partitioning} *)

val partition_rows : handle -> int -> handle array
(** [partition_rows h nparts] splits into [nparts] row blocks (sizes
    differing by at most one row). Children inherit the parent's
    current coherence state.
    @raise Invalid_argument if already partitioned or [nparts]
    exceeds the row count. *)

val partition_tiles : handle -> rows:int -> cols:int -> handle array array
(** Grid partition; result is indexed [result.(i).(j)]. *)

val children : handle -> handle list
(** Empty when unpartitioned. *)

val unpartition : handle -> unit
(** Re-assemble: children vanish; the parent is valid only in
    {!main_memory} (gathering writes back home). *)

val is_partitioned : handle -> bool

val region_of : handle -> (handle * int * int) option
(** [(parent, row offset, col offset)] for a child handle. *)

(** {1 Buffer access (physical handles only)} *)

val view : handle -> Kernels.Matrix.buf * int * int
(** [(buf, offset, ld)]: the handle's element [(i, j)] is
    [buf.{offset + i*ld + j}], in the registered storage itself.
    Tile codelets compute in place on views, as a StarPU CPU task
    gets a pointer and a leading dimension into main memory.
    @raise Invalid_argument on virtual handles. *)

val overlaps : handle -> handle -> bool
(** Do the two handles' views share an element of one buffer?  An
    in-place codelet refuses to write a view that overlaps one it
    reads. *)

val read_matrix : handle -> Kernels.Matrix.t
(** Materialize the handle's current contents (for children: a copy
    of the parent region).  Adds the bytes copied to the
    [data_copy_bytes] counter.
    @raise Invalid_argument on virtual handles. *)

val write_matrix : handle -> Kernels.Matrix.t -> unit
(** Store contents back (children write through to the parent
    region). Shape-checked; counted like {!read_matrix}. *)

val fresh_namespace : unit -> unit
(** Reset the id counter — test isolation only. *)
