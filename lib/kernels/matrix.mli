(** Dense row-major double-precision matrices.

    Storage is a C-layout float64 {!Bigarray.Array1.t}: unboxed,
    contiguous, GC-stable, and sharable with C micro-kernels without
    copying. Indexing is [a.{i * cols + j}]. All kernels in {!Blas}
    and {!Gemm_kernel} operate on this representation.

    {b Allocation policy.}  Buffers come from [malloc].  When this
    module initializes it fixes two glibc thresholds (one [mallopt]
    each, no option or variable changes them): [M_MMAP_THRESHOLD] at
    32 MiB, so buffers below that come from the heap, and
    [M_TRIM_THRESHOLD] at 64 MiB, so up to that much freed heap stays
    mapped.  With glibc's defaults the mmap threshold slides with
    every freed mapped block and the heap top is trimmed once twice
    that threshold is free, so a service mixing 256x256 DGEMM and
    512x512 Cholesky jobs, each allocating fresh matrices that the GC
    freed late, faulted in fresh pages on every job: about 220 minor
    faults per job, against fewer than two with the fixed thresholds.
    The cost is bounded: buffers above 32 MiB are still mapped and
    unmapped on their own, and at most 64 MiB of freed heap stays
    resident.  Other libcs keep their defaults.

    The task service does not allocate per job: [Serve.Service]
    owns its job buffers, at most three [max_n x max_n] matrices, and
    fills them in place ({!fill_random}), because fresh Bigarrays of
    0.5 to 2 MiB set off one to three major collections per job.  The
    policy still serves every other caller that allocates job-sized
    matrices repeatedly: tests, benchmarks and Cascabel programs. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Raw row-major storage. *)

type t = { rows : int; cols : int; data : buf }

val resident_buffers : bool
(** Whether the allocation policy above took (glibc only). *)

val alloc_buf : int -> buf
(** Uninitialised buffer of [n] floats (callers must overwrite). *)

val create_buf : int -> buf
(** Zero-filled buffer of [n] floats. *)

val create : int -> int -> t
(** Zero-filled [rows x cols] matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t

val random : ?seed:int -> int -> int -> t
(** Deterministic pseudo-random entries in [[-1, 1)]; the same seed
    always yields the same matrix (own LCG, independent of
    [Stdlib.Random]). *)

val fill_random : ?seed:int -> t -> unit
(** Overwrite [m] in place with the entries [random ?seed m.rows
    m.cols] would hold, bit for bit: {!random} is an allocation
    followed by this fill. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val dims : t -> int * int

val of_array : rows:int -> cols:int -> float array -> t
(** Copy a row-major [float array] into a fresh matrix; raises
    [Invalid_argument] unless [Array.length a = rows * cols]. *)

val to_array : t -> float array
(** Copy the contents out as a row-major [float array];
    [of_array ~rows ~cols (to_array m)] round-trips exactly. *)

val sub_block : t -> row:int -> col:int -> rows:int -> cols:int -> t
(** Copy of a block (one blit per row); used by tiled algorithms and
    tests. *)

val set_block : t -> row:int -> col:int -> t -> unit
(** Paste a block back (one blit per row). *)

val zero_upper : t -> unit
(** Zero the strict upper triangle in place. *)

val view_check :
  string -> buf -> off:int -> ld:int -> rows:int -> cols:int -> unit
(** [view_check name buf ~off ~ld ~rows ~cols] raises
    [Invalid_argument] (its message starting with [name]) unless the
    [rows x cols] view at [off] with leading dimension [ld] lies
    inside [buf]: element [(i, j)] is [buf.{off + i*ld + j}]. *)

val zero_strict_upper : buf -> off:int -> ld:int -> rows:int -> cols:int -> unit
(** {!zero_upper} on the [rows x cols] view at [off] with leading
    dimension [ld]: one [memset] per row, no Bigarray view.
    @raise Invalid_argument as {!view_check} does. *)

val zero_block : buf -> off:int -> ld:int -> rows:int -> cols:int -> unit
(** Zero every element of that view, likewise. *)

val frobenius : t -> float

val max_abs_diff : t -> t -> float
(** [max |a_ij - b_ij|]; raises [Invalid_argument] on shape
    mismatch. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Default tolerance [1e-9] on the max absolute difference scaled by
    the larger Frobenius norm. *)

val checksum : t -> float
(** Order-independent content digest used by integration tests. *)

val pp : Format.formatter -> t -> unit
(** Prints small matrices fully, large ones abridged. *)
