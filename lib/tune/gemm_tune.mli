(** Offline / first-run autotuning of the packed DGEMM blocking.

    [search] screens every candidate MC/KC/NC/micro-kernel combination
    at one moderate size, re-times the finalists (always including
    {!Kernels.Gemm_kernel.default_blocking}) best-of-[reps] over the
    full size list, and picks the total-time winner — guarded so the
    tuned blocking never loses to the default by more than
    {!guard_ratio} at any single size.  [ensure] is the transparent
    entry point: install the blocking recorded in a calibration store,
    or search once and record the winner. *)

type timing = {
  t_blocking : Kernels.Gemm_kernel.blocking;
  t_secs : (int * float) list;  (** (n, best-of-reps seconds) *)
}

type result = {
  best : Kernels.Gemm_kernel.blocking;
  best_gflops : float;  (** throughput of [best] at the largest size *)
  baseline : (int * float) list;  (** default blocking, per size *)
  winner : (int * float) list;  (** [best], per size *)
  guard_ok : bool;
      (** [best] within {!guard_ratio} of the default at every size;
          when false, [best] {e is} the default *)
  table : timing list;  (** every finalist's timings *)
}

val guard_ratio : float
(** 1.02 — the acceptance bound per size. *)

val default_sizes : int list
(** [[512; 1024; 2048]]. *)

val candidates : unit -> Kernels.Gemm_kernel.blocking list
(** The full search space: MC in 64/128/256, KC in 128/256/512, NC in
    512/1024/2048, and every micro-kernel this CPU can run
    ({!Kernels.Gemm_kernel.supported_micros}). *)

val blocking_to_string : Kernels.Gemm_kernel.blocking -> string

val cfg_of_blocking :
  gflops:float -> Kernels.Gemm_kernel.blocking -> Store.gemm_cfg

val blocking_of_cfg : Store.gemm_cfg -> Kernels.Gemm_kernel.blocking option
(** [None] when the stored record is invalid (unknown micro-kernel
    name, non-positive block) or names a micro-kernel this CPU cannot
    run. *)

val search :
  ?pool:Kernels.Domain_pool.t ->
  ?sizes:int list ->
  ?screen_size:int ->
  ?reps:int ->
  ?candidates:Kernels.Gemm_kernel.blocking list ->
  unit ->
  result
(** Run the measurement sweep over [candidates] (default
    {!candidates}[ ()]).  The previously installed blocking is
    restored afterwards — the caller decides whether to install
    [best] (see {!ensure}). *)

val apply : Store.t -> bool
(** Install the blocking recorded in the store, if any and valid. *)

val ensure :
  ?pool:Kernels.Domain_pool.t ->
  ?sizes:int list ->
  ?screen_size:int ->
  ?reps:int ->
  ?candidates:Kernels.Gemm_kernel.blocking list ->
  Store.t ->
  result option
(** [apply] if the store already has a config ([None]); otherwise
    {!search}, record the winner in the store, install it, and return
    the search result. *)
