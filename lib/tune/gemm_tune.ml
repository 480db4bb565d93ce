(* Offline/first-run search over Gemm_kernel blocking parameters.

   Two stages keep the search cheap: every candidate is screened
   best-of-2 at one moderate size, then the top finalists (always
   including the default blocking) are re-timed best-of-[reps] at the
   full size list.  The winner minimizes total time across sizes, but
   a guard demotes it back to the default if it loses to the default
   by more than [guard_ratio] at any single size — so installing the
   tuned blocking can never regress a size class by more than 2%. *)

module GK = Kernels.Gemm_kernel

type timing = { t_blocking : GK.blocking; t_secs : (int * float) list }

type result = {
  best : GK.blocking;
  best_gflops : float;  (* throughput of [best] at the largest size *)
  baseline : (int * float) list;  (* default blocking, per size *)
  winner : (int * float) list;  (* [best], per size *)
  guard_ok : bool;  (* winner within [guard_ratio] of default everywhere *)
  table : timing list;  (* every finalist *)
}

let guard_ratio = 1.02
let default_sizes = [ 512; 1024; 2048 ]

let candidates () =
  List.concat_map
    (fun bmicro ->
      List.concat_map
        (fun bmc ->
          List.concat_map
            (fun bkc ->
              List.map
                (fun bnc -> { GK.bmc; bkc; bnc; bmicro })
                [ 512; 1024; 2048 ])
            [ 128; 256; 512 ])
        [ 64; 128; 256 ])
    (GK.supported_micros ())

let blocking_to_string (b : GK.blocking) =
  Printf.sprintf "mc=%d kc=%d nc=%d micro=%s" b.GK.bmc b.GK.bkc b.GK.bnc
    (GK.micro_to_string b.GK.bmicro)

let cfg_of_blocking ~gflops (b : GK.blocking) =
  {
    Store.g_mc = b.GK.bmc;
    g_kc = b.GK.bkc;
    g_nc = b.GK.bnc;
    g_micro = GK.micro_to_string b.GK.bmicro;
    g_gflops = gflops;
  }

let blocking_of_cfg (c : Store.gemm_cfg) =
  match GK.micro_of_string c.Store.g_micro with
  | Some bmicro
    when GK.micro_supported bmicro && c.g_mc > 0 && c.g_kc > 0 && c.g_nc > 0
    ->
      Some { GK.bmc = c.g_mc; bkc = c.g_kc; bnc = c.g_nc; bmicro }
  | _ -> None

(* Best-of-[reps] wall seconds for one Blas.dgemm call at size [n]
   under the currently installed blocking. *)
let time_once ?pool ~reps ~a ~b ~c n =
  let best = ref infinity in
  for _ = 1 to max 1 reps do
    let t0 = Obs.Clock.now_ns () in
    Kernels.Blas.dgemm ?pool ~beta:0.0 a b c;
    let dt = Obs.Clock.to_s (Obs.Clock.now_ns () - t0) in
    if dt < !best then best := dt
  done;
  ignore n;
  !best

let with_blocking blk f =
  let saved = GK.current_blocking () in
  GK.set_blocking blk;
  Fun.protect ~finally:(fun () -> GK.set_blocking saved) f

let search ?pool ?(sizes = default_sizes) ?(screen_size = 512) ?(reps = 3)
    ?candidates:cands () =
  let candidates = match cands with Some c -> c | None -> candidates () in
  let default = GK.default_blocking () in
  let sizes = List.sort_uniq compare sizes in
  let mats = Hashtbl.create 4 in
  let mat_for n =
    match Hashtbl.find_opt mats n with
    | Some m -> m
    | None ->
        let m =
          ( Kernels.Matrix.random ~seed:41 n n,
            Kernels.Matrix.random ~seed:42 n n,
            Kernels.Matrix.create n n )
        in
        Hashtbl.replace mats n m;
        m
  in
  let time_at blk ~reps n =
    let a, b, c = mat_for n in
    with_blocking blk (fun () ->
        (* one warm-up rep grows the packing buffers *)
        Kernels.Blas.dgemm ?pool ~beta:0.0 a b c;
        time_once ?pool ~reps ~a ~b ~c n)
  in
  (* Stage 1: screen every candidate quickly at one size. *)
  let screened =
    List.map (fun blk -> (blk, time_at blk ~reps:2 screen_size)) candidates
    |> List.stable_sort (fun (_, x) (_, y) -> compare x y)
  in
  let top =
    List.filteri (fun i _ -> i < 3) screened |> List.map fst
  in
  let finalists =
    if List.exists (fun b -> b = default) top then top else default :: top
  in
  (* Stage 2: full size sweep over the finalists. *)
  let table =
    List.map
      (fun blk ->
        {
          t_blocking = blk;
          t_secs = List.map (fun n -> (n, time_at blk ~reps n)) sizes;
        })
      finalists
  in
  let total t = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 t.t_secs in
  let baseline_t =
    List.find (fun t -> t.t_blocking = default) table
  in
  let best_t =
    List.fold_left
      (fun acc t -> if total t < total acc then t else acc)
      baseline_t table
  in
  let within_guard t =
    List.for_all2
      (fun (_, w) (_, b) -> w <= guard_ratio *. b)
      t.t_secs baseline_t.t_secs
  in
  let guard_ok = within_guard best_t in
  let best_t = if guard_ok then best_t else baseline_t in
  let best_gflops =
    match List.rev best_t.t_secs with
    | (n, s) :: _ when s > 0.0 ->
        2.0 *. (float_of_int n ** 3.0) /. s /. 1e9
    | _ -> 0.0
  in
  {
    best = best_t.t_blocking;
    best_gflops;
    baseline = baseline_t.t_secs;
    winner = best_t.t_secs;
    guard_ok;
    table;
  }

let apply store =
  match Option.bind (Store.gemm_config store) blocking_of_cfg with
  | Some blk ->
      GK.set_blocking blk;
      true
  | None -> false

let ensure ?pool ?sizes ?screen_size ?reps ?candidates store =
  if apply store then None
  else begin
    let r = search ?pool ?sizes ?screen_size ?reps ?candidates () in
    Store.set_gemm_config store (cfg_of_blocking ~gflops:r.best_gflops r.best);
    GK.set_blocking r.best;
    Some r
  end
