(* The cascabeld daemon under test, run as a child process built from
   this checkout.  Every daemon started here is stopped and reaped,
   also when the benchmark itself fails. *)

module P = Serve.Protocol

let exe = "_build/default/bin/cascabeld.exe"
let platform = "platforms/xeon-2gpu.pdl"

type t = { pid : int }

(* With two CPUs or more, a run keeps itself (the load generator) on
   CPU 0 and the daemon on CPU 1: left to the scheduler, their placement
   changes from run to run, and saturation throughput with it.  Decided
   at start-up, before this process pins itself. *)
external pin_cpu : int -> bool = "perfbench_pin_cpu" [@@noalloc]

let pinning = Domain.recommended_domain_count () >= 2
let pin_self () = if pinning then ignore (pin_cpu 0)

let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | _ -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Spawn [cascabeld serve] and wait for its first PONG; returns the
   daemon and the seconds from exec to that PONG (PDL load, shard
   split and journal recovery included). *)
let start ~socket args =
  if not (Sys.file_exists exe) then failwith (exe ^ " is missing; build it first");
  (try Sys.remove socket with Sys_error _ -> ());
  let argv =
    Array.of_list
      ([ exe; "serve"; "--pdl"; platform; "--socket"; socket ] @ args)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Stats.now () in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          if pinning then ignore (pin_cpu 1);
          Unix.dup2 devnull Unix.stdin;
          Unix.dup2 Unix.stderr Unix.stdout;
          Unix.execv exe argv
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  Unix.close devnull;
  live := pid :: !live;
  let rec ping () =
    if exited pid then begin
      live := List.filter (( <> ) pid) !live;
      failwith "cascabeld exited during start-up"
    end;
    if Stats.now () -. t0 > 120.0 then failwith "cascabeld did not answer PING";
    match Serve.Server.client_connect socket with
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (* a fine poll: a journal-less start takes about 3 ms *)
        ignore (Unix.select [] [] [] 0.00005);
        ping ()
    | fd ->
        Serve.Server.client_send fd P.Ping;
        let r = Serve.Server.client_recv fd in
        Unix.close fd;
        if r <> P.Pong then failwith "cascabeld answered PING without PONG"
  in
  ping ();
  ({ pid }, Stats.now () -. t0)

(* Peak resident set of the daemon (or of this process), in MB. *)
let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let line =
    In_channel.with_open_text path In_channel.input_lines
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* SIGTERM drains the daemon (persisting --metrics); SIGKILL after 60 s. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Stats.now () in
  let rec wait () =
    if exited d.pid then live := List.filter (( <> ) d.pid) !live
    else if Stats.now () -. t0 > 60.0 then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d.pid
    end
    else begin
      ignore (Unix.select [] [] [] 0.005);
      wait ()
    end
  in
  wait ()
