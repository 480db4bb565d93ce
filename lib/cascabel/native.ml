type t = {
  lib : Taskrt.Capi.library;
  dir : string;
  keep_dir : bool;
  so_path : string;
  fns : (string, Taskrt.Capi.fn) Hashtbl.t;  (** variant -> wrapper *)
  entry : (Taskrt.Capi.fn * Emit_c.entry_site array, string) result;
  mutable closed : bool;
}

type outcome = Loaded of t | No_toolchain of string | Compile_error of string

let dir t = t.dir
let so_path t = t.so_path
let native_count t = Hashtbl.length t.fns

let find_in_path prog =
  if String.contains prog '/' then
    if Sys.file_exists prog then Some prog else None
  else
    let dirs =
      match Sys.getenv_opt "PATH" with
      | Some p -> String.split_on_char ':' p
      | None -> []
    in
    List.find_map
      (fun d ->
        if d = "" then None
        else
          let full = Filename.concat d prog in
          if Sys.file_exists full then Some full else None)
      dirs

let read_head path =
  match open_in path with
  | exception Sys_error _ -> ""
  | ic ->
      let buf = Buffer.create 256 in
      (try
         for _ = 1 to 6 do
           Buffer.add_string buf (input_line ic);
           Buffer.add_char buf '\n'
         done
       with End_of_file -> ());
      close_in_noerr ic;
      String.trim (Buffer.contents buf)

let build ?cc ?dir:build_dir (emitted : Emit_c.t) =
  let plan_cc = emitted.Emit_c.plan.Compile_plan.shared.so_compiler in
  let candidates =
    match cc with Some c -> [ c ] | None -> [ plan_cc; "cc" ]
  in
  match List.find_map find_in_path candidates with
  | None ->
      No_toolchain
        (Printf.sprintf "no C toolchain on PATH (tried: %s)"
           (String.concat ", " candidates))
  | Some compiler -> (
      let dir =
        match build_dir with
        | Some d -> d
        | None -> Filename.temp_dir "cascabel_native" ""
      in
      match Emit_c.write_dir emitted ~dir with
      | Error e -> Compile_error e
      | Ok _ -> (
          let sh = emitted.Emit_c.plan.Compile_plan.shared in
          let so = Filename.concat dir sh.so_output in
          let log = Filename.concat dir "cc.log" in
          let cmd =
            Printf.sprintf "%s %s -I %s -o %s %s 2> %s"
              (Filename.quote compiler)
              (String.concat " " sh.so_flags)
              (Filename.quote dir) (Filename.quote so)
              (Filename.quote (Filename.concat dir sh.so_input))
              (Filename.quote log)
          in
          let sp = Obs.Span.start () in
          let rc = Sys.command cmd in
          Obs.Span.record ~cat:"native" ~name:"compile"
            ~args:(Filename.basename sh.so_input) sp;
          if rc <> 0 then
            Compile_error
              (match read_head log with
              | "" -> Printf.sprintf "%s exited %d" compiler rc
              | head -> Printf.sprintf "%s exited %d\n%s" compiler rc head)
          else
            let sp = Obs.Span.start () in
            match Taskrt.Capi.load so with
            | Error e ->
                Compile_error (Printf.sprintf "dlopen %s: %s" so e)
            | Ok lib ->
                Obs.Span.record ~cat:"native" ~name:"dlopen"
                  ~args:(Filename.basename so) sp;
                let fns = Hashtbl.create 8 in
                List.iter
                  (fun (v_name, symbol) ->
                    match Taskrt.Capi.sym lib symbol with
                    | Some fn -> Hashtbl.replace fns v_name fn
                    | None -> ())
                  emitted.Emit_c.native_variants;
                let entry =
                  Result.bind emitted.Emit_c.entry (fun sites ->
                      match Taskrt.Capi.sym lib Emit_c.entry_symbol with
                      | Some fn -> Ok (fn, sites)
                      | None ->
                          Error
                            (Emit_c.entry_symbol ^ " missing from "
                           ^ Filename.basename so))
                in
                Loaded
                  {
                    lib;
                    dir;
                    keep_dir = build_dir <> None;
                    so_path = so;
                    fns;
                    entry;
                    closed = false;
                  }))

let fn_for t v_name =
  if t.closed then None else Hashtbl.find_opt t.fns v_name

let entry t = if t.closed then Error "the library is closed" else t.entry

let close t =
  if not t.closed then begin
    t.closed <- true;
    Taskrt.Capi.close t.lib;
    if not t.keep_dir then begin
      (try
         Array.iter
           (fun f -> try Sys.remove (Filename.concat t.dir f) with _ -> ())
           (Sys.readdir t.dir)
       with Sys_error _ -> ());
      try Sys.rmdir t.dir with Sys_error _ -> ()
    end
  end
