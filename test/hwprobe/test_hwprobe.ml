(* Tests for the simulated hardware prober and the platform zoo. *)

open Pdl_model.Machine
open Pdl_hwprobe

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let testbed =
  Probe.machine ~hostname:"testbed" Device_db.xeon_x5550
    ~gpus:
      [
        (Device_db.gtx480, Device_db.pcie2_x16);
        (Device_db.gtx285, Device_db.pcie2_x16);
      ]

let device_db_tests =
  [
    Alcotest.test_case "gtx480 matches Listing 2" `Quick (fun () ->
        let g = Device_db.gtx480 in
        check string_ "name" "GeForce GTX 480" g.gpu_model;
        check int_ "compute units" 15 g.compute_units;
        check int_ "work item dims" 3 g.work_item_dims;
        check int_ "global mem kB" 1572864 g.global_mem_kb;
        check int_ "local mem kB" 48 g.local_mem_kb);
    Alcotest.test_case "testbed CPU is the paper's" `Quick (fun () ->
        let c = Device_db.xeon_x5550 in
        check int_ "8 cores total" 8 (c.sockets * c.cores_per_socket);
        check int_ "2.66 GHz" 2660 c.freq_mhz);
    Alcotest.test_case "lookup by substring" `Quick (fun () ->
        check bool_ "gtx 480" true (Device_db.find_gpu "gtx 480" <> None);
        check bool_ "case-insensitive" true
          (Device_db.find_cpu "xeon" <> None);
        check bool_ "missing" true (Device_db.find_gpu "radeon" = None));
  ]

let probe_tests =
  [
    Alcotest.test_case "probed platform is well-formed" `Quick (fun () ->
        let pf = Probe.to_platform testbed in
        check (Alcotest.list string_) "no violations" []
          (List.map Pdl_model.Validate.violation_to_string
             (Pdl_model.Validate.check pf)));
    Alcotest.test_case "probed platform passes the full PDL pipeline" `Quick
      (fun () ->
        let text = Probe.to_pdl testbed in
        match Pdl.Codec.load_string text with
        | Ok _ -> ()
        | Error msgs -> Alcotest.fail (String.concat "; " msgs));
    Alcotest.test_case "structure: master + cpu pool + gpus" `Quick (fun () ->
        let pf = Probe.to_platform testbed in
        check int_ "one master" 1 (List.length (masters pf));
        check int_ "three workers" 3 (List.length (workers pf));
        let cores = Option.get (find_pu pf "cpu-cores") in
        check int_ "8-way pool" 8 cores.pu_quantity;
        check int_ "10 physical units" 11 (unit_count pf));
    Alcotest.test_case "gpu workers carry Listing 2 properties" `Quick
      (fun () ->
        let pf = Probe.to_platform testbed in
        let gpu0 = Option.get (find_pu pf "gpu0") in
        check (Alcotest.option string_) "device name"
          (Some "GeForce GTX 480")
          (pu_property gpu0 "DEVICE_NAME");
        let p = Option.get (find_property gpu0.pu_descriptor "GLOBAL_MEM_SIZE") in
        check (Alcotest.option string_) "unit" (Some "kB") p.p_unit;
        check bool_ "unfixed (runtime-generated)" false p.p_fixed;
        check (Alcotest.option string_) "ocl subschema"
          (Some "ocl:oclDevicePropertyType") p.p_schema);
    Alcotest.test_case "interconnects carry performance properties" `Quick
      (fun () ->
        let pf = Probe.to_platform testbed in
        let ics = connections_of pf "gpu0" in
        check int_ "one link" 1 (List.length ics);
        let ic = List.hd ics in
        check string_ "pcie" "PCIe" ic.ic_type;
        check (Alcotest.option string_) "bandwidth" (Some "5500")
          (property_value ic.ic_descriptor "BANDWIDTH_MBPS"));
    Alcotest.test_case "opencl_properties mirrors Listing 2 order" `Quick
      (fun () ->
        let names =
          List.map (fun p -> p.p_name) (Probe.opencl_properties Device_db.gtx480)
        in
        check (Alcotest.list string_) "field order"
          [
            "DEVICE_NAME";
            "MAX_COMPUTE_UNITS";
            "MAX_WORK_ITEM_DIMENSIONS";
            "GLOBAL_MEM_SIZE";
            "LOCAL_MEM_SIZE";
            "CLOCK_FREQUENCY";
          ]
          names);
    Alcotest.test_case "hwloc rendering mentions the topology" `Quick
      (fun () ->
        let txt = Probe.hwloc_render testbed in
        check bool_ "packages" true (contains txt "Package P#1");
        check bool_ "gpu" true (contains txt "GeForce GTX 480");
        check bool_ "cores" true (contains txt "Core C#7"));
  ]

let zoo_tests =
  [
    Alcotest.test_case "every zoo platform is schema- and model-valid" `Quick
      (fun () ->
        List.iter
          (fun (name, pf) ->
            match Pdl.Codec.load_string (Pdl.Codec.to_string pf) with
            | Ok _ -> ()
            | Error msgs ->
                Alcotest.failf "%s: %s" name (String.concat "; " msgs))
          Zoo.all);
    Alcotest.test_case "figure-5 targets exist" `Quick (fun () ->
        check bool_ "single" true (Zoo.find "xeon-single" <> None);
        check bool_ "smp" true (Zoo.find "xeon-x5550-smp" <> None);
        check bool_ "2gpu" true (Zoo.find "xeon-2gpu" <> None));
    Alcotest.test_case "xeon-2gpu has two distinct gpus" `Quick (fun () ->
        let pf = Zoo.xeon_2gpu in
        let names = Pdl.Query.property_values pf "DEVICE_NAME" in
        check
          (Alcotest.list (Alcotest.pair string_ string_))
          "devices"
          [ ("gpu0", "GeForce GTX 480"); ("gpu1", "GeForce GTX 285") ]
          names);
    Alcotest.test_case "cell platform uses the Hybrid class" `Quick (fun () ->
        check int_ "one hybrid" 1 (List.length (hybrids Zoo.cell_qs20));
        check int_ "depth 3" 3 (depth Zoo.cell_qs20));
    Alcotest.test_case "write_all produces loadable files" `Quick (fun () ->
        let dir = Filename.temp_file "zoo" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        Zoo.write_all ~dir;
        List.iter
          (fun (name, _) ->
            let path = Filename.concat dir (name ^ ".pdl") in
            match Pdl.Codec.load_file path with
            | Ok _ -> ()
            | Error msgs ->
                Alcotest.failf "%s: %s" path (String.concat "; " msgs))
          Zoo.all);
    Alcotest.test_case "platform patterns select the right zoo members"
      `Quick (fun () ->
        let gpu_pattern = Pdl.Pattern.parse "Master[Worker{ARCHITECTURE=gpu}]" in
        let matching =
          List.filter (fun (_, pf) -> Pdl.Pattern.matches gpu_pattern pf) Zoo.all
        in
        check (Alcotest.list string_) "gpu platforms"
          [ "xeon-2gpu"; "laptop-igpu"; "opencl-quad-gpu"; "dual-host" ]
          (List.map fst matching);
        let cell_pattern =
          Pdl.Pattern.parse "Hybrid[Worker{ARCHITECTURE=spe}]"
        in
        check bool_ "cell only" true
          (List.for_all
             (fun (name, pf) ->
               Pdl.Pattern.matches cell_pattern pf = (name = "cell-qs20"))
             Zoo.all));
  ]

let multimaster_tests =
  [
    Alcotest.test_case "dual-host has two co-existing masters" `Quick
      (fun () ->
        let pf = Pdl_hwprobe.Zoo.dual_host in
        check int_ "two masters" 2 (List.length (masters pf));
        check bool_ "valid" true (Pdl_model.Validate.is_valid pf));
    Alcotest.test_case "dual-host round trips through the Platform root"
      `Quick (fun () ->
        let text = Pdl.Codec.to_string Pdl_hwprobe.Zoo.dual_host in
        check bool_ "platform root" true
          (contains text "<Platform name=\"dual-host\">");
        match Pdl.Codec.load_string text with
        | Ok pf2 ->
            check bool_ "equivalent" true
              (Pdl.Diff.equivalent Pdl_hwprobe.Zoo.dual_host pf2)
        | Error msgs -> Alcotest.fail (String.concat "; " msgs));
    Alcotest.test_case "runtime machine spans both masters" `Quick (fun () ->
        let cfg =
          Taskrt.Machine_config.of_platform_exn Pdl_hwprobe.Zoo.dual_host
        in
        (* 4 + 4 cpu units + 2 gpus *)
        check int_ "ten workers" 10 (Array.length cfg.workers);
        check int_ "gpus group has both hosts' gpus" 2
          (List.length (Taskrt.Machine_config.workers_in_group cfg "gpus")));
    Alcotest.test_case "inter-host route crosses InfiniBand" `Quick
      (fun () ->
        let pf = Pdl_hwprobe.Zoo.dual_host in
        let routes = routes pf "hostA-gpu" "hostB-gpu" in
        check bool_ "route exists" true
          (List.mem
             [ "hostA-gpu"; "hostA"; "hostB"; "hostB-gpu" ]
             routes));
    Alcotest.test_case "dual-host runs the fig5 model" `Quick (fun () ->
        let cfg =
          Taskrt.Machine_config.of_platform_exn Pdl_hwprobe.Zoo.dual_host
        in
        let rt = Taskrt.Engine.create ~policy:Taskrt.Engine.Heft cfg in
        let r = Taskrt.Tiled_dgemm.model_on ~tiles:8 rt ~n:4096 in
        check bool_ "completes" true (r.makespan > 0.0));
  ]

let () =
  Alcotest.run "pdl_hwprobe"
    [
      ("device_db", device_db_tests);
      ("probe", probe_tests);
      ("zoo", zoo_tests);
      ("multimaster", multimaster_tests);
    ]
