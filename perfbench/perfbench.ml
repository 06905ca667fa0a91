(* perfbench: one seeded workload per invocation; the last line of
   standard output is the JSON result. See README.md. *)

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let serve_rpc32 =
  {
    Serve.topo = "cs:4x60";
    batch = 32;
    check = false;
    episode_batches = 16384;
    trace_batches = 4096;
  }

let serve_bulk =
  {
    Serve.topo = "complete:32";
    batch = 512;
    check = true;
    episode_batches = 256;
    trace_batches = 128;
  }

let session =
  { Inproc.s_topo = "cs:3x20"; episode = 500; trace_episodes = 8; s_mem_after = 10_000 }

let offline =
  {
    Inproc.o_topo = "cs:4x60";
    o_batch = 32;
    warmup = 4096;
    trace_batches = 512;
    o_mem_after = 131_072;
  }

type workload = {
  run : seed:int -> seconds:float -> Report.t -> Probe.steal;
  trace : seed:int -> Report.t -> unit;
}

let workloads =
  [
    ( "serve-rpc32",
      { run = Serve.run serve_rpc32; trace = Serve.trace serve_rpc32 } );
    ( "serve-bulk512-d30-check",
      { run = Serve.run serve_bulk; trace = Serve.trace serve_bulk } );
    ( "session-observe",
      { run = Inproc.session_run session; trace = Inproc.session_trace session } );
    ( "offline-stream",
      { run = Inproc.offline_run offline; trace = Inproc.offline_trace offline } );
  ]

(* A traced run reports every per-layer metric BENCHMARK.json lists, in
   its order. A metric of a layer the workload makes no call into reads
   0 (no time, words or bytes are spent there); the diagnostic line
   names each such metric. Every layer the workload does call is
   measured. *)
let complete_per_layer (r : Report.t) =
  let module Json = Synts_bench_io.Json in
  let listed =
    match Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
    | Ok j -> (
        match Json.member "per_layer" j with
        | Some (Json.Arr metrics) ->
            List.map
              (fun m ->
                match (Json.member "name" m, Json.member "unit" m) with
                | Some (Json.Str name), Some (Json.Str unit) -> (name, unit)
                | _ -> failwith "BENCHMARK.json: per_layer entry without name or unit")
              metrics
        | _ -> failwith "BENCHMARK.json: no per_layer list")
  in
  let measured name = List.exists (fun (n, _, _) -> n = name) r.metrics in
  Report.line r "# layers this workload makes no call into, reported as 0: %s"
    (String.concat ", " (List.filter_map (fun (n, _) -> if measured n then None else Some n) listed));
  r.metrics <-
    List.rev_map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
        | Some m -> m
        | None -> (name, 0., unit))
      listed

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Generator and daemon share one CPU: a closed loop then hands over
     by a local context switch instead of waking an idle vCPU, whose
     wake-up latency under host load dominated the serve figures. *)
  Probe.pinned := Probe.pin_last_cpu ();
  at_exit Serve.kill_all;
  let r = Report.create () in
  let seed = (!seed * 0x9E3779B1) lxor Hashtbl.hash !workload in
  Printf.printf "# workload %s, seed %d, trace %d\n" !workload seed !trace;
  let steal =
    if !trace = 0 then w.run ~seed ~seconds:!seconds r
    else begin
      let steal = Probe.steal_acc () in
      Probe.start_runtime_events ();
      Probe.with_steal steal (fun () -> w.trace ~seed r);
      complete_per_layer r;
      steal
    end
  in
  Report.line r "# host: nproc %d, cpu %S, pinned to cpu %d, steal %.2f%% of its ticks over the %s"
    (Probe.online_cpus ()) (Probe.cpu_model ()) !Probe.pinned
    (100. *. Probe.steal_share steal)
    (if !trace = 0 then "timed phase" else "traced run");
  Report.print r
