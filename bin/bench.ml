(* ascy bench: run one CSDS experiment point from the command line.

     ascy bench --algo ht-clht-lb --threads 20 --platform xeon20 \
                --initial 4096 --updates 20
     ascy bench --list
     ascy bench --algo ll-lazy --mode native --duration 1.0

   Simulated runs report the paper's metrics (throughput, latency
   percentiles, power, misses/op, atomics/update); native runs report
   wall-clock throughput on real domains. *)

open Cmdliner

let run list_algos (entry : Ascylib.Registry.entry) mode platform threads initial updates ops
    latency seed duration model =
  if list_algos then begin
    List.iter
      (fun (x : Ascylib.Registry.entry) ->
        Printf.printf "%-14s %-11s %-4s ASCY:%s  %s\n" x.Ascylib.Registry.name
          (Ascy_core.Ascy.family_to_string x.Ascylib.Registry.family)
          (Ascy_core.Ascy.sync_to_string x.Ascylib.Registry.sync)
          (Ascy_core.Ascy.to_string x.Ascylib.Registry.ascy)
          x.Ascylib.Registry.desc)
      Ascylib.Registry.all;
    `Ok ()
  end
  else
    let wl = Ascy_harness.Workload.make ~initial ~update_pct:updates () in
    match mode with
    | `Native ->
        let r =
          Ascy_harness.Native_run.run ~seed entry.Ascylib.Registry.maker ~nthreads:threads
            ~workload:wl ~duration ()
        in
        Printf.printf "%s  native  %d domains  %.2fs\n" r.Ascy_harness.Native_run.algorithm
          r.Ascy_harness.Native_run.nthreads r.Ascy_harness.Native_run.seconds;
        Printf.printf "  ops: %d   throughput: %.3f Mops/s   final size: %d\n"
          r.Ascy_harness.Native_run.ops r.Ascy_harness.Native_run.throughput_mops
          r.Ascy_harness.Native_run.final_size;
        `Ok ()
    | `Sim -> (
        match Ascy_platform.Platform.by_name platform with
        | exception Invalid_argument msg -> `Error (false, msg)
        | p ->
            let m =
              match model with
              | Some m -> m
              | None -> Ascy_mem.Sim.model_of_name (Ascy_platform.Platform.preferred_model p)
            in
            let module R = Ascy_harness.Sim_run in
            let r =
              R.run ~seed ~latency ~model:m entry.Ascylib.Registry.maker ~platform:p
                ~nthreads:threads ~workload:wl ~ops_per_thread:ops ()
            in
            Printf.printf "%s on simulated %s, %d threads, %d ops%s\n" r.R.algorithm
              r.R.platform r.R.nthreads r.R.ops (Cli.model_suffix m);
            Printf.printf "  throughput : %.3f Mops/s (simulated %.2f ms)\n" r.R.throughput_mops
              (r.R.seconds *. 1e3);
            Printf.printf "  misses/op  : %.2f   atomics/update: %.2f   extra parses: %.2f%%\n"
              (R.misses_per_op r) (R.atomics_per_update r) (R.extra_parse_pct r);
            Printf.printf "  power      : %.2f W   energy: %.4f J\n"
              r.R.stats.Ascy_mem.Sim.power_w r.R.stats.Ascy_mem.Sim.energy_j;
            if latency then begin
              let pr name h =
                if Ascy_util.Histogram.count h > 0 then
                  Printf.printf "  %-11s: mean %.0f ns   p1/25/50/75/99 = %s\n" name
                    (Ascy_util.Histogram.mean h)
                    (Ascy_harness.Report.percentiles h)
              in
              pr "search hit" r.R.latencies.R.search_hit;
              pr "search miss" r.R.latencies.R.search_miss;
              pr "insert ok" r.R.latencies.R.insert_ok;
              pr "insert fail" r.R.latencies.R.insert_fail;
              pr "remove ok" r.R.latencies.R.remove_ok;
              pr "remove fail" r.R.latencies.R.remove_fail
            end;
            Printf.printf "  final size : %d   events: " r.R.final_size;
            Array.iteri
              (fun i v -> if v > 0 then Printf.printf "%s=%d " (Ascy_mem.Event.name i) v)
              r.R.stats.Ascy_mem.Sim.events;
            print_newline ();
            `Ok ())

let list_t = Arg.(value & flag & info [ "list" ] ~doc:"List all implementations and exit.")

let algo =
  Arg.(
    value
    & opt Cli.algo (Ascylib.Registry.by_name "ht-clht-lb")
    & info [ "a"; "algo" ] ~docv:"NAME" ~doc:"Algorithm name.")

let mode =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("native", `Native) ]) `Sim
    & info [ "m"; "mode" ] ~doc:"sim (modeled multicore) or native (real domains).")

let platform =
  Arg.(value & opt string "xeon20" & info [ "p"; "platform" ] ~doc:"Simulated platform.")

let threads = Arg.(value & opt int 20 & info [ "t"; "threads" ] ~doc:"Thread count.")
let initial = Arg.(value & opt int 1024 & info [ "i"; "initial" ] ~doc:"Initial elements.")
let updates = Arg.(value & opt int 10 & info [ "u"; "updates" ] ~doc:"Update percentage.")
let ops = Arg.(value & opt int 300 & info [ "o"; "ops" ] ~doc:"Operations per thread (sim).")
let latency = Arg.(value & flag & info [ "l"; "latency" ] ~doc:"Record latency percentiles.")
let duration = Arg.(value & opt float 1.0 & info [ "d"; "duration" ] ~doc:"Native run seconds.")

let cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one ASCYLIB-OCaml experiment point")
    Term.(
      ret
        (const run $ list_t $ algo $ mode $ platform $ threads $ initial $ updates $ ops $ latency
       $ Cli.seed $ duration $ Cli.model_or_auto))
