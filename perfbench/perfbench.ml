(* The repository benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--tiny] [--break-pin]

   W is native-read, native-update, sct-mesi or kv-sim.  The run prints
   its report (metadata, the named figures of its workload, the
   simulated-output digest), then, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   and the spans go to perfbench/out/trace-W-N.json.  Exit status 1 on
   any failed correctness check.  --tiny shrinks every size for the
   self-test; --break-pin corrupts one pinned SCT count (the gate must
   trip).  See perfbench/README.md. *)

open Common
module J = Ascy_util.Json

let workloads = [ "native-read"; "native-update"; "sct-mesi"; "kv-sim" ]

let run_workload ctx r = function
  | "native-read" -> Native.run ctx r "read"
  | "native-update" -> Native.run ctx r "update"
  | "sct-mesi" -> Sct.run ctx r
  | "kv-sim" -> Kv.run ctx r
  | w -> invalid_arg ("unknown workload " ^ w)

let usage () =
  prerr_endline
    "usage: perfbench --workload (native-read|native-update|sct-mesi|kv-sim) --seed N --seconds S \
     --trace 0|1 [--tiny] [--break-pin]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let tiny = ref false and break_pin = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := (t = "1"); parse rest
    | "--tiny" :: rest -> tiny := true; parse rest
    | "--break-pin" :: rest -> break_pin := true; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  ignore (Lazy.force catalogue);
  let ctx = { seed = !seed; seconds = !seconds; trace = !trace; tiny = !tiny; break_pin = !break_pin } in
  let r = fresh () in
  let wall =
    if not ctx.trace then begin
      let (), wall = time (fun () -> run_workload ctx r !workload) in
      set r "heap_peak_mb" (heap_peak_mb ());
      wall
    end
    else begin
      (* the untraced half gives the baseline of the tracing overhead *)
      let base = fresh () in
      let half = { ctx with seconds = ctx.seconds /. 2.0; trace = false } in
      let (), w0 = time (fun () -> run_workload half base !workload) in
      Span.enabled := true;
      let (), w1 = time (fun () -> run_workload { half with trace = true } r !workload) in
      Span.enabled := false;
      set r "heap_peak_mb" (heap_peak_mb ());
      let ops v = Option.value ~default:0.0 (Hashtbl.find_opt v.values "ops_per_s") in
      set r "trace.overhead_pct" ((ratio (ops base) (ops r) -. 1.0) *. 100.0);
      set r "trace.spans" (float_of_int (Span.count ()));
      r.attempted <- r.attempted + base.attempted;
      r.failed <- r.failed + base.failed;
      r.failures <- r.failures @ base.failures;
      w0 +. w1
    end
  in
  Team.shutdown ();
  let trace_file = Printf.sprintf "perfbench/out/trace-%s-%d.json" !workload !seed in
  if ctx.trace then Span.write trace_file;
  let catalogue = if ctx.trace then per_layer () else end_to_end () in
  let meta =
    J.Obj
      ([
         ("workload", J.String !workload);
         ("seed", J.Int !seed);
         ("run_seconds", J.Float !seconds);
         ("wall_s", J.Float wall);
         ("trace", J.Bool ctx.trace);
         ("host_cores", J.Int (Domain.recommended_domain_count ()));
         ("ocaml", J.String Sys.ocaml_version);
         ("tiny", J.Bool ctx.tiny);
         ( "failed_frac",
           J.Obj
             [
               ("value", J.Float (ratio (float_of_int r.failed) (float_of_int (max 1 r.attempted))));
               ("unit", J.String "ratio");
             ] );
       ]
      @ (if ctx.trace then [ ("trace_file", J.String trace_file) ] else [])
      @ r.report)
  in
  print_endline (J.to_string (J.Obj [ ("perfbench", meta) ]));
  List.iter
    (fun (name, unit) ->
      let v = Option.value ~default:0.0 (Hashtbl.find_opt r.values name) in
      Printf.printf "%-44s %16.6g %s\n" name v unit)
    catalogue;
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev r.failures);
  let metric (name, unit) =
    let v = Option.value ~default:0.0 (Hashtbl.find_opt r.values name) in
    (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ])
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (r.failed = 0));
            ("attempted", J.Int (max 1 r.attempted));
            ("failed", J.Int r.failed);
            ("metrics", J.Obj (List.map metric catalogue));
          ]));
  exit (if r.failed = 0 then 0 else 1)
