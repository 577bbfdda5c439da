(* Replay a serialized SCT or chaos counterexample bit-for-bit.

   Usage: sct_replay FILE.json [TIMES]

   Loads a counterexample written by Ascy_harness.Sct_run.save_finding —
   an SCT schedule (Replay schema v1) or a FAULT_*.json chaos finding
   (schema v2: schedule prefix plus fault plan) — rebuilds the exact
   workload (algorithm, platform, thread scripts, prefill), replays it
   TIMES times (default 2) through Sct_run.replay_file under the oracles
   and coherence model the file records, and checks every replay
   reproduces the identical violation.  Exit status: 0 when the
   violation reproduces deterministically, 1 when it does not (or the
   file is malformed). *)

module Sct = Ascy_harness.Sct_run
module Sim = Ascy_mem.Sim

let () =
  let path, times =
    match Sys.argv with
    | [| _; path |] -> (path, 2)
    | [| _; path; n |] -> (path, int_of_string n)
    | _ ->
        prerr_endline "usage: sct_replay FILE.json [TIMES]";
        exit 2
  in
  match Sct.replay_file ~times path with
  | exception Ascy_sct.Replay.Bad_schedule msg ->
      Printf.eprintf "error: bad schedule file %s: %s\n" path msg;
      exit 1
  | { Sct.spec; faults; model; expected; results } ->
      if Sim.model_name_of model <> Sim.model_name_of Sim.default_model then
        Printf.printf "coherence model: %s (recorded in replay file)\n" (Sim.model_name_of model);
      Printf.printf "algorithm %s on %s, %d threads, %d scripted ops\n" spec.Sct.name
        spec.Sct.platform.Ascy_platform.Platform.name spec.Sct.nthreads
        (Array.fold_left (fun acc ops -> acc + Array.length ops) 0 spec.Sct.script);
      if faults <> [] then
        Printf.printf "fault plan: %s\n" (Ascy_harness.Fault_run.plan_str faults);
      (match expected with
      | Some v -> Printf.printf "recorded violation: %s\n" v
      | None -> print_endline "recorded violation: (none stored)");
      List.iteri
        (fun i r ->
          Printf.printf "replay %d: %s\n" (i + 1)
            (match r with Some v -> v | None -> "no violation (!)"))
        results;
      let reproduces =
        match results with
        | [] -> false
        | first :: rest ->
            first <> None
            && List.for_all (fun r -> r = first) rest
            && match expected with Some v -> first = Some v | None -> true
      in
      if reproduces then print_endline "verdict: violation reproduces bit-for-bit"
      else begin
        print_endline "verdict: NOT reproducible";
        exit 1
      end
