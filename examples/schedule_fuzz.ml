(* Systematic schedule exploration: the simulator as a bounded model
   checker.

   This example used to fuzz 200 random seeds and hope an interleaving
   broke the asynchronized list.  It now drives the SCT engine
   (Ascy_sct + Ascy_harness.Sct_run): a DFS over the simulator's
   scheduling decisions, bounded by preemptions, pruned with
   DPOR-style backtrack points and sleep sets, with every explored
   schedule checked for crashes, data races (the happens-before
   detector of Ascy_analysis.Race), structural damage, set conservation
   and linearizability.

   The asynchronized (sequential) list is deliberately unsafe when
   shared — that is the paper's whole point.  SCT finds a violating
   interleaving deterministically, minimizes it, serializes it to
   JSON, and replays it bit-for-bit.  The lazy list survives the same
   bounds exhaustively.

   Run with: dune exec examples/schedule_fuzz.exe
   The randomized policies (random, PCT, swarm) and parallel worker
   domains run the same script through the CLI, e.g.
     dune exec bin/ascy.exe -- explore --policy pct --pct-depth 5 ll-async
   Their findings flow through the same minimize/serialize/replay
   pipeline. *)

module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Scheduler = Ascy_sct.Scheduler

(* A small adversarial workload (Sct_run.fuzz_spec): threads race
   inserts/removes over a handful of keys.  Deterministic per-thread
   scripts; the engine owns the interleavings. *)
let spec = Sct.fuzz_spec

let bounds = Explorer.default_bounds

let file = "SCT_counterexample_ll-async.json"

let hunt name =
  Printf.printf "%-12s exploring (DPOR, <=%d preemptions) ...\n%!" name
    (match bounds.Explorer.preemptions with Some p -> p | None -> max_int);
  let finding, report = Sct.explore ~mode:Explorer.Dpor ~bounds ~races:true (spec name) in
  Printf.printf "%-12s %d schedules, %d decisions%s\n" name report.Explorer.schedules
    report.Explorer.steps
    (if report.Explorer.complete then " (schedule space exhausted)" else "");
  (finding, report)

let () =
  print_endline "Hunting the asynchronized list (expected: a violation, fast):";
  (match hunt "ll-async" with
  | Some f, _ ->
      Printf.printf "ll-async     VIOLATION: %s\n" f.Sct.violation;
      Printf.printf "ll-async     schedule: %d decisions, minimized to %d (%d context switches)\n"
        (Array.length f.Sct.schedule) (Array.length f.Sct.minimized)
        (max 0 (List.length (Scheduler.to_chunks f.Sct.minimized) - 1));
      Sct.save_finding ~path:file ~oracles:{ Sct.sct_oracles with races = true } (spec "ll-async")
        ~prefix:f.Sct.minimized ~violation:f.Sct.min_violation
  | None, _ ->
      prerr_endline "FATAL: SCT failed to break the asynchronized list";
      exit 1);
  Printf.printf "\nReplaying %s twice (determinism check):\n" file;
  let { Sct.expected; results; _ } = Sct.replay_file ~times:2 file in
  List.iteri
    (fun i r ->
      Printf.printf "replay %d: %s\n" (i + 1)
        (match r with Some v -> v | None -> "no violation (!)"))
    results;
  (match (expected, results) with
  | Some v, [ Some a; Some b ] when a = v && b = v ->
      print_endline "counterexample reproduces bit-for-bit"
  | _ ->
      prerr_endline "FATAL: counterexample did not reproduce deterministically";
      exit 1);
  print_endline "\nExploring the lazy list under the same bounds (expected: clean):";
  (match hunt "ll-lazy" with
  | None, report when report.Explorer.complete ->
      print_endline "ll-lazy      no violation in the entire bounded schedule space"
  | None, _ -> print_endline "ll-lazy      no violation (budget reached before exhaustion)"
  | Some f, _ ->
      Printf.printf "FATAL: lazy list broken?! %s\n" f.Sct.violation;
      exit 1);
  print_endline "\nThis is how the test suite hunts interleaving bugs: bounded";
  print_endline "DPOR exploration instead of seed lotteries, and any failure";
  print_endline "ships as a schedule file that replays deterministically.";
  Sys.remove file
