(* Policy × domain exploration matrix over the algorithm registry.

   Usage: ascy explore [--out DIR] [--domains LIST] [--policy LIST]
                       [--budget N] [--seed N] [--pct-depth N] [--swarm-seeds N]
                       [--model NAME] [--smoke] [--soft] [NAME ...]

   For every algorithm (the full registry, the --smoke subset, or the
   NAMEs given), run the 3-thread adversarial script Sct_run.fuzz_spec
   under every requested exploration policy (exhaustive DPOR, uniform
   random, PCT, swarm) at every requested domain count, and write one
   EXPLORE_matrix.json row per cell: schedules, steps, wall-clock,
   schedules/sec, the completeness flag, and the verdict.

   Cross-checks, all within one invocation:
   - for a fixed (algorithm, policy), verdicts must be identical at
     every domain count, and any counterexample file must be
     byte-identical across domain counts (the canonical-finding
     contract of Ascy_sct.Par_explore) — a difference is a hard fail;
   - a randomized policy reporting a violation on an algorithm the
     exhaustive baseline proves clean (within bounds) is a hard fail;
     a randomized policy *missing* a violation exhaustive finds is the
     expected probabilistic shortfall and only warns;
   - the exhaustive schedules/sec at the highest domain count vs one
     domain gives the parallel speedup; below [min_speedup] it fails
     the run — soften to a warning with --soft on machines without
     spare cores.

   Counterexamples are written as EXPLORE_CE_<algo>_<policy>.json,
   replayable with ascy replay like any other finding.

   This is also the front end for the policies the schedule_fuzz example
   used to take flags for: e.g. --policy pct --pct-depth 5 ll-async. *)

module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Registry = Ascylib.Registry
module Sim = Ascy_mem.Sim
module J = Ascy_util.Json

(* A quick correct-algorithms cross-section: two per family plus both
   lock-free hash tables, small enough for CI yet exercising every
   structure shape.  Correctness matters: the strict randomized-vs-
   exhaustive verdict check assumes the exhaustive verdict is "clean". *)
let smoke_set =
  [
    "ll-lazy"; "ll-harris"; "ht-java"; "ht-clht-lf";
    "sl-herlihy"; "sl-fraser"; "bst-tk"; "bst-howley";
  ]

let min_speedup = 2.0

let read_file path = In_channel.with_open_bin path In_channel.input_all

type cell = {
  c_name : string;
  c_policy : Explorer.policy;
  c_domains : int;
  c_report : Explorer.report;
  c_seconds : float;
  c_violation : string option;
  c_ce : string option;  (** counterexample file path, if a finding was saved *)
}

let run out_dir domain_counts policy_names budget seed pct_depth swarm_seeds model soft entries =
  let policy_of_name = function
    | `Exhaustive -> Explorer.Exhaustive
    | `Random -> Explorer.Random { seed; schedules = budget }
    | `Pct -> Explorer.Pct { seed; depth = pct_depth; schedules = budget }
    | `Swarm ->
        Explorer.Swarm
          {
            seeds = List.init swarm_seeds (fun i -> seed + i);
            schedules = max 1 (budget / swarm_seeds);
          }
  in
  let policies = List.map policy_of_name policy_names in
  let domain_counts = List.sort_uniq compare domain_counts in
  let model_name = Sim.model_name_of model in
  Printf.printf
    "exploration matrix: %d algorithms x %d policies x domains {%s}, model %s, budget %d\n\n"
    (List.length entries) (List.length policies)
    (String.concat "," (List.map string_of_int domain_counts))
    model_name budget;
  Printf.printf "%-14s %-10s %7s %9s %9s %8s %10s  %s\n" "name" "policy" "domains"
    "schedules" "steps" "seconds" "scheds/s" "verdict";
  let hard_fails = ref [] in
  let warnings = ref [] in
  let cells =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.concat_map
          (fun policy ->
            List.map
              (fun domains ->
                let t0 = Unix.gettimeofday () in
                let finding, report =
                  Sct.explore ~mode:Explorer.Dpor ~model ~policy ~domains (Sct.fuzz_spec e.Registry.name)
                in
                let seconds = Unix.gettimeofday () -. t0 in
                let violation =
                  Option.map (fun (f : Sct.finding) -> f.Sct.violation) finding
                in
                let ce =
                  match finding with
                  | None -> None
                  | Some f ->
                      (* first domain count writes the canonical file;
                         later ones write beside it and must match bytes *)
                      let base =
                        Printf.sprintf "EXPLORE_CE_%s_%s.json" e.Registry.name
                          (Explorer.policy_name policy)
                      in
                      let canonical = Filename.concat out_dir base in
                      let path =
                        if Sys.file_exists canonical then canonical ^ ".check" else canonical
                      in
                      Sct.save_finding ~model ~path ~oracles:Sct.sct_oracles
                        (Sct.fuzz_spec e.Registry.name) ~prefix:f.Sct.minimized
                        ~violation:f.Sct.min_violation;
                      if path <> canonical then begin
                        if read_file path <> read_file canonical then
                          hard_fails :=
                            Printf.sprintf
                              "%s/%s: counterexample differs at %d domains (vs %s)"
                              e.Registry.name (Explorer.policy_name policy) domains base
                            :: !hard_fails;
                        Sys.remove path
                      end;
                      Some base
                in
                Printf.printf "%-14s %-10s %7d %9d %9d %8.2f %10.0f  %s\n%!" e.Registry.name
                  (Explorer.policy_name policy) domains report.Explorer.schedules
                  report.Explorer.steps seconds
                  (if seconds > 0. then float_of_int report.Explorer.schedules /. seconds
                   else 0.)
                  (match violation with Some v -> "FAIL: " ^ v | None -> "ok");
                {
                  c_name = e.Registry.name;
                  c_policy = policy;
                  c_domains = domains;
                  c_report = report;
                  c_seconds = seconds;
                  c_violation = violation;
                  c_ce = ce;
                })
              domain_counts)
          policies)
      entries
  in
  (* verdicts must agree across domain counts for a fixed (algo, policy) *)
  List.iter
    (fun c ->
      List.iter
        (fun c' ->
          if
            c.c_name = c'.c_name && c.c_policy = c'.c_policy
            && c.c_domains < c'.c_domains
            && c.c_violation <> c'.c_violation
          then
            hard_fails :=
              Printf.sprintf "%s/%s: verdict differs between %d and %d domains" c.c_name
                (Explorer.policy_name c.c_policy) c.c_domains c'.c_domains
              :: !hard_fails)
        cells)
    cells;
  (* randomized policies vs the exhaustive baseline (first domain count) *)
  List.iter
    (fun (e : Registry.entry) ->
      match
        List.find_opt
          (fun c -> c.c_name = e.Registry.name && c.c_policy = Explorer.Exhaustive)
          cells
      with
      | None -> ()
      | Some base ->
          List.iter
            (fun c ->
              if c.c_name = e.Registry.name && c.c_policy <> Explorer.Exhaustive then
                match (base.c_violation, c.c_violation) with
                | None, Some v ->
                    hard_fails :=
                      Printf.sprintf
                        "%s: %s reports a violation exhaustive proved in-bounds clean: %s"
                        c.c_name (Explorer.policy_name c.c_policy) v
                      :: !hard_fails
                | Some _, None ->
                    warnings :=
                      Printf.sprintf
                        "%s: %s missed the violation exhaustive finds (probabilistic shortfall)"
                        c.c_name (Explorer.policy_name c.c_policy)
                      :: !warnings
                | _ -> ())
            cells)
    entries;
  (* exhaustive parallel speedup: schedules/sec at max domains vs 1 *)
  let rate domains =
    let picked =
      List.filter
        (fun c -> c.c_policy = Explorer.Exhaustive && c.c_domains = domains)
        cells
    in
    let scheds =
      List.fold_left (fun a c -> a + c.c_report.Explorer.schedules) 0 picked
    in
    let secs = List.fold_left (fun a c -> a +. c.c_seconds) 0. picked in
    if secs > 0. && picked <> [] then Some (float_of_int scheds /. secs) else None
  in
  let speedup =
    match (List.mem Explorer.Exhaustive policies, domain_counts) with
    | true, _ :: _ :: _ -> (
        let dmax = List.fold_left max 1 domain_counts in
        match (rate 1, rate dmax) with
        | Some r1, Some rn when List.mem 1 domain_counts -> Some (dmax, rn /. r1)
        | _ -> None)
    | _ -> None
  in
  let rows =
    List.map
      (fun c ->
        match
          Sct.report_json ~policy:c.c_policy ~domains:c.c_domains ?violation:c.c_violation
            c.c_report
        with
        | J.Obj fields ->
            J.Obj
              (("name", J.String c.c_name) :: fields
              @ [
                  ("seconds", J.Float c.c_seconds);
                  ( "schedules_per_sec",
                    J.Float
                      (if c.c_seconds > 0. then
                         float_of_int c.c_report.Explorer.schedules /. c.c_seconds
                       else 0.) );
                  ( "counterexample",
                    match c.c_ce with Some p -> J.String p | None -> J.Null );
                ])
        | _ -> assert false)
      cells
  in
  let json =
    J.Obj
      [
        ("schema_version", J.Int 1);
        ("model", J.String model_name);
        ("budget", J.Int budget);
        ("seed", J.Int seed);
        ("algorithms", J.Int (List.length entries));
        ("policies", J.List (List.map (fun p -> J.String (Explorer.policy_name p)) policies));
        ("domain_counts", J.List (List.map (fun d -> J.Int d) domain_counts));
        ( "speedup",
          match speedup with
          | Some (dmax, s) ->
              J.Obj [ ("domains", J.Int dmax); ("schedules_per_sec_ratio", J.Float s) ]
          | None -> J.Null );
        ("hard_fails", J.List (List.map (fun s -> J.String s) (List.rev !hard_fails)));
        ("warnings", J.List (List.map (fun s -> J.String s) (List.rev !warnings)));
        ("matrix", J.List rows);
      ]
  in
  let path = Filename.concat out_dir "EXPLORE_matrix.json" in
  J.write_file ~path json;
  Printf.printf "\n[matrix -> %s]\n" path;
  List.iter (Printf.printf "warning: %s\n") (List.rev !warnings);
  (match speedup with
  | Some (dmax, s) ->
      Printf.printf "exhaustive schedules/sec at %d domains: %.2fx of 1 domain (threshold %.2fx)\n"
        dmax s min_speedup;
      if s < min_speedup then
        if soft then
          Printf.printf "warning: speedup %.2fx below threshold %.2fx (soft mode)\n" s min_speedup
        else begin
          Printf.printf "FAIL: speedup %.2fx below threshold %.2fx\n" s min_speedup;
          hard_fails := Printf.sprintf "speedup %.2fx below threshold %.2fx" s min_speedup
                        :: !hard_fails
        end
  | None -> ());
  match List.rev !hard_fails with
  | [] -> print_endline "matrix consistent: verdicts and counterexamples agree across the board"
  | fails ->
      List.iter (Printf.printf "FAIL: %s\n") fails;
      exit 1

open Cmdliner

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let domains =
  Arg.(
    value & opt (list int) [ 1 ]
    & info [ "domains" ] ~docv:"LIST" ~doc:"Comma-separated worker-domain counts.")

let policies =
  let all = [ ("exhaustive", `Exhaustive); ("random", `Random); ("pct", `Pct); ("swarm", `Swarm) ] in
  Arg.(
    value & opt (list (enum all)) (List.map snd all)
    & info [ "policy" ] ~docv:"LIST" ~doc:"Comma-separated exploration policies.")

let budget =
  Arg.(value & opt int 64 & info [ "budget" ] ~docv:"N" ~doc:"Schedules per randomized policy.")

let pct_depth = Arg.(value & opt int 3 & info [ "pct-depth" ] ~docv:"N" ~doc:"PCT bug depth.")

let swarm_seeds =
  Arg.(value & opt positive 4 & info [ "swarm-seeds" ] ~doc:"Swarm member count (budget split).")

let soft =
  Arg.(value & flag & info [ "soft" ] ~doc:"Report a low parallel speedup as a warning only.")

(* --smoke replaces the default (whole-registry) algorithm set *)
let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ] ~doc:"Run the CI cross-section instead of the whole registry.")

let cmd =
  let default =
    Term.(
      const (fun smoke ->
          if smoke then List.map Registry.by_name smoke_set else Registry.all)
      $ smoke)
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Policy x domain exploration matrix over the algorithm registry")
    Term.(
      const run $ Cli.out $ domains $ policies $ budget $ Cli.seed $ pct_depth $ swarm_seeds
      $ Cli.model (Sim.model_of_name "flat")
      $ soft $ Cli.algos ~default ())
