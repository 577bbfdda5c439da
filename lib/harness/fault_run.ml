(** Chaos testing of CSDS implementations: scripted workloads executed
    under injected fault plans ({!Ascy_mem.Sim.fault_event}) and checked
    with {e progress oracles} — does everyone else still finish when one
    thread crash-stops holding a lock, mid-CAS, or simply stalls?

    A chaos run is one {!Sct_run.execute} with {!Sct_run.chaos_oracles}
    armed: the schedule is held (default policy, or any explored
    prefix) and the {e execution} itself is perturbed.  Fault plans and
    schedules share one coordinate system — scheduler decision indices —
    so a plan composes with a prefix and serializes into the same replay
    file ({!Sct_run.save_finding}, {!Ascy_sct.Replay} schema v2).

    Oracles:
    - {e global-progress watchdog}: some thread completes an operation
      within a bounded number of scheduling decisions, or the run is
      declared wedged and the watchdog reports what every surviving
      thread was spinning on (for a lock-holder crash: the owning lock's
      cache line);
    - {e per-thread starvation}: the largest decision gap between any
      one thread's consecutive operation completions;
    - {e structural validation} + {e per-key conservation} after runs
      that complete, with ±1 slack on the keys of crashed threads'
      in-flight ops.

    {!classify} turns this into a verdict per algorithm: crash the
    victim after each of its store/CAS commits in turn (covering
    crash-holding-lock for lock-based designs and crash-mid-CAS for
    lock-free ones) and observe whether any placement wedges the
    survivors — the {e observed} progress class, checked against the
    declared Table-1 guarantee ({!Ascylib.Registry.entry.progress}) by
    [ascy chaos] and CI. *)

module Sim = Ascy_mem.Sim
module Explorer = Ascy_sct.Explorer
module Scheduler = Ascy_sct.Scheduler
module Registry = Ascylib.Registry
module Ascy = Ascy_core.Ascy

type spec = Sct_run.spec

let fault_str fe =
  match fe.Sim.fe_fault with
  | Sim.F_crash -> Printf.sprintf "crash(t%d)@%d" fe.Sim.fe_tid fe.Sim.fe_at
  | Sim.F_stall n -> Printf.sprintf "stall(t%d,%d)@%d" fe.Sim.fe_tid n fe.Sim.fe_at
  | Sim.F_numa_slow { factor; window } ->
      Printf.sprintf "numa-slow(s%d,x%.1f,%d)@%d" fe.Sim.fe_tid factor window fe.Sim.fe_at
  | Sim.F_msg Sim.Msg_drop -> Printf.sprintf "drop(t%d)@%d" fe.Sim.fe_tid fe.Sim.fe_at
  | Sim.F_msg Sim.Msg_dup -> Printf.sprintf "dup(t%d)@%d" fe.Sim.fe_tid fe.Sim.fe_at
  | Sim.F_msg (Sim.Msg_delay n) ->
      Printf.sprintf "delay(t%d,%d)@%d" fe.Sim.fe_tid n fe.Sim.fe_at

let plan_str faults = String.concat " " (List.map fault_str faults)

(* ------------------------------------------------------------------ *)
(* Crash-point discovery                                               *)
(* ------------------------------------------------------------------ *)

(** Decision indices at which crashing [victim] catches it right after a
    store or CAS commit — mid-critical-section for lock-based designs
    (the acquire is an RMW), mid-protocol for lock-free ones.  Derived
    from a fault-free probe run under the same (default) schedule, so
    the indices are exact for subsequent fault runs. *)
let crash_candidates ?(max_candidates = 48) ?model ~victim (spec : spec) =
  let cands = ref [] in
  let on_step ~step ~runnable ~chosen =
    if chosen = victim && List.length !cands < max_candidates then
      match Scheduler.action_of chosen runnable with
      | Sim.A_access ((Sim.Write | Sim.Rmw), _) | Sim.A_kcas _ -> cands := (step + 1) :: !cands
      | _ -> ()
  in
  ignore
    (Sct_run.execute ?model
       ~oracles:(Sct_run.chaos_oracles ~watchdog:2_000 ~check:false)
       (Sct_run.maker_of spec) spec
       ~sched:(Scheduler.prefix_scheduler ~on_step ~prefix:[||] ()));
  List.rev !cands

(* ------------------------------------------------------------------ *)
(* Classification: observed vs declared progress                       *)
(* ------------------------------------------------------------------ *)

(** The adversarial chaos workload: three threads hammer updates on one
    key, so a corpse holding that key's lock (or bucket, or segment)
    provably stands in every survivor's way. *)
let chaos_spec ?platform name =
  Sct_run.mk_spec ?platform ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Insert, 1); (Remove, 1); (Insert, 1) |];
        [| (Insert, 1); (Remove, 1); (Insert, 1); (Remove, 1) |];
        [| (Remove, 1); (Insert, 1); (Remove, 1); (Insert, 1) |];
      |]
    ()

type report = {
  entry : Registry.entry;
  observed : Ascy.progress;  (** from the crash sweep *)
  witness : (Sim.fault_event list * string) option;
      (** the plan (and watchdog description) that wedged the survivors —
          present iff [observed = Blocking] *)
  crash_probes : int;  (** crash placements tried *)
  oracle_failures : (Sim.fault_event list * string) list;
      (** completed crash runs that corrupted the structure *)
  stall_ok : bool;  (** finite stall: everyone completed, oracles clean *)
  stall_violation : string option;
  stall_plan : Sim.fault_event list;
}

(** Does the observed behavior honor the declared guarantee?  A declared
    non-blocking design must never wedge and never corrupt; a declared
    blocking one must actually wedge for at least one lock-holder crash
    (otherwise the declaration is wrong too).  Finite stalls must always
    be survived. *)
let matches r =
  r.observed = r.entry.Registry.progress && r.oracle_failures = [] && r.stall_ok

(** Crash the victim after each of its commit points in turn, then stall
    it; observe.  For declared-blocking designs the sweep stops at the
    first wedge (the expected outcome); declared-non-blocking designs
    must survive every placement, so all are run. *)
let classify ?(watchdog = 2_000) ?(max_candidates = 48) ?(stall = 500) ?model
    (entry : Registry.entry) =
  let spec = chaos_spec entry.Registry.name in
  let run ~watchdog ~check faults =
    Sct_run.execute ~faults ?model ~oracles:(Sct_run.chaos_oracles ~watchdog ~check)
      entry.Registry.maker spec ~sched:(Scheduler.prefix_scheduler ~prefix:[||] ())
  in
  let victim = 0 in
  let declared = entry.Registry.progress in
  (* correctness oracles only where they are sound: a corpse inside a
     blocking design legitimately leaves the structure mid-update (and
     reading it back could spin on the held lock); asynchronized
     structures are incorrect under any concurrency by design *)
  let check_crash = declared = Ascy.Non_blocking && not entry.Registry.asynchronized in
  let cands = crash_candidates ~max_candidates ?model ~victim spec in
  let witness = ref None in
  let oracle_failures = ref [] in
  let probes = ref 0 in
  (try
     List.iter
       (fun d ->
         let faults = [ { Sim.fe_at = d; fe_tid = victim; fe_fault = Sim.F_crash } ] in
         incr probes;
         let out = run ~watchdog ~check:check_crash faults in
         match (out.Sct_run.verdict, out.Sct_run.violation) with
         | Sct_run.Wedged _, _ ->
             witness := Some (faults, Option.value ~default:"wedged" out.Sct_run.violation);
             raise Exit
         | Sct_run.Completed, Some v -> oracle_failures := (faults, v) :: !oracle_failures
         | Sct_run.Completed, None -> ())
       cands
   with Exit -> ());
  let observed = if !witness <> None then Ascy.Blocking else Ascy.Non_blocking in
  (* a stall is finite: everyone must finish, and with no corpse at the
     end the exact oracles are sound for every non-asynchronized entry *)
  let stall_at = match cands with d :: _ -> d | [] -> 1 in
  let stall_plan = [ { Sim.fe_at = stall_at; fe_tid = victim; fe_fault = Sim.F_stall stall } ] in
  let stall_out =
    run ~watchdog:(watchdog + (2 * stall)) ~check:(not entry.Registry.asynchronized) stall_plan
  in
  {
    entry;
    observed;
    witness = !witness;
    crash_probes = !probes;
    oracle_failures = List.rev !oracle_failures;
    stall_ok = stall_out.Sct_run.verdict = Sct_run.Completed && stall_out.Sct_run.violation = None;
    stall_violation = stall_out.Sct_run.violation;
    stall_plan;
  }

(* ------------------------------------------------------------------ *)
(* Exploring fault points × schedules                                  *)
(* ------------------------------------------------------------------ *)

(** Product exploration: for each candidate crash decision, explore the
    schedule space with that crash injected — the SCT explorer placing
    interleavings {e and} the fault systematically.  The oracle is the
    progress watchdog.  Returns the first (plan, finding) that wedges,
    with the finding's schedule replayable alongside the plan.
    [policy]/[domains] select the exploration policy and worker domains
    exactly as in {!Sct_run.explore} (default: sequential exhaustive
    DFS, byte-identical to the historical behavior). *)
let explore_crash ?mode ?(bounds = Explorer.default_bounds) ?(watchdog = 1_000)
    ?(max_candidates = 8) ?model ?policy ?domains ~victim (spec : spec) =
  let cands = crash_candidates ~max_candidates ?model ~victim spec in
  let maker = Sct_run.maker_of spec in
  let oracles = Sct_run.chaos_oracles ~watchdog ~check:false in
  List.find_map
    (fun d ->
      let faults = [ { Sim.fe_at = d; fe_tid = victim; fe_fault = Sim.F_crash } ] in
      let run ~sched = (Sct_run.execute ~faults ?model ~oracles maker spec ~sched).Sct_run.violation in
      let report = Ascy_sct.Par_explore.dispatch ?mode ~bounds ?policy ?domains ~run () in
      match report.Explorer.failure with Some f -> Some (faults, f) | None -> None)
    cands
