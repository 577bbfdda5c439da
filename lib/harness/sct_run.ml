(** Scripted set workloads on the simulator: one executor
    ({!execute}) that builds, prefills, runs one operation script per
    thread — free-running or under a given scheduler and fault plan —
    and applies the oracles its caller arms.  Every simulated set
    workload runs through it: measurement ({!Sim_run}) and ASCY
    profiling ({!Ascy_check}) free-running; systematic concurrency
    testing on top of it (schedule-by-schedule exploration with
    [Ascy_sct.Explorer], failing schedules minimized and serialized for
    bit-for-bit replay); chaos testing ({!Fault_run}) with other oracles
    armed.

    Oracles, armed per run through an {!oracles} record and applied in
    this order:
    - {e crash}: an exception escaping a simulated thread
      ([Sim.Thread_failure]) is a violation — unless the exception is
      [Sim.Thread_killed], the tag carried by injected crash faults,
      which marks deliberate fault-induced termination, not a bug;
    - {e progress watchdog} and {e step budget} (cut the run short: a
      wedge, or the sl-pugh livelock class of bug under SCT);
    - {e data race}: the happens-before detector
      ({!Ascy_analysis.Race}) observed two plain writes to the same
      cache line unordered by the run's synchronization;
    - {e structure}: [validate] must pass (ordering/reachability);
    - {e conservation}: for every key, initial membership plus net
      successful inserts/removes must equal final membership, up to the
      in-flight ops of crashed threads;
    - {e linearizability}: the recorded invocation/response history must
      admit a legal linearization ({!History.check}). *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module J = Ascy_util.Json
module Explorer = Ascy_sct.Explorer
module Scheduler = Ascy_sct.Scheduler
module Replay = Ascy_sct.Replay

type op = Workload.op = Search | Insert | Remove

(** A fully deterministic workload: the algorithm (by registry name),
    the keys present before the measured run, and one operation script
    per thread.  Schedules are only reproducible against the identical
    spec, so the spec is serialized alongside each counterexample. *)
type spec = {
  name : string;  (** registry name, e.g. ["ll-lazy"] *)
  platform : P.t;
  nthreads : int;
  initial : int list;
  script : (op * int) array array;  (** [script.(tid)] = that thread's ops *)
}

let mk_spec ?(platform = P.xeon20) ~name ~initial ~script () =
  let nthreads = Array.length script in
  if nthreads < 1 then invalid_arg "Sct_run.mk_spec: empty script";
  { name; platform; nthreads; initial; script }

(** The 3-thread adversarial workload: threads race inserts and removes
    over keys 1-3, key 2 prefilled.  Its exhaustive bounded DPOR spaces
    are the repo's pins (ll-lazy: 2099 schedules, 609,932 decisions). *)
let fuzz_spec name =
  mk_spec ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Insert, 1); (Remove, 2); (Insert, 3) |];
        [| (Insert, 1); (Insert, 2); (Remove, 3) |];
        [| (Remove, 1); (Insert, 2) |];
      |]
    ()

(** Two threads race an insert of the same absent key: enough to break
    any structure without concurrency control. *)
let duel_spec name =
  mk_spec ~name ~initial:[ 2 ]
    ~script:[| [| (Insert, 1); (Remove, 2) |]; [| (Insert, 1); (Insert, 2) |] |]
    ()

(** Derive a per-thread script from a {!Workload}: per-thread RNGs,
    schedule-independent.  {!Sim_run} measures exactly this script, and
    fuzz-style workloads can be explored systematically with it. *)
let script_of_workload ~(workload : Workload.t) ~nthreads ~ops_per_thread ~seed =
  Array.init nthreads (fun tid ->
      let rng = Ascy_util.Xorshift.create ((seed * 7919) + (tid * 104729) + 13) in
      Array.init ops_per_thread (fun _ ->
          let k = Workload.pick_key workload rng in
          let op = Workload.pick_op workload rng in
          (op, k)))

(* ------------------------------------------------------------------ *)
(* The scripted executor                                               *)
(* ------------------------------------------------------------------ *)

(** The oracles one scripted execution can arm.  A crash escaping a
    simulated thread is always a violation (except the injected
    [Sim.Thread_killed]); everything else is opt-in. *)
type oracles = {
  watchdog : int option;
      (** progress watchdog: the run is wedged once this many decisions
          pass with no operation completing *)
  max_steps : int option;  (** step budget: exceeding it is a violation *)
  races : bool;  (** happens-before data-race detector *)
  check : bool;
      (** after a run that completes: structural validation, then
          per-key conservation, widened by ±1 on the keys of crashed
          threads' in-flight ops (a crash-stopped update may or may not
          have taken effect — both are legal) *)
  linearizable : bool;  (** the recorded history must linearize *)
}

(** The SCT oracles: crash, structure, conservation, linearizability;
    races opt-in; the step budget is the explorer's. *)
let sct_oracles =
  { watchdog = None; max_steps = None; races = false; check = true; linearizable = true }

(** The chaos oracles: the progress watchdog, plus validation and
    conservation iff [check] — unsound when a corpse may hold a lock,
    since even reading the structure back could spin behind it. *)
let chaos_oracles ~watchdog ~check =
  { watchdog = Some watchdog; max_steps = None; races = false; check; linearizable = false }

(** Measurement and profiling arm nothing: only a crash escaping a
    simulated thread rejects the run. *)
let no_oracles =
  { watchdog = None; max_steps = None; races = false; check = false; linearizable = false }

type verdict =
  | Completed  (** the run was not cut short *)
  | Wedged of { at : int; spun : (int * string) list }
      (** the watchdog (or step budget) cut the run at decision [at];
          [spun] is what each surviving unfinished thread was blocked on *)

type outcome = {
  verdict : verdict;
  violation : string option;  (** the first oracle to reject the run *)
  starved : (int * int) list;
      (** with the watchdog armed: [(tid, max decision gap between its
          consecutive op completions)], worst first *)
  crashed : int list;  (** tids crash-stopped by the fault plan *)
  done_ops : int array;  (** operations completed, per thread *)
  initial : int list;  (** the keys the prefill inserted, in order *)
  sim : Sim.t;  (** the finished simulation, for {!Ascy_mem.Sim.stats} *)
  makespan : int;  (** simulated cycles; [0] if the run was cut short *)
  size : int option;  (** the structure's final size, when [~size:true] *)
}

let action_str = function
  | Sim.A_start -> "not started"
  | Sim.A_work n -> Printf.sprintf "work(%d)" n
  | Sim.A_access (k, line) ->
      Printf.sprintf "%s@line%d"
        (match k with Sim.Read -> "read" | Sim.Write -> "write" | Sim.Rmw -> "rmw")
        line
  | Sim.A_kcas lines ->
      Printf.sprintf "kcas@lines[%s]"
        (String.concat "," (Array.to_list (Array.map string_of_int lines)))

(* Watchdog trip, raised from inside the scheduler callback. *)
exception Wedged_exn of { at : int; spun : (int * string) list }

let maker_of spec = (Ascylib.Registry.by_name spec.name).Ascylib.Registry.maker

(** [execute ?sched ?faults ?model ~oracles maker spec] builds the
    spec's structure, prefills it, runs every thread's script once and
    applies the armed [oracles].  Deterministic: identical inputs give
    the identical outcome, including description strings.

    Without [sched] the run is free-running (smallest clock first);
    with one, every decision goes through it.  The prefill inserts the
    keys of [prefill = (n, keys)] until [n] inserts succeed or [keys]
    ends (default: [spec.initial]), outside simulated time, into a
    structure created with [hint] (default [max 8 n]).  [seed],
    [trace_capacity] and an extra [observer] go to the {!Engine.config};
    every op is bracketed with {!Ascy_mem.Sim.Trace.op_start}/[op_end].
    [on_op ~tid op ~key ~ok ~t0 ~t1] gets each op's result and its start
    and end cycle ({!Ascy_mem.Sim.now}) on the simulated thread, before
    the closing bracket, so an observer still sees the op open (e.g.
    {!Ascy_analysis.Profile.set_outcome}).  [size] reads the final size
    back after a run that was not cut short.

    One decision counter, bumped at every scheduling decision, is the
    watchdog's progress mark and the step budget (both need [sched]).
    The history's logical clock is the simulator's decision count.
    [Sim.now] would not do for it: it is the executing thread's local
    clock, which lags arbitrarily for a descheduled thread under a
    controlled schedule; a thread reads the count only while scheduled,
    so op A's response strictly precedes op B's invocation iff A's last
    step ran before B's first.  [model] selects the coherence cost
    model: under a controlled scheduler the program's behavior is
    latency-independent, so verdicts are model-invariant. *)
let execute ?sched ?(faults = []) ?(model = Sim.default_model) ?(seed = 1) ?(trace_capacity = 0)
    ?observer ?prefill ?hint ?on_op ?(size = false) ~oracles (module A : Ascy_core.Set_intf.MAKER)
    spec =
  let module M = A (Sim.Mem) in
  let crash_tids =
    List.filter_map
      (fun fe -> match fe.Sim.fe_fault with Sim.F_crash -> Some fe.Sim.fe_tid | _ -> None)
      faults
  in
  let window = Option.value oracles.watchdog ~default:max_int in
  let budget = Option.value oracles.max_steps ~default:max_int in
  let progress = oracles.watchdog <> None in
  let decisions = ref 0 in
  let last_progress = ref 0 in
  let watched sched runnable =
    incr decisions;
    if !decisions - !last_progress > window then begin
      let spun = ref [] in
      for i = Sim.runnable_count runnable - 1 downto 0 do
        let tid = Sim.runnable_tid runnable i in
        if not (List.mem tid crash_tids) then
          spun := (tid, action_str (Sim.runnable_action runnable i)) :: !spun
      done;
      raise (Wedged_exn { at = !decisions; spun = !spun })
    end;
    if !decisions > budget then raise (Explorer.Step_limit !decisions);
    sched runnable
  in
  let cfg =
    {
      (Engine.default ~platform:spec.platform ~nthreads:spec.nthreads) with
      seed;
      trace_capacity;
      scheduler = Option.map watched sched;
      faults;
      races = oracles.races;
      observer;
      model;
    }
  in
  Engine.with_session cfg (fun session ->
      let sim = session.Engine.sim in
      (* build + prefill outside simulated time *)
      let n, keys =
        match prefill with
        | Some p -> p
        | None -> (List.length spec.initial, List.to_seq spec.initial)
      in
      let t = M.create ~hint:(Option.value hint ~default:(max 8 n)) () in
      let rec fill filled keys acc =
        if filled >= n then acc
        else
          match keys () with
          | Seq.Nil -> acc
          | Seq.Cons (k, rest) ->
              if M.insert t k (-1) then fill (filled + 1) rest (k :: acc) else fill filled rest acc
      in
      let initial = List.rev (fill 0 keys []) in
      Sim.warm sim;
      let h = History.create () in
      List.iter (History.add_initial h) initial;
      let net = Hashtbl.create 32 in
      let bump k d = Hashtbl.replace net k (d + try Hashtbl.find net k with Not_found -> 0) in
      let done_ops = Array.make spec.nthreads 0 in
      let last_done = Array.make spec.nthreads 0 in
      let max_gap = Array.make spec.nthreads 0 in
      let body tid () =
        Array.iter
          (fun (op, k) ->
            let code = Workload.op_code op in
            Sim.Trace.op_start code;
            let inv = Sim.decisions sim in
            let t0 = match on_op with Some _ -> Sim.now () | None -> 0 in
            let ok =
              match op with
              | Search -> M.search t k <> None
              | Insert -> M.insert t k tid
              | Remove -> M.remove t k
            in
            if ok && oracles.check then
              (match op with Insert -> bump k 1 | Remove -> bump k (-1) | Search -> ());
            Option.iter (fun f -> f ~tid op ~key:k ~ok ~t0 ~t1:(Sim.now ())) on_op;
            Sim.Trace.op_end code;
            if oracles.linearizable then
              History.record h ~tid ~kind:op ~key:k ~result:ok ~inv ~res:(Sim.decisions sim);
            M.op_done t;
            done_ops.(tid) <- done_ops.(tid) + 1;
            if progress then begin
              let gap = !decisions - last_done.(tid) in
              if gap > max_gap.(tid) then max_gap.(tid) <- gap;
              last_done.(tid) <- !decisions;
              last_progress := !decisions
            end)
          spec.script.(tid)
      in
      let makespan = ref 0 in
      let cut =
        match Engine.run session (Array.init spec.nthreads body) with
        | m ->
            makespan := m;
            None
        | exception Wedged_exn { at; spun } ->
            Some
              ( Wedged { at; spun },
                Some
                  (Printf.sprintf
                     "watchdog: no operation completed for %d decisions (tripped at %d); %s"
                     window at
                     (String.concat ", "
                        (List.map (fun (tid, a) -> Printf.sprintf "t%d blocked on %s" tid a) spun)))
              )
        | exception Explorer.Step_limit d ->
            Some
              ( Wedged { at = d; spun = [] },
                Some (Printf.sprintf "step limit %d exceeded (possible livelock or starvation)" d) )
        | exception Sim.Thread_failure (_, Sim.Thread_killed, _) ->
            (* fault-induced termination that resurfaced through wrapping
               test code: deliberate, not a bug *)
            Some (Completed, None)
        | exception Sim.Thread_failure (tid, e, _) ->
            Some
              (Completed, Some (Printf.sprintf "thread %d crashed: %s" tid (Printexc.to_string e)))
      in
      let crashed = Sim.crashed_tids sim in
      let conservation () =
        let inflight tid =
          if done_ops.(tid) < Array.length spec.script.(tid) then
            Some spec.script.(tid).(done_ops.(tid))
          else None
        in
        let bad =
          List.filter_map
            (fun k ->
              let wanted =
                (if List.mem k initial then 1 else 0)
                + try Hashtbl.find net k with Not_found -> 0
              in
              let lo = ref 0 and hi = ref 0 in
              List.iter
                (fun tid ->
                  match inflight tid with
                  | Some (Insert, k') when k' = k -> incr hi
                  | Some (Remove, k') when k' = k -> decr lo
                  | _ -> ())
                crashed;
              let got = if M.search t k <> None then 1 else 0 in
              if got < wanted + !lo || got > wanted + !hi then
                Some
                  (Printf.sprintf "key %d: net count %d (initial + successful updates)%s, membership %d"
                     k wanted
                     (if !lo = 0 && !hi = 0 then ""
                      else Printf.sprintf ", in-flight slack %+d..%+d" !lo !hi)
                     got)
              else None)
            (* every key the run can touch: initial and scripted *)
            (List.sort_uniq compare
               (initial @ List.concat_map (fun ops -> List.map snd (Array.to_list ops))
                            (Array.to_list spec.script)))
        in
        if bad = [] then None else Some ("set conservation violated: " ^ String.concat "; " bad)
      in
      let verdict, violation =
        match cut with
        | Some cut -> cut
        | None ->
            let validate () =
              match M.validate t with
              | Error msg -> Some (Printf.sprintf "structural invariant broken: %s" msg)
              | Ok () -> None
            in
            let linearize () =
              match History.check h with
              | Ok () -> None
              | Error v -> Some ("not linearizable: " ^ History.pp_violation v)
            in
            (* the armed post-run oracles, in order; the first to object wins *)
            ( Completed,
              List.find_map
                (fun (armed, oracle) -> if armed then oracle () else None)
                [
                  (oracles.races, fun () -> Engine.race_violation session);
                  (oracles.check, validate);
                  (oracles.check, conservation);
                  (oracles.linearizable, linearize);
                ] )
      in
      let starved =
        let l = ref [] in
        Array.iteri (fun tid g -> if g > 0 then l := (tid, g) :: !l) max_gap;
        List.sort (fun (_, a) (_, b) -> compare b a) !l
      in
      let size = if size && Option.is_none cut then Some (M.size t) else None in
      { verdict; violation; starved; crashed; done_ops; initial; sim; makespan = !makespan; size })

(** [run_once maker spec ~sched] is {!execute} with the SCT oracles
    armed ([~races:true] adds the race detector): [Some description]
    iff an oracle rejects the run. *)
let run_once ?faults ?(races = false) ?model maker spec ~sched =
  (execute ?faults ?model ~oracles:{ sct_oracles with races } maker spec ~sched).violation

(* A prefix replay under [oracles].  Callers arm a step budget, so
   minimizing or replaying a livelock counterexample cannot itself
   livelock. *)
let check_prefix ?faults ?model ~oracles maker spec prefix =
  (execute ?faults ?model ~oracles maker spec ~sched:(Scheduler.prefix_scheduler ~prefix ()))
    .violation

type finding = {
  violation : string;  (** oracle description from the original failing run *)
  schedule : int array;  (** full failing decision sequence *)
  minimized : int array;  (** shrunk prefix; still fails under replay *)
  min_violation : string;  (** oracle description under the minimized prefix *)
}

(** [explore ?mode ?bounds ?races ?model ?policy ?domains spec]
    systematically explores the spec's schedule space ([~races:true]
    additionally runs the happens-before race detector over every
    schedule).  On failure the counterexample is minimized; the report
    carries exploration statistics either way.  [model] selects the
    coherence model for every run (controlled schedules make verdicts,
    schedule counts and minimized counterexamples model-invariant;
    [flat] explores the same space about 10% faster than [mesi]).

    [policy] picks the exploration policy ({!Ascy_sct.Explorer.policy}:
    exhaustive DFS, uniform random, PCT, swarm) and [domains] how many
    worker domains partition the work ({!Ascy_sct.Par_explore}).  The
    default — exhaustive, one domain — is the byte-identical historical
    path.  Findings from every policy and domain count flow through the
    same minimize/replay pipeline, and for a fixed policy seed the
    finding is domain-count invariant. *)
let explore ?mode ?(bounds = Explorer.default_bounds) ?(races = false) ?model ?policy ?domains
    spec =
  let maker = maker_of spec in
  let report =
    Ascy_sct.Par_explore.dispatch ?mode ~bounds ?policy ?domains
      ~run:(fun ~sched -> run_once ~races ?model maker spec ~sched)
      ()
  in
  let finding =
    match report.Explorer.failure with
    | None -> None
    | Some f ->
        let oracles = { sct_oracles with races; max_steps = Some bounds.Explorer.max_steps } in
        let check = check_prefix ?model ~oracles maker spec in
        let minimized = Replay.minimize ~check f.Explorer.f_schedule in
        let min_violation =
          match check minimized with
          | Some d -> d
          | None -> assert false (* minimize guarantees the prefix fails *)
        in
        Some { violation = f.Explorer.f_desc; schedule = f.Explorer.f_schedule; minimized; min_violation }
  in
  (finding, report)

(** Structured summary of one exploration, for SCT/EXPLORE JSON rows.
    Carries the [incomplete] flag: {!Ascy_sct.Explorer} always computed
    completeness (a [max_schedules]-exhausted DFS is {e not} a proof of
    absence, and a randomized policy never proves anything), but
    summaries used to drop it — a clean verdict and an
    out-of-budget verdict printed identically. *)
let report_json ?(policy = Explorer.Exhaustive) ?(domains = 1) ?violation
    (report : Explorer.report) =
  J.Obj
    [
      ("policy", J.String (Explorer.policy_name policy));
      ("domains", J.Int domains);
      ("schedules", J.Int report.Explorer.schedules);
      ("steps", J.Int report.Explorer.steps);
      ("complete", J.Bool report.Explorer.complete);
      ("incomplete", J.Bool (not report.Explorer.complete));
      ("violation", match violation with Some v -> J.String v | None -> J.Null);
    ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let op_tag = function Search -> "s" | Insert -> "i" | Remove -> "r"

let op_of_tag = function
  | "s" -> Search
  | "i" -> Insert
  | "r" -> Remove
  | t -> raise (Replay.Bad_schedule ("unknown op tag: " ^ t))

let spec_meta spec =
  [
    ("algorithm", J.String spec.name);
    ("platform", J.String spec.platform.P.name);
    ("nthreads", J.Int spec.nthreads);
    ("initial", J.List (List.map (fun k -> J.Int k) spec.initial));
    ( "script",
      J.List
        (Array.to_list
           (Array.map
              (fun ops ->
                J.List
                  (Array.to_list
                     (Array.map (fun (op, k) -> J.List [ J.String (op_tag op); J.Int k ]) ops)))
              spec.script)) );
  ]

let spec_of_meta meta =
  let get k =
    match List.assoc_opt k meta with
    | Some v -> v
    | None -> raise (Replay.Bad_schedule ("missing meta field: " ^ k))
  in
  let name = match get "algorithm" with J.String s -> s | _ -> raise (Replay.Bad_schedule "algorithm") in
  let platform =
    match get "platform" with
    | J.String s -> P.by_name s
    | _ -> raise (Replay.Bad_schedule "platform")
  in
  let initial =
    match get "initial" with
    | J.List ks ->
        List.map (function J.Int k -> k | _ -> raise (Replay.Bad_schedule "initial")) ks
    | _ -> raise (Replay.Bad_schedule "initial")
  in
  let script =
    match get "script" with
    | J.List threads ->
        Array.of_list
          (List.map
             (function
               | J.List ops ->
                   Array.of_list
                     (List.map
                        (function
                          | J.List [ J.String tag; J.Int k ] -> (op_of_tag tag, k)
                          | _ -> raise (Replay.Bad_schedule "script op"))
                        ops)
               | _ -> raise (Replay.Bad_schedule "script thread"))
             threads)
    | _ -> raise (Replay.Bad_schedule "script")
  in
  let nthreads = Array.length script in
  (match get "nthreads" with
  | J.Int n when n = nthreads -> ()
  | _ -> raise (Replay.Bad_schedule "nthreads does not match script"));
  { name; platform; nthreads; initial; script }

(** Write a self-contained counterexample file: the schedule [prefix]
    and fault plan, everything needed to rebuild the run
    ({!spec_meta}), the expected [violation], the armed [oracles] and
    the [model], so {!replay_file} re-arms exactly what found it.  An
    SCT finding records its race flag; a chaos finding (watchdog armed)
    records its watchdog window and validation flag.  The model field is
    omitted — and the file byte-identical to the pre-model format — when
    it is the default; so is the fault list when empty (schema v1). *)
let save_finding ~path ?(faults = []) ?(model = Sim.default_model) ~oracles spec ~prefix
    ~violation =
  let armed =
    match oracles.watchdog with
    | None -> [ ("races", J.Bool oracles.races) ]
    | Some w -> [ ("watchdog", J.Int w); ("oracles", J.Bool oracles.check) ]
  in
  Replay.save ~path ~faults ~prefix
    ~meta:(spec_meta spec @ (("violation", J.String violation) :: armed) @ Engine.model_meta model)
    ()

type replay = {
  spec : spec;
  faults : Sim.fault_event list;
  model : Sim.model;
  expected : string option;  (** the violation stored in the file *)
  results : string option list;  (** each replay's violation *)
}

(** Load a counterexample file (SCT schema v1 or chaos schema v2) and
    replay it [times] times under the oracles and model it records; the
    results are all identical when the reproduction is deterministic.
    SCT replays carry the default step budget, so a livelock
    counterexample cannot livelock its replay. *)
let replay_file ?(times = 2) path =
  let prefix, faults, meta = Replay.load path in
  let spec = spec_of_meta meta in
  let field k = List.assoc_opt k meta in
  let oracles =
    match field "watchdog" with
    | Some (J.Int w) -> chaos_oracles ~watchdog:w ~check:(field "oracles" = Some (J.Bool true))
    | _ ->
        {
          sct_oracles with
          races = field "races" = Some (J.Bool true);
          max_steps = Some Explorer.default_bounds.Explorer.max_steps;
        }
  in
  let model = Engine.model_of_meta meta in
  let expected = match field "violation" with Some (J.String s) -> Some s | _ -> None in
  let results =
    List.init times (fun _ -> check_prefix ~faults ~model ~oracles (maker_of spec) spec prefix)
  in
  { spec; faults; model; expected; results }
