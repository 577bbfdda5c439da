(* The sct-mesi workload: bounded DPOR (exhaustive policy, one domain)
   over the 3-thread adversarial script of bin/ascy_perf, under the
   MESI coherence model, for five algorithms.  Every schedule
   re-executes from a fresh simulation, so per-run model setup, DPOR
   bookkeeping and the oracles dominate host time.

   The script is fixed, so the workload ignores the seed: exploring the
   same space every time is what lets the schedule and step counts be
   pinned.  After one full pass, explorations repeat round-robin while
   the remaining time allows; each repetition must reproduce its pins
   and its simulated statistics exactly. *)

open Common
module Sim = Ascy_mem.Sim
module Explorer = Ascy_sct.Explorer
module Sct_run = Ascy_harness.Sct_run
module Engine = Ascy_harness.Engine
module History = Ascy_harness.History
module J = Ascy_util.Json

let mesi = Sim.model_of_name "mesi"

let spec name =
  Sct_run.mk_spec ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Sct_run.Insert, 1); (Sct_run.Remove, 2); (Sct_run.Insert, 3) |];
        [| (Sct_run.Insert, 1); (Sct_run.Insert, 2); (Sct_run.Remove, 3) |];
        [| (Sct_run.Remove, 1); (Sct_run.Insert, 2) |];
      |]
    ()

(** Schedules and steps of each clean, complete exploration, as the
    code produced them when the benchmark was defined. *)
let pins =
  [
    ("ll-lazy", (2099, 609_932));
    ("ht-clht-lb", (850, 204_913));
    ("ht-clht-lf", (235, 18_174));
    ("ll-pathcas", (50, 4_206));
    ("bst-pathcas", (52, 7_065));
  ]

let tiny_algos = [ "ll-pathcas"; "bst-pathcas" ]

(* always resume the lowest runnable tid: a valid controlled schedule *)
let first_runnable (r : Sim.runnable) = r.Sim.r_tids.(0)

let maker name = (Ascylib.Registry.by_name name).Ascylib.Registry.maker

(* The per-schedule set-up of [Sct_run.run_once]: a fresh MESI
   session with the script's structure built and prefilled outside
   simulated time.  One [setup_s] sample is [setup_reps] set-ups of
   every algorithm (about 0.3 s). *)
let setup_reps = 12

let setup_once name =
  let (module A : Ascy_core.Set_intf.MAKER) = maker name in
  let module M = A (Sim.Mem) in
  let sp = spec name in
  let cfg =
    { (Engine.default ~platform:sp.Sct_run.platform ~nthreads:sp.Sct_run.nthreads) with Engine.model = mesi }
  in
  Engine.with_session cfg (fun session ->
      let t = M.create ~hint:(max 8 (List.length sp.Sct_run.initial)) () in
      List.iter (fun k -> ignore (M.insert t k (-1))) sp.Sct_run.initial;
      Sim.warm session.Engine.sim;
      ignore (Sys.opaque_identity t))

(* ------------------------------------------------------------------ *)
(* One exploration                                                     *)
(* ------------------------------------------------------------------ *)

type totals = {
  mutable run_s : float;  (** in the run callback, outside the scheduler (traced runs) *)
  mutable explore_s : float;
  mutable schedules : int;
  mutable steps : int;
  mutable accesses : int;
  mutable decisions : int;
  mutable c2c_remote : int;
  mutable atomics : int;
}

let fresh_totals () =
  {
    run_s = 0.0;
    explore_s = 0.0;
    schedules = 0;
    steps = 0;
    accesses = 0;
    decisions = 0;
    c2c_remote = 0;
    atomics = 0;
  }

(* Schedules per rate sample: about 70 ms of exploration *)
let chunk = 10

(* Explore [name]'s space; returns its schedule and step counts, its
   wall time and its rate samples: schedules per second over each run
   of [chunk] consecutive schedules, explorer time between them
   included.  The explored order is fixed, so every run of the
   benchmark samples the same chunks.  The run callback wraps the
   explorer's scheduler to capture the simulation that
   [Sct_run.run_once] creates, so its statistics can be read once the
   run returns. *)
let explore ctx r tot digest name =
  let mk = maker name and sp = spec name in
  let stats = Array.make 8 0 in
  let started = ref 0 and mark = ref 0.0 and samples = ref [] in
  let run ~sched =
    if !started > 0 && !started mod chunk = 0 then begin
      let t = now () in
      samples := (float_of_int chunk /. (t -. !mark)) :: !samples;
      mark := t
    end;
    incr started;
    let cap = ref None in
    let t_sched = ref 0.0 in
    let sched' =
      if ctx.trace then (fun rn ->
        if Option.is_none !cap then cap := !(Sim.current ());
        let t0 = now () in
        let d = sched rn in
        t_sched := !t_sched +. (now () -. t0);
        d)
      else fun rn ->
        if Option.is_none !cap then cap := !(Sim.current ());
        sched rn
    in
    let verdict, dt =
      time (fun () -> Span.with_span "run_once" (fun () -> Sct_run.run_once ~model:mesi mk sp ~sched:sched'))
    in
    tot.run_s <- tot.run_s +. dt -. !t_sched;
    (match !cap with
    | Some sim ->
        let st = Sim.stats sim ~makespan:0 in
        let add i v = stats.(i) <- stats.(i) + v in
        add 0 st.Sim.accesses;
        add 1 (Sim.decisions sim);
        add 2 st.Sim.transfers_remote;
        add 3 st.Sim.atomics;
        add 4 st.Sim.transfers_local;
        add 5 st.Sim.hits_l1;
        add 6 st.Sim.stores;
        add 7 st.Sim.misses_mem
    | None -> ());
    verdict
  in
  mark := now ();
  let report, dt =
    time (fun () ->
        Span.with_span ("explore " ^ name) (fun () ->
            Ascy_sct.Par_explore.dispatch ~mode:Explorer.Dpor ~domains:1 ~run ()))
  in
  let sch = report.Explorer.schedules and steps = report.Explorer.steps in
  tot.explore_s <- tot.explore_s +. dt;
  tot.schedules <- tot.schedules + sch;
  tot.steps <- tot.steps + steps;
  tot.accesses <- tot.accesses + stats.(0);
  tot.decisions <- tot.decisions + stats.(1);
  tot.c2c_remote <- tot.c2c_remote + stats.(2);
  tot.atomics <- tot.atomics + stats.(3);
  r.attempted <- r.attempted + sch;
  let pin_s, pin_st = List.assoc name pins in
  let pin_s = if ctx.break_pin then pin_s + 1 else pin_s in
  (match report.Explorer.failure with
  | None -> ()
  | Some f -> check r false (Printf.sprintf "%s: violation: %s" name f.Explorer.f_desc));
  check r report.Explorer.complete (name ^ ": exploration incomplete");
  check r (sch = pin_s && steps = pin_st)
    (Printf.sprintf "%s: %d schedules / %d steps, pinned %d / %d" name sch steps pin_s pin_st);
  record digest r ~unit:name
    (Printf.sprintf "schedules=%d steps=%d complete=%b clean=%b stats=%s" sch steps
       report.Explorer.complete
       (Option.is_none report.Explorer.failure)
       (String.concat "," (Array.to_list (Array.map string_of_int stats))));
  (sch, steps, dt, if !samples = [] then [ float_of_int sch /. dt ] else !samples)

(* ------------------------------------------------------------------ *)
(* Layer micro-benchmarks (traced runs; kv-sim uses the first two)     *)
(* ------------------------------------------------------------------ *)

(* microseconds per [Sim.create], per model: median of five batches,
   each long enough for the host clock (flat's create is sub-microsecond) *)
let model_create ctx r =
  Span.with_span "model.create" (fun () ->
      List.iter
        (fun (m, batch) ->
          let model = Sim.model_of_name m in
          let batch = if ctx.tiny then 1 + (batch / 100) else batch in
          let us =
            median
              (List.init 5 (fun _ ->
                   let (), dt =
                     time (fun () ->
                         for _ = 1 to batch do
                           ignore
                             (Sys.opaque_identity
                                (Sim.create ~model ~platform:Ascy_platform.Platform.xeon20 ~nthreads:3 ()))
                         done)
                   in
                   dt *. 1e6 /. float_of_int batch))
          in
          set r (Printf.sprintf "model.%s.create_us" m) us)
        [ ("mesi", 5); ("moesi", 5); ("flat", 20_000) ])

(* One fixed execution (round-robin controlled schedule, so both models
   run the same interleaving) timed under flat and under MESI: flat gives
   effect dispatch per access, the difference the MESI model's own cost. *)
let per_access ctx r =
  Span.with_span "sim.per_access" (fun () ->
      let ops = if ctx.tiny then 200 else 3_000 in
      let wl = Ascy_harness.Workload.make ~initial:512 ~update_pct:20 () in
      let exec model =
        let (module A : Ascy_core.Set_intf.MAKER) = maker "ht-clht-lb" in
        let module M = A (Sim.Mem) in
        let step = ref 0 in
        let sched (rn : Sim.runnable) =
          incr step;
          rn.Sim.r_tids.(!step mod rn.Sim.rn)
        in
        let cfg =
          { (Engine.default ~platform:Ascy_platform.Platform.xeon20 ~nthreads:3) with
            Engine.model; scheduler = Some sched }
        in
        Engine.with_session cfg (fun session ->
            let t = M.create ~hint:512 () in
            let rng = Ascy_util.Xorshift.create 7 in
            for _ = 1 to 512 do
              ignore (M.insert t (Ascy_harness.Workload.pick_key wl rng) 0)
            done;
            Sim.warm session.Engine.sim;
            let body tid () =
              let rng = Ascy_util.Xorshift.create (100 + tid) in
              for _ = 1 to ops do
                let k = Ascy_harness.Workload.pick_key wl rng in
                match Ascy_harness.Workload.pick_op wl rng with
                | Ascy_harness.Workload.Search -> ignore (M.search t k)
                | Ascy_harness.Workload.Insert -> ignore (M.insert t k tid)
                | Ascy_harness.Workload.Remove -> ignore (M.remove t k)
              done
            in
            let makespan, dt = time (fun () -> Engine.run session (Array.init 3 body)) in
            ((Sim.stats session.Engine.sim ~makespan).Sim.accesses, dt))
      in
      let reps model = List.init 3 (fun _ -> exec (Sim.model_of_name model)) in
      let flat = reps "flat" and mesi_runs = reps "mesi" in
      let acc = fst (List.hd flat) in
      check r
        (List.for_all (fun (a, _) -> a = acc) (flat @ mesi_runs))
        "sim: flat and mesi executions of one controlled schedule differ in accesses";
      let t l = median (List.map snd l) in
      let per = float_of_int acc in
      set r "sim.flat_ns_per_access" (t flat *. 1e9 /. per);
      set r "model.mesi.ns_per_access" ((t mesi_runs -. t flat) *. 1e9 /. per))

(* History.check on a history recorded from one free-running simulated
   session of the script's shape (3 threads, few keys, many ops). *)
let history_check ctx r =
  Span.with_span "oracle.history" (fun () ->
      let (module A : Ascy_core.Set_intf.MAKER) = maker "ll-lazy" in
      let module M = A (Sim.Mem) in
      let h = History.create () in
      let cfg = Engine.default ~platform:Ascy_platform.Platform.xeon20 ~nthreads:3 in
      Engine.with_session cfg (fun session ->
          let t = M.create () in
          List.iter (fun k -> ignore (M.insert t k 0); History.add_initial h k) [ 2; 4 ];
          let body tid () =
            let rng = Ascy_util.Xorshift.create (ctx.seed + tid) in
            for _ = 1 to 12 do
              let k = 1 + Ascy_util.Xorshift.below rng 6 in
              let inv = Sim.now () in
              let kind, ok =
                match Ascy_util.Xorshift.below rng 3 with
                | 0 -> (History.Search, M.search t k <> None)
                | 1 -> (History.Insert, M.insert t k tid)
                | _ -> (History.Remove, M.remove t k)
              in
              History.record h ~tid ~kind ~key:k ~result:ok ~inv ~res:(Sim.now ())
            done
          in
          ignore (Engine.run session (Array.init 3 body)));
      let n = if ctx.tiny then 10 else 300 in
      let ok = ref true in
      let (), dt = time (fun () -> for _ = 1 to n do if History.check h <> Ok () then ok := false done) in
      check r !ok "oracle: recorded free-running history is not linearizable";
      set r "oracle.history_check_us" (dt *. 1e6 /. float_of_int n))

(* Sct_run.run_once on one fixed schedule, race detector off and on. *)
let race_overhead ctx r =
  Span.with_span "oracle.race" (fun () ->
      let mk = maker "ll-lazy" and sp = spec "ll-lazy" in
      let n = if ctx.tiny then 3 else 30 in
      let off = ref [] and on = ref [] in
      for _ = 1 to n do
        let once races =
          let v, dt = time (fun () -> Sct_run.run_once ~races ~model:mesi mk sp ~sched:first_runnable) in
          check r (v = None) "oracle: fixed schedule reported a violation";
          dt
        in
        off := once false :: !off;
        on := once true :: !on
      done;
      set r "oracle.race_overhead_pct" ((median !on /. median !off -. 1.0) *. 100.0))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ctx r =
  let algos = if ctx.tiny then tiny_algos else sct_algos in
  let digest = digest () in
  if ctx.trace then begin
    model_create ctx r;
    per_access ctx r;
    history_check ctx r;
    race_overhead ctx r
  end;
  (* setup: the per-schedule set-up of every algorithm, repeated *)
  let reps = if ctx.tiny then 1 else setup_reps in
  let setup_s =
    setup_median (fun () ->
        Span.with_span "setup" (fun () ->
            List.iter (fun name -> for _ = 1 to reps do setup_once name done) algos))
  in
  let tot = fresh_totals () in
  let rates = Hashtbl.create 8 in
  let last = Hashtbl.create 8 in
  let counts = Hashtbl.create 8 in
  let one name =
    let sch, steps, dt, samples = explore ctx r tot digest name in
    Hashtbl.replace last name dt;
    Hashtbl.replace counts name (sch, steps);
    Hashtbl.replace rates name (samples @ Option.value ~default:[] (Hashtbl.find_opt rates name))
  in
  let t_start = now () in
  List.iter one algos;
  (* round-robin over the explorations that still fit in the budget *)
  let rec more = function
    | [] -> ()
    | name :: rest ->
        if now () -. t_start +. Hashtbl.find last name <= ctx.seconds then begin
          one name;
          more (rest @ [ name ])
        end
        else more rest
  in
  more algos;
  let rate name = rate_of (Hashtbl.find rates name) in
  set r "setup_s" setup_s;
  set r "ops_per_s" (geomean (List.map rate algos));
  let host = tot.explore_s in
  let explorer_s = host -. tot.run_s in
  set r "sct.run_s" tot.run_s;
  set r "sct.explorer_s" explorer_s;
  set r "sct.ns_per_decision" (ratio explorer_s (float_of_int tot.steps) *. 1e9);
  List.iter
    (fun name ->
      let s, st = Option.value ~default:(0, 0) (Hashtbl.find_opt counts name) in
      set r ("sct." ^ name ^ ".schedules") (float_of_int s);
      set r ("sct." ^ name ^ ".steps") (float_of_int st))
    sct_algos;
  set r "sim.accesses" (float_of_int tot.accesses);
  set r "sim.decisions" (float_of_int tot.decisions);
  set r "sim.c2c_remote" (float_of_int tot.c2c_remote);
  set r "sim.atomics" (float_of_int tot.atomics);
  set r "sim.accesses_per_s" (ratio (float_of_int tot.accesses) host);
  note r "sct_schedules_per_s"
    (J.Obj
       [
         ("value", J.Float (geomean (List.map rate algos)));
         ("unit", J.String "1/s");
         ("aggregate", J.String "geometric mean over algorithms of the upper-quartile rate of 10-schedule chunks");
         ( "rate_samples",
           J.Obj (List.map (fun n -> (n, J.Int (List.length (Hashtbl.find rates n)))) algos) );
         ("per_algorithm", J.Obj (List.map (fun n -> (n, J.Float (rate n))) algos));
       ]);
  note r "sim_accesses_per_s"
    (J.Obj [ ("value", J.Float (ratio (float_of_int tot.accesses) host)); ("unit", J.String "1/s") ]);
  note r "digest" (J.String (digest_hex digest));
  note r "model" (J.String "mesi")
