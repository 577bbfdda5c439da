(** Measure one CSDS workload inside the multicore simulator and collect
    the paper's four scalability dimensions: throughput, average latency,
    latency distribution, and power (plus the memory-event counters used
    by Figures 3 and 7).  The run itself is one free-running
    {!Sct_run.execute}; this module turns its per-op reports and the
    finished simulation into a {!result}. *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module H = Ascy_util.Histogram

type latency_class = {
  search_hit : H.t;
  search_miss : H.t;
  insert_ok : H.t;
  insert_fail : H.t;
  remove_ok : H.t;
  remove_fail : H.t;
}

let fresh_latencies () =
  {
    search_hit = H.create ();
    search_miss = H.create ();
    insert_ok = H.create ();
    insert_fail = H.create ();
    remove_ok = H.create ();
    remove_fail = H.create ();
  }

type result = {
  algorithm : string;
  platform : string;
  nthreads : int;
  seed : int;
  ops_per_thread : int;
  workload : Workload.t;
  ops : int;
  updates_attempted : int;
  updates_successful : int;
  seconds : float;
  throughput_mops : float;
  stats : Sim.run_stats;
  thread_stats : Sim.thread_stats array;
  latencies : latency_class;
  final_size : int;
}

(** [run ?seed ?latency ?history ?trace_capacity ?model (module A)
    ~platform ~nthreads ~workload ~ops_per_thread] executes the workload
    deterministically on the simulated machine and returns every metric
    of one experiment point.  It is one free-running {!Sct_run.execute}
    of the script {!Sct_run.script_of_workload} draws, prefilled from
    its own key stream.  [latency = true] records a per-operation
    latency sample (ns).  [history] records every operation's
    invocation/response cycle stamps and result for linearizability
    checking ({!History.check}); prefilled keys are registered as the
    history's initial state.  [trace_capacity] enables the simulator's
    per-thread trace rings ({!Ascy_mem.Sim.Trace}).  [model] selects the
    coherence cost model (default MESI; measurements under [flat] are
    meaningless by construction — see {!Ascy_mem.Coh_flat}). *)
let run ?(seed = 1) ?(latency = false) ?history ?(trace_capacity = 0)
    ?(model = Sim.default_model) (module A : Ascy_core.Set_intf.MAKER) ~platform ~nthreads
    ~(workload : Workload.t) ~ops_per_thread () =
  let module M = A (Sim.Mem) in
  let lat = fresh_latencies () in
  let upd_att = ref 0 and upd_ok = ref 0 in
  let on_op ~tid op ~key ~ok ~t0 ~t1 =
    if op <> Workload.Search then begin
      incr upd_att;
      if ok then incr upd_ok
    end;
    if latency then begin
      let h =
        match (op, ok) with
        | Workload.Search, true -> lat.search_hit
        | Workload.Search, false -> lat.search_miss
        | Workload.Insert, true -> lat.insert_ok
        | Workload.Insert, false -> lat.insert_fail
        | Workload.Remove, true -> lat.remove_ok
        | Workload.Remove, false -> lat.remove_fail
      in
      H.add h (float_of_int (t1 - t0) /. platform.P.ghz)
    end;
    Option.iter (fun h -> History.record h ~tid ~kind:op ~key ~result:ok ~inv:t0 ~res:t1) history
  in
  let rng0 = Ascy_util.Xorshift.create ((seed * 31) + 7) in
  let spec =
    Sct_run.mk_spec ~platform ~name:M.name ~initial:[]
      ~script:(Sct_run.script_of_workload ~workload ~nthreads ~ops_per_thread ~seed)
      ()
  in
  let out =
    Sct_run.execute ~model ~seed ~trace_capacity
      ~prefill:(workload.Workload.initial, Seq.forever (fun () -> Workload.pick_key workload rng0))
      ~hint:workload.Workload.initial ~on_op ~size:true ~oracles:Sct_run.no_oracles (module A) spec
  in
  Option.iter failwith out.Sct_run.violation;
  Option.iter (fun h -> List.iter (History.add_initial h) out.Sct_run.initial) history;
  let stats = Sim.stats out.Sct_run.sim ~makespan:out.Sct_run.makespan in
  let ops = nthreads * ops_per_thread in
  {
    algorithm = M.name;
    platform = platform.P.name;
    nthreads;
    seed;
    ops_per_thread;
    workload;
    ops;
    updates_attempted = !upd_att;
    updates_successful = !upd_ok;
    seconds = stats.Sim.seconds;
    throughput_mops =
      (if stats.Sim.seconds > 0.0 then float_of_int ops /. stats.Sim.seconds /. 1e6 else 0.0);
    stats;
    thread_stats = Sim.per_thread_stats out.Sct_run.sim;
    latencies = lat;
    final_size = Option.get out.Sct_run.size;
  }

(** Misses per operation — Figure 3's metric. *)
let misses_per_op r = float_of_int (Sim.misses r.stats) /. float_of_int (max r.ops 1)

(** Atomic (RMW) operations per successful update — Figure 7's metric. *)
let atomics_per_update r =
  float_of_int r.stats.Sim.atomics /. float_of_int (max r.updates_successful 1)

(** Stores (plain + RMW) per successful update — the paper's
    stores-per-operation metric, from the always-on counters. *)
let stores_per_update r =
  float_of_int (r.stats.Sim.stores + r.stats.Sim.atomics)
  /. float_of_int (max r.updates_successful 1)

(** Extra parses beyond one per update, as a percentage — §5's
    fraser vs fraser-opt numbers. *)
let extra_parse_pct r =
  let parses = r.stats.Sim.events.(Ascy_mem.Event.parse) in
  if parses = 0 then 0.0
  else
    100.0
    *. float_of_int (parses - r.updates_attempted)
    /. float_of_int (max r.updates_attempted 1)
