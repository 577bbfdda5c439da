(* The kv-sim workload: Service_run.run under MESI on two scenarios,
   sized between the smoke and full presets.

   - flash-crowd on the legacy path: 8 shards, 4 clients, hot-key skew
     whose window jumps mid-run;
   - rolling-restart with the resilient layer and a drop fault plan:
     every primary crash-stops, standbys take over, dropped sends are
     retried and deduplicated.

   These are long single executions, so per-run setup is spread over
   the run and host time goes to per-access coherence modelling, effect
   dispatch, the service queues and the resilience path.  Clients are
   not paced: sojourn is measured at saturating, queue-bounded load.

   Both scenarios re-execute with the same seed until the time is
   spent; every execution must reproduce the first one's simulated
   output exactly, pass the service oracles (validation, conservation,
   delivery), and shed or abandon no request. *)

open Common
module Sim = Ascy_mem.Sim
module Sc = Ascy_service.Scenario
module SR = Ascy_service.Service_run
module R = Ascy_service.Resilience
module H = Ascy_util.Histogram
module J = Ascy_util.Json
module Engine = Ascy_harness.Engine

let mesi = Sim.model_of_name "mesi"

type kscenario = {
  sc : Sc.t;
  resil : R.config;
  drops : int;  (** Msg_drop faults spread over client sends; 0 = no fault plan *)
}

(* One drop per client: enough to force retries and takeover races, few
   enough that a request never exhausts its retry budget. *)
let scenarios ~tiny =
  let fc = Sc.flash_crowd (if tiny then Sc.Smoke else Sc.Full) in
  let rr = Sc.rolling_restart Sc.Smoke in
  if tiny then
    [
      { sc = { fc with Sc.sessions = 16 }; resil = R.disabled; drops = 0 };
      { sc = { rr with Sc.sessions = 16 }; resil = R.default; drops = rr.Sc.nclients };
    ]
  else
    [
      { sc = { fc with Sc.sessions = 500; key_range = 65_536; initial = 32_768 }; resil = R.disabled; drops = 0 };
      { sc = { rr with Sc.sessions = 256 }; resil = R.default; drops = rr.Sc.nclients };
    ]

(* The per-execution set-up of [Service_run.run]: a fresh MESI session
   with the scenario's cluster built and prefilled outside simulated
   time.  One [setup_s] sample is [setup_reps] set-ups of both scenarios
   (about 0.3 s). *)
let setup_reps = 2

let setup_once ctx k =
  let (module A : Ascy_core.Set_intf.MAKER) = (Ascylib.Registry.by_name k.sc.Sc.algo).Ascylib.Registry.maker in
  let module C = Ascy_service.Cluster.Make (Sim.Mem) (A) in
  let cfg =
    { (Engine.default ~platform:Ascy_platform.Platform.xeon20 ~nthreads:(Sc.nthreads k.sc)) with
      Engine.seed = ctx.seed;
      model = mesi }
  in
  Engine.with_session cfg (fun session ->
      let t = C.create ~resil:k.resil k.sc in
      C.prefill t ~seed:ctx.seed;
      Sim.warm session.Engine.sim;
      ignore (Sys.opaque_identity t))

let exec ctx k =
  let fault_plan =
    if k.drops = 0 then None
    else Some (fun ~decisions -> SR.Fault_matrix.drop k.sc ~decisions ~n:k.drops)
  in
  Span.with_span ("Service_run.run " ^ k.sc.Sc.name) (fun () ->
      SR.run ~seed:ctx.seed ~model:mesi ~check:true ~resil:k.resil ?fault_plan k.sc)

(* every correctness check of one execution *)
let check_run r (res : SR.result) =
  let name = res.SR.scenario.Sc.name in
  let m = res.SR.rmetrics in
  check r res.SR.checked (name ^ ": oracles did not run");
  (match res.SR.violation with
  | None -> ()
  | Some v -> check r false (name ^ ": oracle violation: " ^ v));
  check r (res.SR.ops_applied >= res.SR.ops_requested)
    (Printf.sprintf "%s: %d of %d requests applied" name res.SR.ops_applied res.SR.ops_requested);
  if res.SR.resil.R.enabled then begin
    check r (m.R.m_sheds = 0) (Printf.sprintf "%s: %d requests shed" name m.R.m_sheds);
    check r (m.R.m_gave_up = 0) (Printf.sprintf "%s: %d requests given up" name m.R.m_gave_up);
    check r (m.R.m_acked = res.SR.ops_requested)
      (Printf.sprintf "%s: %d of %d requests acknowledged" name m.R.m_acked res.SR.ops_requested)
  end

let run ctx r =
  let ks = scenarios ~tiny:ctx.tiny in
  let digest = digest () in
  (* setup: the per-execution set-up of both scenarios, repeated *)
  let reps = if ctx.tiny then 1 else setup_reps in
  let setup_s =
    setup_median (fun () ->
        Span.with_span "setup" (fun () -> List.iter (fun k -> for _ = 1 to reps do setup_once ctx k done) ks))
  in
  if ctx.trace then begin
    Sct.model_create ctx r;
    Sct.per_access ctx r
  end;
  let rates = Hashtbl.create 4 in
  let first = Hashtbl.create 4 in
  let host = ref 0.0 and accesses = ref 0 in
  let t_start = now () in
  let iters = ref 0 in
  while !iters < 3 || now () -. t_start < ctx.seconds do
    List.iter
      (fun k ->
        let res, dt = time (fun () -> exec ctx k) in
        let name = k.sc.Sc.name in
        check_run r res;
        r.attempted <- r.attempted + res.SR.ops_requested;
        record digest r ~unit:name (J.to_string (Ascy_service.Service_results.of_run res));
        if not (Hashtbl.mem first name) then Hashtbl.replace first name res;
        let acc = res.SR.stats.Sim.accesses in
        host := !host +. dt;
        accesses := !accesses + acc;
        Hashtbl.replace rates name
          ((float_of_int acc /. dt) :: Option.value ~default:[] (Hashtbl.find_opt rates name)))
      ks;
    incr iters
  done;
  let names = List.map (fun k -> k.sc.Sc.name) ks in
  let rate n = rate_of (Hashtbl.find rates n) in
  set r "setup_s" setup_s;
  set r "ops_per_s" (geomean (List.map rate names));
  (* simulated figures: one execution of each scenario (all are identical) *)
  let results = List.map (Hashtbl.find first) names in
  let sum f = List.fold_left (fun a res -> a + f res) 0 results in
  let fsum f = float_of_int (sum f) in
  let sojourn = List.fold_left (fun acc res -> H.merge acc res.SR.sojourn) (H.create ()) results in
  let service = List.fold_left (fun acc res -> H.merge acc res.SR.service) (H.create ()) results in
  let requests = fsum (fun res -> res.SR.ops_requested) in
  let sim_s = List.fold_left (fun a res -> a +. res.SR.seconds) 0.0 results in
  let batches = fsum (fun res -> Array.fold_left (fun a s -> a + s.SR.ss_batches) 0 res.SR.shard_stats) in
  let resil = List.filter (fun res -> res.SR.resil.R.enabled) results in
  let rsum f = float_of_int (List.fold_left (fun a res -> a + f res.SR.rmetrics) 0 resil) in
  let rreq = float_of_int (List.fold_left (fun a res -> a + res.SR.ops_requested) 0 resil) in
  let stat f = fsum (fun res -> f res.SR.stats) in
  set r "service.batch_mean" (ratio (fsum (fun res -> res.SR.ops_applied)) batches);
  set r "service.enq_waits_per_req" (ratio (fsum (fun res -> res.SR.enq_waits)) requests);
  (* both histograms hold one sample per applied request, so the mean
     queue wait is the difference of the means *)
  set r "service.queue_wait_mean_ns" (H.mean sojourn -. H.mean service);
  set r "service.service_p99_ns" (H.percentile service 99.0);
  set r "service.takeovers" (fsum (fun res -> res.SR.takeovers));
  set r "resil.retries_per_req" (ratio (rsum (fun m -> m.R.m_retries)) rreq);
  set r "resil.hedges_per_req" (ratio (rsum (fun m -> m.R.m_hedges)) rreq);
  set r "resil.breaker_trips" (rsum (fun m -> m.R.m_breaker_trips));
  set r "resil.dup_suppressed" (rsum (fun m -> m.R.m_dup_suppressed));
  set r "resil.acked_frac" (ratio (rsum (fun m -> m.R.m_acked)) rreq);
  set r "kv.sim_mops" (ratio (fsum (fun res -> res.SR.ops_applied)) sim_s /. 1e6);
  set r "kv.sojourn_p50_ns" (H.percentile sojourn 50.0);
  set r "kv.sojourn_p99_ns" (H.percentile sojourn 99.0);
  set r "kv.sojourn_samples" (float_of_int (H.count sojourn));
  set r "sim.accesses" (stat (fun s -> s.Sim.accesses));
  set r "sim.c2c_remote" (stat (fun s -> s.Sim.transfers_remote));
  set r "sim.atomics" (stat (fun s -> s.Sim.atomics));
  set r "sim.accesses_per_s" (ratio (float_of_int !accesses) !host);
  note r "scenarios"
    (J.List
       (List.map
          (fun k ->
            J.Obj
              [
                ("scenario", Sc.to_json k.sc);
                ("resilient", J.Bool k.resil.R.enabled);
                ("drop_faults", J.Int k.drops);
              ])
          ks));
  note r "executions_per_scenario" (J.Int !iters);
  note r "sim_accesses_per_s"
    (J.Obj
       [
         ("value", J.Float (geomean (List.map rate names)));
         ("unit", J.String "1/s");
         ("aggregate", J.String "geometric mean over scenarios of the upper-quartile execution rate");
         ("per_scenario", J.Obj (List.map (fun n -> (n, J.Float (rate n))) names));
       ]);
  note r "kv_sim_mops" (J.Obj [ ("value", J.Float (ratio (fsum (fun res -> res.SR.ops_applied)) sim_s /. 1e6)); ("unit", J.String "Mops/s") ]);
  note r "kv_sojourn_p50_ns"
    (J.Obj [ ("value", J.Float (H.percentile sojourn 50.0)); ("unit", J.String "ns"); ("samples", J.Int (H.count sojourn)) ]);
  note r "kv_sojourn_p99_ns"
    (J.Obj [ ("value", J.Float (H.percentile sojourn 99.0)); ("unit", J.String "ns"); ("samples", J.Int (H.count sojourn)) ]);
  note r "digest" (J.String (digest_hex digest));
  note r "model" (J.String "mesi")
