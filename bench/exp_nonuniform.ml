(* §4's brief remark: "We briefly experiment with non-uniform workloads
   ... such as those with update spikes and continuously increasing
   structure size.  We notice that our observations are valid in these
   scenarios as well."

   Two scenarios on the hash tables (the family where skew bites
   hardest):
   - skewed popularity: 80% of operations on a small hot set;
   - growth: insert-heavy workload that doubles the structure size.
   Check: the ASCY ordering (async >= clht >= pugh >= tbb/coupling) is
   preserved. *)

module W = Ascy_harness.Workload
module Sct = Ascy_harness.Sct_run
module X = Ascy_util.Xorshift
module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module Rep = Ascy_harness.Report
module Res = Ascy_harness.Results
module J = Ascy_util.Json

let algos = [ "ht-async"; "ht-clht-lb"; "ht-pugh"; "ht-java"; "ht-tbb" ]

(* One free-running execution of [script tid] per thread over a
   structure prefilled with [initial] uniform keys: throughput (Mops/s)
   and final size. *)
let run_custom name ~nthreads ~initial ~script =
  let spec = Sct.mk_spec ~name ~initial:[] ~script:(Array.init nthreads script) () in
  let rng0 = X.create 17 in
  let out =
    Sct.execute ~model:Bench_config.model ~seed:3
      ~prefill:(initial, Seq.forever (fun () -> 1 + X.below rng0 (2 * initial)))
      ~size:true ~oracles:Sct.no_oracles (Sct.maker_of spec) spec
  in
  Option.iter failwith out.Sct.violation;
  let stats = Sim.stats out.Sct.sim ~makespan:out.Sct.makespan in
  let total = Array.fold_left (fun n ops -> n + Array.length ops) 0 spec.Sct.script in
  (float_of_int total /. stats.Sim.seconds /. 1e6, Option.get out.Sct.size)

let skewed tid =
  let w = W.make ~initial:4096 ~update_pct:20 () in
  let skew = { W.hot_keys = 64; hot_pct = 80 } in
  let rng = X.create (tid + 41) in
  Array.init (Bench_config.ops_per_thread * 2) (fun _ ->
      let k = W.pick_key_skewed w skew rng in
      (W.pick_op w rng, k))

let growth tid =
  (* 60% inserts over an ever-widening range: size grows continuously *)
  let rng = X.create (tid + 43) in
  Array.init (Bench_config.ops_per_thread * 2) (fun i ->
      let k = 1 + X.below rng (8192 + ((i + 1) * 16)) in
      ((if X.below rng 100 < 60 then W.Insert else W.Search), k))

let run () =
  Bench_config.section "Non-uniform workloads (4's remark): skew and growth";
  let rows =
    List.map
      (fun name ->
        let skew_tput, _ = run_custom name ~nthreads:20 ~initial:4096 ~script:skewed in
        let grow_tput, final = run_custom name ~nthreads:20 ~initial:4096 ~script:growth in
        (* custom scripts have no Sim_run record, so serialize a reduced one *)
        List.iter
          (fun (label, tput, size) ->
            Res.record
              (J.Obj
                 [
                   ("label", J.String label);
                   ("kind", J.String "custom");
                   ("algorithm", J.String name);
                   ("platform", J.String P.xeon20.P.name);
                   ("nthreads", J.Int 20);
                   ("throughput_mops", J.Float tput);
                   ("final_size", match size with Some s -> J.Int s | None -> J.Null);
                 ]))
          [ ("skewed-80/20", skew_tput, None); ("growing", grow_tput, Some final) ];
        [ name; Rep.f2 skew_tput; Rep.f2 grow_tput; string_of_int final ])
      algos
  in
  Rep.table ~title:"80/20-skewed and continuously-growing workloads, 20 threads (Xeon20)"
    [ "algorithm"; "skewed Mops/s"; "growing Mops/s"; "final size" ]
    rows
