(* Cross-model equivalence and golden pins for the pluggable coherence
   layer (Ascy_mem.Sim.model / Cohmodel).

   The load-bearing claim: controlled schedulers make program behavior
   latency-independent, so everything *functional* — SCT schedule
   counts, oracle verdicts, minimized counterexamples — must be
   identical under the MESI directory model, the O(1) flat model and
   the Opteron-style MOESI variant.  Only *costs* (makespans, miss
   classes, energy) may differ, and they must actually differ, or a
   "model" is silently aliasing another.  The MESI default additionally
   pins the pre-refactor golden numbers bit-for-bit. *)

module Sim = Ascy_mem.Sim
module Mem = Ascy_mem.Sim.Mem
module P = Ascy_platform.Platform
module Sct = Ascy_harness.Sct_run
module Engine = Ascy_harness.Engine
module Explorer = Ascy_sct.Explorer

let mesi = Sim.model_of_name "mesi"
let flat = Sim.model_of_name "flat"
let moesi = Sim.model_of_name "moesi"

(* the 3-thread adversarial script behind the repo's pinned
   2099-schedule ll-lazy space *)
let spec = Sct.fuzz_spec

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  Alcotest.(check (list string)) "registry names" [ "mesi"; "flat"; "moesi" ] (Sim.model_names ());
  Alcotest.(check string) "default is mesi" "mesi" (Sim.model_name_of Sim.default_model);
  Alcotest.(check string)
    "lookup is case-insensitive" "moesi"
    (Sim.model_name_of (Sim.model_of_name "MOESI"));
  Alcotest.check_raises "unknown model rejected"
    (Invalid_argument "unknown coherence model: mesix (expected one of: mesi, flat, moesi)")
    (fun () -> ignore (Sim.model_of_name "mesix"))

(* ------------------------------------------------------------------ *)
(* Functional equivalence under controlled scheduling                  *)
(* ------------------------------------------------------------------ *)

(* fixed deterministic scheduler: always run the lowest runnable tid *)
let lowest_tid r = Sim.runnable_tid r 0

let test_run_once_verdict_invariant () =
  let verdict model name =
    let maker = (Ascylib.Registry.by_name name).Ascylib.Registry.maker in
    Sct.run_once ~races:true ~model maker (spec name) ~sched:lowest_tid
  in
  List.iter
    (fun name ->
      let m = verdict mesi name and f = verdict flat name and o = verdict moesi name in
      Alcotest.(check (option string)) (name ^ ": flat = mesi") m f;
      Alcotest.(check (option string)) (name ^ ": moesi = mesi") m o)
    [ "ll-lazy"; "ll-async"; "ht-java"; "sl-fraser"; "bst-tk"; "ll-pathcas"; "bst-pathcas" ]

let explore_stats model name =
  let finding, report = Sct.explore ~mode:Explorer.Dpor ~model (spec name) in
  ( report.Explorer.schedules,
    report.Explorer.steps,
    report.Explorer.complete,
    Option.map (fun (f : Sct.finding) -> f.Sct.violation) finding )

let test_schedule_space_invariant () =
  (* ll-harris: a fast, exhaustively-explorable space *)
  let m = explore_stats mesi "ll-harris" in
  Alcotest.(check bool) "flat explores the same space" true (explore_stats flat "ll-harris" = m);
  Alcotest.(check bool) "moesi explores the same space" true (explore_stats moesi "ll-harris" = m)

let test_flat_ll_lazy_golden_space () =
  (* the repo's pinned schedule space, explored under the cheap model:
     any drift in either the flat model or the scheduler core moves
     these numbers *)
  let schedules, steps, complete, violation = explore_stats flat "ll-lazy" in
  Alcotest.(check int) "ll-lazy schedules" 2099 schedules;
  Alcotest.(check int) "ll-lazy decisions" 609_932 steps;
  Alcotest.(check bool) "space exhausted" true complete;
  Alcotest.(check (option string)) "no violation" None violation

let test_pathcas_space_invariant () =
  (* the k-CAS commit must be priced per touched line by every model
     yet scheduled identically: same exhausted space, same verdict,
     under the directory model and the O(1) flat model *)
  let m = explore_stats mesi "ll-pathcas" in
  Alcotest.(check bool) "flat explores the same ll-pathcas space" true
    (explore_stats flat "ll-pathcas" = m);
  let schedules, _, complete, violation = m in
  Alcotest.(check int) "ll-pathcas fuzz schedules" 50 schedules;
  Alcotest.(check bool) "space exhausted" true complete;
  Alcotest.(check (option string)) "no violation" None violation

let test_minimized_counterexample_invariant () =
  let hunt model =
    let finding, _ = Sct.explore ~mode:Explorer.Dpor ~races:true ~model (spec "ll-async") in
    match finding with
    | None -> Alcotest.fail "SCT failed to break the asynchronized list"
    | Some f -> f
  in
  let m = hunt mesi and f = hunt flat in
  Alcotest.(check string) "same violation" m.Sct.violation f.Sct.violation;
  Alcotest.(check (array int)) "same failing schedule" m.Sct.schedule f.Sct.schedule;
  Alcotest.(check (array int)) "same minimized prefix" m.Sct.minimized f.Sct.minimized;
  Alcotest.(check string) "same minimized violation" m.Sct.min_violation f.Sct.min_violation

(* ------------------------------------------------------------------ *)
(* Replay files record and re-arm the model                            *)
(* ------------------------------------------------------------------ *)

let test_replay_rearms_model () =
  let finding, _ = Sct.explore ~mode:Explorer.Dpor ~races:true ~model:flat (spec "ll-async") in
  let f = Option.get finding in
  let path = Filename.temp_file "model_roundtrip" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sct.save_finding ~model:flat ~path ~oracles:{ Sct.sct_oracles with races = true }
        (spec "ll-async") ~prefix:f.Sct.minimized ~violation:f.Sct.min_violation;
      let meta =
        let _, _, meta = Ascy_sct.Replay.load path in
        meta
      in
      Alcotest.(check string)
        "non-default model recorded in meta" "flat"
        (Sim.model_name_of (Engine.model_of_meta meta));
      let { Sct.expected; results; _ } = Sct.replay_file ~times:2 path in
      Alcotest.(check bool)
        "replay reproduces under the recorded model" true
        (match (expected, results) with
        | Some v, [ Some a; Some b ] -> a = v && b = v
        | _ -> false))

let test_default_model_meta_is_empty () =
  (* mesi replay files must stay byte-identical to pre-refactor ones:
     the default model adds no metadata *)
  Alcotest.(check int) "mesi adds no meta" 0 (List.length (Engine.model_meta mesi));
  Alcotest.(check string)
    "absent meta defaults to mesi" "mesi"
    (Sim.model_name_of (Engine.model_of_meta []))

(* ------------------------------------------------------------------ *)
(* Costs: models must actually be different models                     *)
(* ------------------------------------------------------------------ *)

(* two threads ping-ponging RMWs on one line: maximal coherence traffic *)
let pingpong model platform =
  Sim.with_sim ~seed:7 ~model ~platform ~nthreads:2 (fun sim ->
      let r = Mem.make_fresh 0 in
      let body _ () =
        for _ = 1 to 200 do
          ignore (Mem.fetch_and_add r 1)
        done
      in
      let makespan = Sim.run sim (Array.init 2 body) in
      (Mem.get r, makespan, Sim.stats sim ~makespan))

(* one writer, one reader on a single line: MESI demotes the dirty line
   to Shared on every read (with an LLC writeback), MOESI leaves it
   Owned in the writer's cache — so the two price this pattern
   differently, while a pure RMW ping-pong (always write-intent) costs
   the same under both *)
let write_read_share model platform =
  Sim.with_sim ~seed:7 ~model ~platform ~nthreads:2 (fun sim ->
      let r = Mem.make_fresh 0 in
      let bodies =
        [|
          (fun () ->
            for i = 1 to 300 do
              Mem.set r i
            done);
          (fun () ->
            for _ = 1 to 300 do
              ignore (Mem.get r)
            done);
        |]
      in
      let makespan = Sim.run sim bodies in
      (makespan, Sim.stats sim ~makespan))

let test_models_priced_differently () =
  let v_mesi, m_mesi, _ = pingpong mesi P.opteron in
  let v_flat, m_flat, _ = pingpong flat P.opteron in
  let v_moesi, m_moesi, _ = pingpong moesi P.opteron in
  Alcotest.(check int) "mesi: no lost updates" 400 v_mesi;
  Alcotest.(check int) "flat: no lost updates" 400 v_flat;
  Alcotest.(check int) "moesi: no lost updates" 400 v_moesi;
  Alcotest.(check bool) "flat is cheaper than mesi" true (m_flat < m_mesi);
  Alcotest.(check int) "rmw ping-pong costs the same under moesi" m_mesi m_moesi;
  let wr_mesi, st_mesi = write_read_share mesi P.opteron in
  let wr_moesi, st_moesi = write_read_share moesi P.opteron in
  Alcotest.(check bool) "moesi prices dirty-read sharing differently" true (wr_moesi <> wr_mesi);
  Alcotest.(check bool)
    "moesi never demotes into the llc" true
    (st_moesi.Sim.hits_llc < st_mesi.Sim.hits_llc)

let test_flat_is_uniform () =
  (* under flat, every access costs an L1 hit: a shared ping-pong and a
     private loop of the same length have identical access costs *)
  let _, _, st = pingpong flat P.xeon20 in
  Alcotest.(check int) "no transfers counted" 0 (st.Sim.transfers_local + st.Sim.transfers_remote);
  Alcotest.(check int) "no llc hits counted" 0 (st.Sim.hits_llc + st.Sim.fetch_remote);
  Alcotest.(check int) "no memory accesses counted" 0 st.Sim.misses_mem;
  Alcotest.(check int) "everything is an l1 hit" st.Sim.accesses st.Sim.hits_l1

(* ------------------------------------------------------------------ *)
(* MESI golden pins                                                    *)
(* ------------------------------------------------------------------ *)

let test_mesi_default_identity () =
  (* the implicit default must be the very same run as explicit mesi *)
  let explicit = pingpong mesi P.xeon20 in
  let implicit =
    Sim.with_sim ~seed:7 ~platform:P.xeon20 ~nthreads:2 (fun sim ->
        let r = Mem.make_fresh 0 in
        let body _ () =
          for _ = 1 to 200 do
            ignore (Mem.fetch_and_add r 1)
          done
        in
        let makespan = Sim.run sim (Array.init 2 body) in
        (Mem.get r, makespan, Sim.stats sim ~makespan))
  in
  Alcotest.(check bool) "default model = mesi, bit for bit" true (explicit = implicit)

let test_mesi_golden_stats () =
  (* bit-for-bit pin of the pre-refactor directory model on a fixed
     contended workload; any change to MESI's state machine, the charge
     order, or the scheduler moves at least one of these numbers *)
  let _, makespan, st = pingpong mesi P.xeon20 in
  Alcotest.(check int) "makespan" 17_022 makespan;
  Alcotest.(check int) "accesses" 400 st.Sim.accesses;
  Alcotest.(check int) "atomics" 400 st.Sim.atomics;
  Alcotest.(check int) "l1 hits" 13 st.Sim.hits_l1;
  Alcotest.(check int) "local transfers" 386 st.Sim.transfers_local

(* ten T4-4 threads (eight on socket 0, two on socket 1) allocate
   70,000 lines while touching pseudo-random older ones, then sweep every
   line three times (the middle pass writes every fifth).  72,048 lines
   exceed both tag-array caps of the platform (8192 private slots, 65,536
   LLC slots), so the arrays grow while accesses are in flight, reach
   their cap, and direct-mapped evictions decide the miss classes. *)
let cap_crossing model =
  let nthreads = 10 and per_thread = 7_000 and preset = 2_048 in
  Sim.with_sim ~seed:7 ~model ~platform:P.t44 ~nthreads (fun sim ->
      let all = Array.make (preset + (nthreads * per_thread)) (Mem.make_fresh 0) in
      for k = 1 to preset - 1 do
        all.(k) <- Mem.make_fresh k
      done;
      let n = ref preset in
      let body i () =
        for j = 1 to per_thread do
          all.(!n) <- Mem.make_fresh j;
          incr n;
          let old = all.(((!n * 7919) + (i * 131)) mod !n) in
          if j mod 9 = 0 then ignore (Mem.fetch_and_add old 1)
          else if j mod 4 = 0 then Mem.set old j
          else ignore (Mem.get old)
        done;
        for pass = 0 to 2 do
          let k = ref ((i + pass) mod nthreads) in
          while !k < !n do
            let r = all.(!k) in
            if pass = 1 && !k mod 5 = 0 then Mem.set r pass else ignore (Mem.get r);
            k := !k + nthreads
          done
        done
      in
      let makespan = Sim.run sim (Array.init nthreads body) in
      Alcotest.(check int) "lines allocated" 72_048 !n;
      (makespan, Sim.stats sim ~makespan))

let check_cap_crossing model ~makespan:m ~l1 ~llc ~c2c_local ~c2c_remote ~remote ~mem =
  let makespan, st = cap_crossing model in
  Alcotest.(check int) "makespan" m makespan;
  Alcotest.(check int) "accesses" 356_144 st.Sim.accesses;
  Alcotest.(check int) "l1 hits" l1 st.Sim.hits_l1;
  Alcotest.(check int) "llc hits" llc st.Sim.hits_llc;
  Alcotest.(check int) "local transfers" c2c_local st.Sim.transfers_local;
  Alcotest.(check int) "remote transfers" c2c_remote st.Sim.transfers_remote;
  Alcotest.(check int) "remote fetches" remote st.Sim.fetch_remote;
  Alcotest.(check int) "memory" mem st.Sim.misses_mem

let test_mesi_cap_crossing () =
  check_cap_crossing mesi ~makespan:4_434_307 ~l1:69_988 ~llc:112_622 ~c2c_local:46_035
    ~c2c_remote:15_968 ~remote:27_529 ~mem:84_002

let test_moesi_cap_crossing () =
  check_cap_crossing moesi ~makespan:4_806_782 ~l1:69_988 ~llc:79_259 ~c2c_local:68_207
    ~c2c_remote:24_119 ~remote:29_514 ~mem:85_057

(* Bytes allocated so far.  On OCaml 5.1, [Gc.allocated_bytes]
   under-counts small minor-heap allocations (about 1.3 KB reported for
   20 arrays of 65 words), so the minor part comes from
   [Gc.minor_words], which counts them exactly. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* per-run set-up cost: SCT re-executes from a fresh simulation once per
   schedule, so a model whose [create] allocates platform-sized tag
   arrays (about 9.7 MB on the Xeon20) multiplies every exploration *)
let test_create_allocates_little () =
  List.iter
    (fun model ->
      let create () = ignore (Sim.create ~model ~platform:P.xeon20 ~nthreads:3 ()) in
      create ();
      let before = allocated_bytes () in
      create ();
      let bytes = allocated_bytes () -. before in
      if bytes >= 65_536. then
        Alcotest.failf "%s: Sim.create allocated %.0f bytes (limit 64 KB)" (Sim.model_name_of model)
          bytes)
    [ mesi; moesi; flat ]

let suite =
  [
    Alcotest.test_case "model registry" `Quick test_registry;
    Alcotest.test_case "controlled verdicts model-invariant" `Quick test_run_once_verdict_invariant;
    Alcotest.test_case "schedule space model-invariant" `Slow test_schedule_space_invariant;
    Alcotest.test_case "flat ll-lazy pins 2099 schedules" `Slow test_flat_ll_lazy_golden_space;
    Alcotest.test_case "ll-pathcas space model-invariant" `Slow test_pathcas_space_invariant;
    Alcotest.test_case "minimized counterexample model-invariant" `Slow
      test_minimized_counterexample_invariant;
    Alcotest.test_case "replay re-arms recorded model" `Quick test_replay_rearms_model;
    Alcotest.test_case "default model leaves meta empty" `Quick test_default_model_meta_is_empty;
    Alcotest.test_case "models priced differently" `Quick test_models_priced_differently;
    Alcotest.test_case "flat is uniform cost" `Quick test_flat_is_uniform;
    Alcotest.test_case "default = explicit mesi" `Quick test_mesi_default_identity;
    Alcotest.test_case "mesi golden stats" `Quick test_mesi_golden_stats;
    Alcotest.test_case "mesi golden stats past the tag caps" `Quick test_mesi_cap_crossing;
    Alcotest.test_case "moesi golden stats past the tag caps" `Quick test_moesi_cap_crossing;
    Alcotest.test_case "Sim.create allocates under 64 KB" `Quick test_create_allocates_little;
  ]
