(* Parallel exploration determinism: Ascy_sct.Par_explore partitions
   the DPOR frontier (or a randomized policy's schedule budget) across
   OCaml domains, and its whole contract is that the partition changes
   only wall-clock — verdicts, schedule-space sizes and counterexamples
   are invariant under the domain count.  These tests run the *task
   machinery itself* at 1 and 4 domains (Par_explore.explore never
   delegates to the plain sequential explorer, precisely so this
   equality is testable) and compare everything.

   Also here: the seeded-stream primitives the randomized policies'
   determinism rests on (Xorshift.split / jump). *)

module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Par = Ascy_sct.Par_explore
module Registry = Ascylib.Registry
module Xorshift = Ascy_util.Xorshift

let duel = Sct.duel_spec

let small_bounds =
  {
    Explorer.preemptions = Some 1;
    delays = Some 3;
    max_steps = 50_000;
    max_schedules = Some 50_000;
  }

(* The exploration driver Par_explore expects: one full oracle-checked
   run of the spec under a given scheduler. *)
let run_of spec =
  let maker = (Registry.by_name spec.Sct.name).Registry.maker in
  fun ~sched -> Sct.run_once maker spec ~sched

(* ------------------------------------------------------------------ *)
(* Exhaustive partition: 1 domain = 4 domains                          *)
(* ------------------------------------------------------------------ *)

(* One correct algorithm per family: the partitioned DPOR must exhaust
   the identical schedule space — same verdict, same schedule count,
   same decision count, same task fixed point — at any domain count. *)
let partition_deterministic name () =
  let explore domains =
    Par.explore ~bounds:small_bounds ~domains ~run:(run_of (duel name)) ()
  in
  let r1 = explore 1 and r4 = explore 4 in
  Alcotest.(check bool) "no violation at 1 domain" true
    (r1.Par.p_report.Explorer.failure = None);
  Alcotest.(check bool) "no violation at 4 domains" true
    (r4.Par.p_report.Explorer.failure = None);
  Alcotest.(check int) "identical schedule-space size"
    r1.Par.p_report.Explorer.schedules r4.Par.p_report.Explorer.schedules;
  Alcotest.(check int) "identical decision count" r1.Par.p_report.Explorer.steps
    r4.Par.p_report.Explorer.steps;
  Alcotest.(check bool) "both complete" true
    (r1.Par.p_report.Explorer.complete && r4.Par.p_report.Explorer.complete);
  Alcotest.(check int) "identical task fixed point" r1.Par.p_tasks r4.Par.p_tasks

(* The 3-thread fuzz spec that exposed (and now regression-tests) the
   bst-howley splice-resurrection bug: the repaired protocol must stay
   clean under the partitioned DPOR at any domain count, with the
   identical exhausted space. *)
let fuzz = Sct.fuzz_spec

let test_howley_fuzz_partition_invariant () =
  let spec = fuzz "bst-howley" in
  let maker = (Registry.by_name spec.Sct.name).Registry.maker in
  let run ~sched =
    Sct.run_once ~model:(Ascy_mem.Sim.model_of_name "flat") maker spec ~sched
  in
  let explore domains = Par.explore ~bounds:Explorer.default_bounds ~domains ~run () in
  let r1 = explore 1 and r4 = explore 4 in
  Alcotest.(check bool) "clean at 1 domain" true (r1.Par.p_report.Explorer.failure = None);
  Alcotest.(check bool) "clean at 4 domains" true (r4.Par.p_report.Explorer.failure = None);
  Alcotest.(check int) "identical schedule-space size"
    r1.Par.p_report.Explorer.schedules r4.Par.p_report.Explorer.schedules;
  Alcotest.(check bool) "both complete" true
    (r1.Par.p_report.Explorer.complete && r4.Par.p_report.Explorer.complete)

(* On a failing spec every domain count must report the byte-identical
   canonical counterexample (recomputed sequentially), and it must be
   the one the plain sequential explorer finds. *)
let test_canonical_counterexample () =
  let run = run_of (duel "ll-async") in
  let seq = Explorer.explore ~bounds:small_bounds ~run () in
  let f_seq =
    match seq.Explorer.failure with
    | Some f -> f
    | None -> Alcotest.fail "sequential explorer missed the seq-list violation"
  in
  List.iter
    (fun domains ->
      let r = Par.explore ~bounds:small_bounds ~domains ~run () in
      match r.Par.p_report.Explorer.failure with
      | None ->
          Alcotest.fail
            (Printf.sprintf "%d-domain exploration missed the violation" domains)
      | Some f ->
          Alcotest.(check string)
            (Printf.sprintf "violation at %d domains matches sequential" domains)
            f_seq.Explorer.f_desc f.Explorer.f_desc;
          Alcotest.(check (array int))
            (Printf.sprintf "schedule at %d domains matches sequential" domains)
            f_seq.Explorer.f_schedule f.Explorer.f_schedule)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Randomized partition: 1 domain = 4 domains                          *)
(* ------------------------------------------------------------------ *)

(* A clean spec runs the full budget at any domain count: probe + N. *)
let test_random_partition_clean () =
  let run = run_of (duel "ll-lazy") in
  let policy = Explorer.Random { seed = 1; schedules = 64 } in
  let explore domains = Par.explore ~bounds:small_bounds ~policy ~domains ~run () in
  let r1 = explore 1 and r4 = explore 4 in
  Alcotest.(check bool) "clean at both domain counts" true
    (r1.Par.p_report.Explorer.failure = None && r4.Par.p_report.Explorer.failure = None);
  Alcotest.(check int) "identical schedule count (probe + budget)" 65
    r1.Par.p_report.Explorer.schedules;
  Alcotest.(check int) "domain count does not change the budget"
    r1.Par.p_report.Explorer.schedules r4.Par.p_report.Explorer.schedules;
  Alcotest.(check bool) "never complete" false
    (r1.Par.p_report.Explorer.complete || r4.Par.p_report.Explorer.complete)

(* A failing spec reports the lowest failing schedule index whoever
   finds it first — the counterexample is domain-count invariant. *)
let test_random_partition_failure () =
  let run = run_of (duel "ll-async") in
  let policy = Explorer.Random { seed = 1; schedules = 64 } in
  let explore domains =
    match (Par.explore ~policy ~domains ~run ()).Par.p_report.Explorer.failure with
    | Some f -> f
    | None ->
        Alcotest.fail (Printf.sprintf "%d-domain random sampling missed the bug" domains)
  in
  let f1 = explore 1 and f4 = explore 4 in
  Alcotest.(check string) "same violation" f1.Explorer.f_desc f4.Explorer.f_desc;
  Alcotest.(check (array int)) "same failing schedule" f1.Explorer.f_schedule
    f4.Explorer.f_schedule

(* ------------------------------------------------------------------ *)
(* Seeded stream primitives                                            *)
(* ------------------------------------------------------------------ *)

let draws rng n bound = List.init n (fun _ -> Xorshift.below rng bound)

(* split: children are deterministic functions of the parent state and
   pairwise-distinct streams. *)
let test_split_deterministic () =
  let children seed =
    let parent = Xorshift.create seed in
    List.init 4 (fun _ -> draws (Xorshift.split parent) 64 1000)
  in
  Alcotest.(check bool) "same seed, same children" true (children 42 = children 42);
  let cs = children 42 in
  List.iteri
    (fun i c ->
      List.iteri
        (fun j c' ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "children %d and %d differ" i j)
              false (c = c'))
        cs)
    cs

(* split streams look uniform: bucket counts of a long run stay near
   the expected value.  Deterministic (fixed seed), so the tolerance
   just documents the observed spread rather than gambling. *)
let test_split_distribution () =
  let parent = Xorshift.create 7 in
  let child = Xorshift.split parent in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let b = Xorshift.below child 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expect = n / 10 in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d within 15%% of uniform (%d)" i c)
        true
        (abs (c - expect) < expect * 15 / 100))
    buckets

(* jump: deterministic, state-changing, and the jumped stream does not
   replay the original's output. *)
let test_jump () =
  let a = Xorshift.create 11 in
  let b = Xorshift.copy a in
  Xorshift.jump b;
  Alcotest.(check bool) "jumped stream diverges from the original" false
    (draws a 64 1_000_000 = draws b 64 1_000_000);
  let c = Xorshift.create 11 in
  let d = Xorshift.copy c in
  Xorshift.jump c;
  Xorshift.jump d;
  Alcotest.(check bool) "jump is deterministic" true
    (draws c 64 1_000_000 = draws d 64 1_000_000)

let suite =
  [
    Alcotest.test_case "partitioned DPOR deterministic: ll-lazy" `Quick
      (partition_deterministic "ll-lazy");
    Alcotest.test_case "partitioned DPOR deterministic: ht-lazy" `Quick
      (partition_deterministic "ht-lazy");
    Alcotest.test_case "partitioned DPOR deterministic: sl-herlihy" `Quick
      (partition_deterministic "sl-herlihy");
    Alcotest.test_case "partitioned DPOR deterministic: bst-tk" `Quick
      (partition_deterministic "bst-tk");
    Alcotest.test_case "partitioned DPOR deterministic: ll-pathcas" `Quick
      (partition_deterministic "ll-pathcas");
    Alcotest.test_case "canonical counterexample across domain counts" `Quick
      test_canonical_counterexample;
    Alcotest.test_case "bst-howley fuzz clean across domain counts" `Quick
      test_howley_fuzz_partition_invariant;
    Alcotest.test_case "random partition: clean spec, invariant budget" `Quick
      test_random_partition_clean;
    Alcotest.test_case "random partition: invariant counterexample" `Quick
      test_random_partition_failure;
    Alcotest.test_case "xorshift split is deterministic and distinct" `Quick
      test_split_deterministic;
    Alcotest.test_case "xorshift split streams look uniform" `Quick test_split_distribution;
    Alcotest.test_case "xorshift jump advances deterministically" `Quick test_jump;
  ]
