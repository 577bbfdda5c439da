(* Shared plumbing of the benchmark: the run context, the metric
   catalogue, the result accumulator, statistics helpers and the
   host clock. *)

type ctx = {
  seed : int;
  seconds : float;  (** measurement budget of one run *)
  trace : bool;  (** traced run: per-layer metrics and spans *)
  tiny : bool;  (** self-test sizes: everything small and short *)
  break_pin : bool;  (** self-test: corrupt one pinned count, the gate must trip *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(** [quantile q xs], linearly interpolated between the closest ranks. *)
let quantile q = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(** The rate of a repeated measurement: the upper quartile of its
    samples.  Other tenants of the host only ever slow a sample down,
    in bursts; the faster quarter of the samples tracks the code's own
    speed more steadily than the median does. *)
let rate_of = quantile 0.75

let geomean = function
  | [] -> 0.0
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

(* The algorithms of the native workloads and of the SCT workload;
   their per-algorithm metric names derive from these lists. *)
let native_algos = [ "ht-clht-lb"; "bst-tk"; "sl-fraser"; "ll-lazy"; "bst-pathcas" ]
let sct_algos = [ "ll-lazy"; "ht-clht-lb"; "ht-clht-lf"; "ll-pathcas"; "bst-pathcas" ]

let family_tag name =
  let e = Ascylib.Registry.by_name name in
  String.map (fun c -> if c = ' ' then '_' else c)
    (Ascy_core.Ascy.family_to_string e.Ascylib.Registry.family)

let algo_metric name suffix = Printf.sprintf "%s.%s.%s" (family_tag name) name suffix

(* The metric names and units are declared once, in BENCHMARK.json at
   the checkout root (the benchmark runs from there). *)
let catalogue =
  lazy
    (let module J = Ascy_util.Json in
     let file = "BENCHMARK.json" in
     let bad why =
       Printf.eprintf "perfbench: %s: %s\n" file why;
       exit 2
     in
     let doc =
       try J.of_string (In_channel.with_open_bin file In_channel.input_all) with
       | Sys_error e -> bad e
       | J.Parse_error e -> bad e
     in
     let metrics key =
       match Option.bind (J.member key doc) J.to_list_opt with
       | None -> bad ("no list " ^ key)
       | Some ms ->
           List.map
             (fun m ->
               match
                 ( Option.bind (J.member "name" m) J.to_string_opt,
                   Option.bind (J.member "unit" m) J.to_string_opt )
               with
               | Some n, Some u -> (n, u)
               | _ -> bad ("an entry of " ^ key ^ " lacks a name or a unit"))
             ms
     in
     let e2e = metrics "end_to_end" and layer = metrics "per_layer" in
     (* the per-algorithm names are derived here: they must be declared *)
     List.iter
       (fun n -> if not (List.mem_assoc n layer) then bad ("per_layer lacks " ^ n))
       (List.concat_map
          (fun a -> List.map (algo_metric a) [ "read_mops"; "update_mops"; "restarts_per_op"; "cas_fail_per_update" ])
          native_algos
       @ List.concat_map (fun a -> [ "sct." ^ a ^ ".schedules"; "sct." ^ a ^ ".steps" ]) sct_algos);
     (e2e, layer))

(** End-to-end metrics: every workload reports each of them. *)
let end_to_end () = fst (Lazy.force catalogue)

(** Per-layer metrics (traced runs).  A workload that bypasses a layer
    reports that layer's metrics as 0: it did no work there. *)
let per_layer () = snd (Lazy.force catalogue)

(* ------------------------------------------------------------------ *)
(* Result accumulator                                                  *)
(* ------------------------------------------------------------------ *)

type result = {
  mutable attempted : int;  (** operations attempted (set ops, schedules, requests) *)
  mutable failed : int;  (** failed correctness checks *)
  mutable failures : string list;  (** their descriptions, newest first *)
  values : (string, float) Hashtbl.t;  (** catalogue metrics measured so far *)
  mutable report : (string * Ascy_util.Json.t) list;
      (** named figures and run metadata printed above the result line *)
}

let fresh () =
  { attempted = 0; failed = 0; failures = []; values = Hashtbl.create 64; report = [] }

let set r name v =
  if not (List.mem_assoc name (end_to_end ()) || List.mem_assoc name (per_layer ())) then
    invalid_arg ("metric not in the catalogue: " ^ name);
  Hashtbl.replace r.values name v

let note r key v = r.report <- r.report @ [ (key, v) ]

(** Count one correctness check; a failing one is recorded. *)
let check r ok what =
  if not ok then begin
    r.failed <- r.failed + 1;
    r.failures <- what :: r.failures;
    Printf.eprintf "FAIL: %s\n%!" what
  end

(** Warm set-up samples behind [setup_s], on every workload. *)
let setup_samples = 10

(** [setup_median f]: median time of [f ()] over [setup_samples] calls,
    after a first, cold one that is not counted. *)
let setup_median f =
  ignore (f ());
  median (List.init setup_samples (fun _ -> snd (time f)))

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Simulated-output digest                                             *)
(* ------------------------------------------------------------------ *)

(** Every simulated output of a workload, keyed by the unit that
    produced it (an exploration, a scenario run).  A unit executed again
    in the same run must reproduce its output exactly; the digest hashes
    each unit's output once, so a change that claims to leave simulated
    behavior untouched can show that the digest did not move. *)
type digest = (string, string) Hashtbl.t

let digest () : digest = Hashtbl.create 16

(** [record d r ~unit out] stores [unit]'s output, or checks it against
    the output an earlier execution of the same unit stored. *)
let record (d : digest) r ~unit out =
  match Hashtbl.find_opt d unit with
  | None -> Hashtbl.replace d unit out
  | Some prev -> check r (prev = out) (unit ^ ": simulated output differs between identical executions")

let digest_hex (d : digest) =
  let units = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) d []) in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) units)))
