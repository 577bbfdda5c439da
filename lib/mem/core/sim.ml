(** A deterministic discrete-event multicore simulator built on OCaml 5
    effect handlers, with a pluggable cache-coherence cost model.

    Simulated threads are ordinary OCaml closures written against
    {!Memory.S}; each shared-memory access performs an effect.  The
    scheduler always resumes the thread with the smallest local clock and
    charges the access a latency taken from the installed coherence
    model ({!Cohmodel.S}):

    - {!Coh_mesi} (default): a MESI-like inclusive-LLC directory model —
      per-core private caches, per-socket LLCs, a directory per line
      tracking owner and sharer set, with costs for private hits, local
      LLC hits, in-socket and cross-socket dirty-line transfers, remote
      clean fetches and DRAM;
    - {!Coh_flat}: O(1) uniform cost, for SCT/analysis runs where timing
      fidelity is irrelevant;
    - {!Coh_moesi}: an Opteron-style non-inclusive/Owned-state variant
      for cross-platform shape reproduction.

    The MESI model captures exactly the mechanism the paper identifies
    as the scalability limiter — stores to shared lines invalidate
    copies and turn other threads' future loads into coherence misses —
    so the relative throughput/latency/power shapes of CSDS algorithms
    are preserved even though no real multicore is present.

    The same machinery doubles as a deterministic concurrency tester:
    running a workload under different seeds (schedule jitter) explores
    many interleavings reproducibly, and a controlled [~scheduler] turns
    the simulator into a systematic concurrency tester.

    Layering (see DESIGN.md): this module owns threads, continuations,
    scheduling, faults and the counters/trace/observer plumbing; shared
    types live in {!Simtypes} (re-exported here, so callers only ever
    name [Sim]); everything line-state/latency-class-specific lives
    behind {!Cohmodel.S}. *)

module P = Ascy_platform.Platform

(* ------------------------------------------------------------------ *)
(* Re-exports from the shared types layer                              *)
(* ------------------------------------------------------------------ *)

type access_kind = Simtypes.access_kind = Read | Write | Rmw

type action = Simtypes.action =
  | A_start
  | A_access of access_kind * int
  | A_work of int
  | A_kcas of int array

let dependent = Simtypes.dependent
let kcas_touches = Simtypes.kcas_touches

type runnable = Simtypes.runnable = {
  mutable rn : int;
  r_tids : int array;
  r_acts : action array;
}

let runnable_count = Simtypes.runnable_count
let runnable_tid = Simtypes.runnable_tid
let runnable_action = Simtypes.runnable_action
let runnable_find = Simtypes.runnable_find
let runnable_copy = Simtypes.runnable_copy

type scheduler = Simtypes.scheduler

type msg_fault = Simtypes.msg_fault = Msg_drop | Msg_dup | Msg_delay of int

type fault = Simtypes.fault =
  | F_crash
  | F_stall of int
  | F_numa_slow of { factor : float; window : int }
  | F_msg of msg_fault

type fault_event = Simtypes.fault_event = { fe_at : int; fe_tid : int; fe_fault : fault }

exception Thread_killed = Simtypes.Thread_killed

type mem_counters = Simtypes.mem_counters = {
  mutable accesses : int;
  mutable l1 : int;
  mutable llc : int;
  mutable c2c_local : int;
  mutable c2c_remote : int;
  mutable llc_remote : int;
  mutable mem : int;
  mutable rmw : int;
  mutable writes : int;
  mutable energy_nj : float;
}

let fresh_counters = Simtypes.fresh_counters

type trace_class = Simtypes.trace_class =
  | Tc_l1
  | Tc_llc
  | Tc_c2c_local
  | Tc_c2c_remote
  | Tc_llc_remote
  | Tc_mem

type observer = Simtypes.observer = {
  obs_access : int -> access_kind -> int -> unit;
  obs_rmw : int -> bool -> unit;
  obs_event : int -> int -> unit;
  obs_op_start : int -> int -> unit;
  obs_op_end : int -> int -> unit;
}

let compose_observers = Simtypes.compose_observers

(* ------------------------------------------------------------------ *)
(* Coherence-model selection                                           *)
(* ------------------------------------------------------------------ *)

(** A coherence cost model, selectable per simulation ([?model] on
    {!create} / {!with_sim}).  The default, {!Models.mesi}, reproduces
    the repository's historical behavior bit-for-bit; see {!Models} for
    the registry. *)
type model = Cohmodel.spec

let default_model : model = Models.default
let model_of_name : string -> model = Models.by_name
let model_name_of : model -> string = Cohmodel.name
let model_names () = Models.names

(* ------------------------------------------------------------------ *)
(* Core state                                                          *)
(* ------------------------------------------------------------------ *)

type pending =
  | P_access of access_kind * int
  | P_work of int
  | P_kcas of int array (* multi-word CAS: one atomic commit, charged per line *)
  | P_none

type step = Finished | Blocked

type thread = {
  tid : int;
  core : int;
  socket : int;
  instr_scale : float; (* SMT issue-sharing multiplier for this thread *)
  mutable clock : int; (* local time, cycles *)
  mutable pend : pending;
  mutable act : action; (* scheduler lookahead, cached when the effect
                           is performed so listing the runnable set
                           allocates nothing *)
  mutable cont : (unit, step) Effect.Deep.continuation option;
  mutable finished : bool;
  mutable crashed : bool; (* crash-stopped by an injected fault *)
  mutable stalled_until : int; (* not runnable until this decision count *)
}

type trace_event =
  | T_op_start of int  (** harness-assigned operation code *)
  | T_op_end of int
  | T_access of access_kind * int * trace_class  (** kind, line id, service class *)

type trace_entry = { tr_cycle : int; tr_ev : trace_event }

(* Fixed-capacity ring: the newest [cap] entries survive; older ones are
   overwritten ([total] still counts every event ever pushed). *)
type trace_buf = {
  tr_cap : int;
  tr_buf : trace_entry array;
  mutable tr_n : int; (* live entries, <= cap *)
  mutable tr_next : int; (* slot the next push writes *)
  mutable tr_total : int;
}

let dummy_trace_entry = { tr_cycle = 0; tr_ev = T_op_start 0 }

(* In-flight best-effort transaction of the currently-running simulated
   thread (the simulator is cooperative, so one slot suffices). *)
type txn_state = {
  mutable t_cost : int;
  mutable t_undo : (unit -> unit) list; (* newest first *)
  mutable t_lines : int list; (* touched lines, deduplicated *)
  mutable t_written : int list;
  mutable t_nlines : int;
}

type t = {
  plat : P.t;
  nthreads : int;
  jitter : int;
  rng : Ascy_util.Xorshift.t;
  threads : thread array;
  coh_spec : model;
  coh : Cohmodel.inst; (* all line/tag state lives in here *)
  mutable nlines : int; (* allocated line ids (dense, from 0) *)
  counters : mem_counters array;
  events : int array array; (* per-thread algorithm events *)
  mutable cur : int; (* currently-executing simulated thread, or -1 *)
  mutable live : int;
  mutable txn : txn_state option;
  mutable observer : observer option; (* analysis hook; None = zero cost *)
  tracing : bool; (* cheap flag checked on the access hot path *)
  trace : trace_buf array; (* per-thread rings; empty array when off *)
  (* fault-injection state; inert (any_fault = false) unless run is
     given a fault plan, so default paths stay byte-identical *)
  mutable any_fault : bool;
  mutable decisions : int; (* executed steps in the current run *)
  mutable pending_faults : fault_event list; (* sorted by fe_at *)
  mutable crashed_tids : int list; (* newest first *)
  slow_factor : float array; (* per-socket NUMA slowdown multiplier *)
  slow_until : int array; (* decision count the slowdown expires at *)
  pending_msgs : msg_fault list array; (* per-thread FIFO of F_msg tokens *)
}

let create ?(seed = 42) ?(jitter = 0) ?(trace_capacity = 0) ?(model = default_model)
    ~platform ~nthreads () =
  if nthreads < 1 || nthreads > P.hw_threads platform then
    invalid_arg
      (Printf.sprintf "Sim.create: nthreads %d out of range 1..%d for %s" nthreads
         (P.hw_threads platform) platform.P.name);
  (* Count busy hardware threads per core to scale instruction overhead. *)
  let busy = Array.make platform.P.cores 0 in
  for t = 0 to nthreads - 1 do
    let c = P.core_of platform t in
    busy.(c) <- busy.(c) + 1
  done;
  let threads =
    Array.init nthreads (fun tid ->
        let core = P.core_of platform tid in
        let scale = 1.0 +. (platform.P.smt_penalty *. float_of_int (busy.(core) - 1)) in
        {
          tid;
          core;
          socket = P.socket_of platform tid;
          instr_scale = scale;
          clock = 0;
          pend = P_none;
          act = A_start;
          cont = None;
          finished = false;
          crashed = false;
          stalled_until = 0;
        })
  in
  {
    plat = platform;
    nthreads;
    jitter;
    rng = Ascy_util.Xorshift.create seed;
    threads;
    coh_spec = model;
    coh = Cohmodel.instantiate model ~platform;
    nlines = 0;
    counters = Array.init nthreads (fun _ -> fresh_counters ());
    events = Array.init nthreads (fun _ -> Array.make Event.count 0);
    cur = -1;
    live = 0;
    txn = None;
    observer = None;
    any_fault = false;
    decisions = 0;
    pending_faults = [];
    crashed_tids = [];
    slow_factor = Array.make platform.P.sockets 1.0;
    slow_until = Array.make platform.P.sockets 0;
    pending_msgs = Array.make nthreads [];
    tracing = trace_capacity > 0;
    trace =
      (if trace_capacity > 0 then
         Array.init nthreads (fun _ ->
             {
               tr_cap = trace_capacity;
               tr_buf = Array.make trace_capacity dummy_trace_entry;
               tr_n = 0;
               tr_next = 0;
               tr_total = 0;
             })
       else [||]);
  }

(** The coherence model [sim] was created with. *)
let model sim = sim.coh_spec

(** Name of the coherence model [sim] was created with. *)
let model_name sim = model_name_of sim.coh_spec

(* The simulation the calling domain is currently driving.  The
   simulator is single-threaded *per domain*: one domain-local slot
   (Domain.DLS) lets the parallel explorer ([Ascy_sct.Par_explore])
   re-execute independent schedule prefixes on separate domains, each
   driving its own installed simulation, while a single-domain process
   behaves exactly as with the historical global slot. *)
let current_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let new_line_id sim =
  let id = sim.nlines in
  sim.nlines <- id + 1;
  let (Cohmodel.Inst ((module C), cm)) = sim.coh in
  C.on_new_line cm id;
  id

(* ------------------------------------------------------------------ *)
(* Access accounting                                                   *)
(* ------------------------------------------------------------------ *)

let em = P.energy_model

(* Append one event to [tid]'s trace ring (caller checks [sim.tracing]). *)
let trace_push sim tid cycle ev =
  let b = sim.trace.(tid) in
  b.tr_buf.(b.tr_next) <- { tr_cycle = cycle; tr_ev = ev };
  b.tr_next <- (b.tr_next + 1) mod b.tr_cap;
  if b.tr_n < b.tr_cap then b.tr_n <- b.tr_n + 1;
  b.tr_total <- b.tr_total + 1

(* Charge and account one memory access; returns its latency in cycles.
   The core charges the model-independent parts (access/store counts,
   observer notification, instruction overhead and its energy, NUMA
   fault scaling, trace, jitter); the installed coherence model charges
   the service class, its energy, any atomic surcharge, and mutates its
   own line state.  [~notify:false] suppresses only the observer
   callback: a k-CAS commit charges its lines here but reports each
   access/outcome pair itself, in order, from the commit code. *)
let access_cost ?(notify = true) sim th kind line =
  let p = sim.plat in
  let s = th.socket in
  let cnt = sim.counters.(th.tid) in
  cnt.accesses <- cnt.accesses + 1;
  (match kind with Write -> cnt.writes <- cnt.writes + 1 | Read | Rmw -> ());
  (if notify then
     match sim.observer with Some o -> o.obs_access th.tid kind line | None -> ());
  let (Cohmodel.Inst ((module C), cm)) = sim.coh in
  let lat, tcls = C.access cm cnt ~core:th.core ~socket:s kind line in
  (* transient NUMA degradation: scale the memory latency (not the
     instruction overhead) while the thread's socket is slowed *)
  let lat =
    if sim.any_fault && sim.slow_until.(s) > sim.decisions then
      int_of_float (float_of_int lat *. sim.slow_factor.(s))
    else lat
  in
  let instr = int_of_float (float_of_int p.P.c_instr *. th.instr_scale) in
  cnt.energy_nj <- cnt.energy_nj +. em.P.nj_instr;
  if sim.tracing then trace_push sim th.tid th.clock (T_access (kind, line, tcls));
  let j = if sim.jitter > 0 then Ascy_util.Xorshift.below sim.rng (sim.jitter + 1) else 0 in
  lat + instr + j

(* ------------------------------------------------------------------ *)
(* Effects & the MEMORY instance                                       *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | Access : access_kind * int -> unit Effect.t
  | Work_eff : int -> unit Effect.t
  | Kcas_eff : int array -> unit Effect.t
        (** multi-word CAS commit point; the array holds the touched
            lines, sorted and distinct *)

exception Txn_abort

(* Transaction capacity: lines an L1-resident read/write set can hold. *)
let txn_capacity = 64

(* Account one access inside a transaction: abort on conflict (line in
   modified state in another core's cache) or capacity overflow; charge a
   private-hit or LLC-hit estimate.  No coherence state changes until
   commit. *)
let txn_access sim (tx : txn_state) kind line =
  let th = sim.threads.(sim.cur) in
  let (Cohmodel.Inst ((module C), cm)) = sim.coh in
  if C.txn_conflict cm ~core:th.core line then raise Txn_abort;
  if not (List.mem line tx.t_lines) then begin
    tx.t_nlines <- tx.t_nlines + 1;
    if tx.t_nlines > txn_capacity then raise Txn_abort;
    tx.t_lines <- line :: tx.t_lines
  end;
  (match kind with
  | Write | Rmw -> if not (List.mem line tx.t_written) then tx.t_written <- line :: tx.t_written
  | Read -> ());
  let base = C.txn_line_cost cm ~core:th.core line in
  tx.t_cost <- tx.t_cost + base + sim.plat.P.c_instr

let running () = match !(current ()) with Some sim -> sim.cur >= 0 | None -> false

let the_sim () =
  match !(current ()) with
  | Some sim -> sim
  | None -> failwith "Sim: no simulation installed (use Sim.with_sim)"

(** Install (or clear) the analysis {!observer} of [sim].  The hook costs
    one option test per access when unset. *)
let set_observer sim obs = sim.observer <- obs

(* Report an RMW outcome to the observer.  Called after the [Rmw] access
   effect returned, i.e. after the access was committed and charged, on
   the same (still-running) simulated thread. *)
let notify_rmw ok =
  match !(current ()) with
  | Some sim when sim.cur >= 0 && sim.txn = None -> (
      match sim.observer with Some o -> o.obs_rmw sim.cur ok | None -> ())
  | _ -> ()

(** The {!Memory.S} implementation backed by the installed simulation.
    Cells created while a simulation is installed but no simulated thread
    is running (structure setup) cost nothing and start uncached. *)
module Mem : Memory.S with type line = int = struct
  type line = int

  let new_line () = new_line_id (the_sim ())

  type 'a r = { line : int; mutable v : 'a }

  (* Route an access: inside a transaction it is buffered/accounted by
     txn_access; otherwise it is an effect handled by the scheduler. *)
  let access kind line =
    match !(current ()) with
    | Some sim when sim.cur >= 0 -> (
        match sim.txn with
        | Some tx -> txn_access sim tx kind line
        | None -> Effect.perform (Access (kind, line)))
    | _ -> ()

  let in_txn () = match !(current ()) with Some sim -> sim.txn | None -> None

  let log_undo r =
    match in_txn () with
    | Some tx ->
        let old = r.v in
        tx.t_undo <- (fun () -> r.v <- old) :: tx.t_undo
    | None -> ()

  let make line v =
    access Write line;
    { line; v }

  let make_fresh v = make (new_line ()) v

  let get r =
    access Read r.line;
    r.v

  let set r v =
    access Write r.line;
    log_undo r;
    r.v <- v

  let cas r expected desired =
    access Rmw r.line;
    if r.v == expected then begin
      log_undo r;
      r.v <- desired;
      notify_rmw true;
      true
    end
    else begin
      notify_rmw false;
      false
    end

  let fetch_and_add r n =
    access Rmw r.line;
    let old = r.v in
    log_undo r;
    r.v <- old + n;
    notify_rmw true;
    old

  (* Multi-word CAS.  The descriptor internals carry the [kdx_] prefix
     ([ascy lint] rule C confines it to the backend files).  One
     [Kcas_eff] effect is the single scheduling point: the compare, the
     writes and the observer notifications all happen atomically after
     the scheduler resumes us, exactly like the post-effect body of
     [cas], so the commit is one indivisible multi-line step whose
     coherence cost was charged per line at the commit decision. *)
  type kcas_op = Kdx_op : { kdx_cell : 'a r; kdx_exp : 'a; kdx_des : 'a } -> kcas_op

  let kcas_op r ~expected ~desired = Kdx_op { kdx_cell = r; kdx_exp = expected; kdx_des = desired }

  let kdx_check_dup ops =
    let cells = List.map (fun op -> match op with Kdx_op o -> Obj.repr o.kdx_cell) ops in
    let rec dup = function
      | [] -> false
      | c :: rest -> List.exists (fun c' -> c' == c) rest || dup rest
    in
    if dup cells then invalid_arg "Memory.kcas: duplicate cell"

  let kdx_lines ops =
    Array.of_list
      (List.sort_uniq compare (List.map (fun op -> match op with Kdx_op o -> o.kdx_cell.line) ops))

  let kdx_match ops =
    List.for_all (fun op -> match op with Kdx_op o -> o.kdx_cell.v == o.kdx_exp) ops

  let kdx_write ops =
    List.iter
      (fun op ->
        match op with
        | Kdx_op o ->
            log_undo o.kdx_cell;
            o.kdx_cell.v <- o.kdx_des)
      ops

  let kdx_apply ops =
    let ok = kdx_match ops in
    if ok then kdx_write ops;
    ok

  let cas_of_op op = match op with Kdx_op o -> cas o.kdx_cell o.kdx_exp o.kdx_des

  let kcas ops =
    match ops with
    | [] -> true
    | [ op ] -> cas_of_op op (* a 1-CAS is a CAS, with identical accounting *)
    | _ -> (
        kdx_check_dup ops;
        match !(current ()) with
        | Some sim when sim.cur >= 0 -> (
            let lines = kdx_lines ops in
            match sim.txn with
            | Some tx ->
                (* buffered like any transactional RMW, one per line *)
                Array.iter (fun line -> txn_access sim tx Rmw line) lines;
                kdx_apply ops
            | None ->
                Effect.perform (Kcas_eff lines);
                let ok = kdx_apply ops in
                (match sim.observer with
                | Some o ->
                    Array.iter
                      (fun line ->
                        o.obs_access sim.cur Rmw line;
                        o.obs_rmw sim.cur ok)
                      lines
                | None -> ());
                ok)
        | _ -> kdx_apply ops (* setup/prefill: free, like every access *))

  let touch line = access Read line

  let work n =
    match !(current ()) with
    | Some sim when sim.cur >= 0 -> (
        match sim.txn with
        | Some tx -> tx.t_cost <- tx.t_cost + n
        | None -> Effect.perform (Work_eff n))
    | _ -> ()

  let cpu_relax () = work 6

  let self () =
    let sim = the_sim () in
    if sim.cur < 0 then 0 else sim.cur

  let max_threads () = (the_sim ()).nthreads

  let emit code =
    let sim = the_sim () in
    if sim.cur >= 0 then begin
      sim.events.(sim.cur).(code) <- sim.events.(sim.cur).(code) + 1;
      match sim.observer with Some o -> o.obs_event sim.cur code | None -> ()
    end

  let txn f =
    match !(current ()) with
    | Some sim when sim.cur >= 0 && sim.txn = None ->
        let tx =
          { t_cost = sim.plat.P.c_atomic; t_undo = []; t_lines = []; t_written = []; t_nlines = 0 }
        in
        sim.txn <- Some tx;
        (match f () with
        | v ->
            sim.txn <- None;
            (* commit: written lines become exclusively ours *)
            let th = sim.threads.(sim.cur) in
            let (Cohmodel.Inst ((module C), cm)) = sim.coh in
            List.iter
              (fun line -> C.txn_commit cm ~core:th.core ~socket:th.socket line)
              tx.t_written;
            Effect.perform (Work_eff (tx.t_cost + sim.plat.P.c_atomic));
            Some v
        | exception Txn_abort ->
            sim.txn <- None;
            List.iter (fun undo -> undo ()) tx.t_undo;
            sim.counters.(sim.cur).rmw <- sim.counters.(sim.cur).rmw + 1;
            Effect.perform (Work_eff (tx.t_cost + (2 * sim.plat.P.c_atomic)));
            None)
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

(* Binary min-heap of thread ids keyed by thread clocks (ties by tid for
   determinism). *)
module Heap = struct
  type h = { mutable a : int array; mutable n : int; key : int -> int }

  let create cap key = { a = Array.make (max cap 1) 0; n = 0; key }
  let less h x y = h.key x < h.key y || (h.key x = h.key y && x < y)

  let push h x =
    if h.n = Array.length h.a then begin
      let a = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    h.a.(h.n) <- x;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while !i > 0 && less h h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    assert (h.n > 0);
    let top = h.a.(0) in
    h.n <- h.n - 1;
    if h.n > 0 then begin
      h.a.(0) <- h.a.(h.n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.n && less h h.a.(l) h.a.(!s) then s := l;
        if r < h.n && less h h.a.(r) h.a.(!s) then s := r;
        if !s = !i then continue := false
        else begin
          let tmp = h.a.(!s) in
          h.a.(!s) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !s
        end
      done
    end;
    top

  let is_empty h = h.n = 0
end

(** Wraps any exception escaping a simulated thread body: carries the
    tid, the original exception and its backtrace, so harness oracles
    can attribute the failure. *)
exception Thread_failure of int * exn * string

(** [run ?scheduler sim bodies] runs one simulated thread per element of
    [bodies] (length must equal [nthreads]) to completion.  Deterministic
    for a given seed.  Returns the largest thread clock (the makespan, in
    cycles).

    Without [scheduler], threads are resumed smallest-clock-first (plus
    optional jitter folded into access costs) — the free-running hardware
    model.  With [scheduler], every resume decision is delegated to it:
    the callback sees the {!runnable} set with each thread's next
    {!action} and picks the thread to resume, which makes the simulator
    a controlled concurrency tester (see [Ascy_sct]).  The [runnable]
    record passed to the callback is {e reused} across decisions — the
    per-decision hot path allocates nothing — so schedulers must copy
    ({!runnable_copy}) anything they retain past the callback.

    [faults] injects {!fault_event}s keyed by decision index (see
    {!decisions}); with an empty plan both scheduling modes behave
    bit-for-bit as before. *)
let run ?scheduler ?(faults = []) sim bodies =
  if Array.length bodies <> sim.nthreads then invalid_arg "Sim.run: wrong number of bodies";
  (match !(current ()) with
  | Some s when s != sim -> failwith "Sim.run: a different simulation is installed"
  | _ -> current () := Some sim);
  Array.iter
    (fun th ->
      th.clock <- 0;
      th.pend <- P_none;
      th.act <- A_start;
      th.cont <- None;
      th.finished <- false;
      th.crashed <- false;
      th.stalled_until <- 0)
    sim.threads;
  sim.decisions <- 0;
  sim.any_fault <- faults <> [];
  sim.pending_faults <- List.stable_sort (fun a b -> compare a.fe_at b.fe_at) faults;
  sim.crashed_tids <- [];
  Array.fill sim.slow_factor 0 (Array.length sim.slow_factor) 1.0;
  Array.fill sim.slow_until 0 (Array.length sim.slow_until) 0;
  Array.fill sim.pending_msgs 0 (Array.length sim.pending_msgs) [];
  List.iter
    (fun fe ->
      match fe.fe_fault with
      | F_crash | F_stall _ | F_msg _ ->
          if fe.fe_tid < 0 || fe.fe_tid >= sim.nthreads then
            invalid_arg "Sim.run: fault targets an unknown thread"
      | F_numa_slow _ ->
          if fe.fe_tid < 0 || fe.fe_tid >= sim.plat.P.sockets then
            invalid_arg "Sim.run: fault targets an unknown socket")
    faults;
  let handler : (unit, step) Effect.Deep.handler =
    {
      retc = (fun () -> Finished);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Access (kind, line) ->
              Some
                (fun (k : (a, step) Effect.Deep.continuation) ->
                  let th = sim.threads.(sim.cur) in
                  th.pend <- P_access (kind, line);
                  th.act <- A_access (kind, line);
                  th.cont <- Some k;
                  Blocked)
          | Work_eff n ->
              Some
                (fun (k : (a, step) Effect.Deep.continuation) ->
                  let th = sim.threads.(sim.cur) in
                  th.pend <- P_work n;
                  th.act <- A_work n;
                  th.cont <- Some k;
                  Blocked)
          | Kcas_eff lines ->
              Some
                (fun (k : (a, step) Effect.Deep.continuation) ->
                  let th = sim.threads.(sim.cur) in
                  th.pend <- P_kcas lines;
                  th.act <- A_kcas lines;
                  th.cont <- Some k;
                  Blocked)
          | _ -> None);
    }
  in
  let fresh = Array.map (fun b -> Some b) bodies in
  sim.live <- sim.nthreads;
  let makespan = ref 0 in
  (* Resume [tid]: commit its pending access (charging latency), run it
     to its next effect, and record completion.  Returns the step kind. *)
  let exec_step tid =
    let th = sim.threads.(tid) in
    sim.cur <- tid;
    sim.decisions <- sim.decisions + 1;
    let step =
      match fresh.(tid) with
      | Some body ->
          fresh.(tid) <- None;
          (try Effect.Deep.match_with body () handler
           with e -> raise (Thread_failure (tid, e, Printexc.get_backtrace ())))
      | None -> (
          (* commit the pending access, charge its latency, resume *)
          (match th.pend with
          | P_access (kind, line) -> th.clock <- th.clock + access_cost sim th kind line
          | P_work n -> th.clock <- th.clock + int_of_float (float_of_int n *. th.instr_scale)
          | P_kcas lines ->
              (* one atomic commit, but every touched line pays its own
                 RMW coherence cost under the installed model; the
                 observer hears each access/outcome pair from the commit
                 code instead, which knows the outcome *)
              Array.iter
                (fun line -> th.clock <- th.clock + access_cost ~notify:false sim th Rmw line)
                lines
          | P_none -> ());
          th.pend <- P_none;
          match th.cont with
          | Some k ->
              th.cont <- None;
              (try Effect.Deep.continue k ()
               with e -> raise (Thread_failure (tid, e, Printexc.get_backtrace ())))
          | None -> Finished)
    in
    (match step with
    | Finished ->
        th.finished <- true;
        sim.live <- sim.live - 1;
        if th.clock > !makespan then makespan := th.clock
    | Blocked -> ());
    sim.cur <- -1;
    step
  in
  (* Crash-stop [tid]: it never runs again.  A parked continuation is
     discontinued with {!Thread_killed} so wrapping test code can clean
     up; CSDS code installs no such handlers, so anything the corpse
     held — a lock, a half-linked node — stays exactly as it died.  If
     the body swallows the kill, its replacement continuation is
     dropped: the thread is dead either way. *)
  let kill tid =
    let th = sim.threads.(tid) in
    if not (th.finished || th.crashed) then begin
      th.crashed <- true;
      th.pend <- P_none;
      sim.live <- sim.live - 1;
      sim.crashed_tids <- tid :: sim.crashed_tids;
      fresh.(tid) <- None;
      match th.cont with
      | None -> ()
      | Some k ->
          th.cont <- None;
          sim.cur <- tid;
          (try
             match Effect.Deep.discontinue k Thread_killed with Finished | Blocked -> ()
           with
          | Thread_killed -> ()
          | e ->
              sim.cur <- -1;
              raise (Thread_failure (tid, e, Printexc.get_backtrace ())));
          th.cont <- None;
          sim.cur <- -1
    end
  in
  let apply_due_faults () =
    let rec go () =
      match sim.pending_faults with
      | fe :: rest when fe.fe_at <= sim.decisions ->
          sim.pending_faults <- rest;
          (match fe.fe_fault with
          | F_crash -> kill fe.fe_tid
          | F_stall n ->
              let th = sim.threads.(fe.fe_tid) in
              if not (th.finished || th.crashed) then
                th.stalled_until <- sim.decisions + max 0 n
          | F_numa_slow { factor; window } ->
              sim.slow_factor.(fe.fe_tid) <- factor;
              sim.slow_until.(fe.fe_tid) <- sim.decisions + max 0 window
          | F_msg m ->
              (* queue the token; the target thread's next polled message
                 boundary consumes it.  Appended, so a plan that stacks
                 several tokens on one thread delivers them in fe_at
                 order. *)
              sim.pending_msgs.(fe.fe_tid) <- sim.pending_msgs.(fe.fe_tid) @ [ m ]);
          go ()
      | _ -> ()
    in
    go ()
  in
  (match scheduler with
  | None when not sim.any_fault ->
      let heap = Heap.create sim.nthreads (fun tid -> sim.threads.(tid).clock) in
      for tid = 0 to sim.nthreads - 1 do
        Heap.push heap tid
      done;
      while not (Heap.is_empty heap) do
        let tid = Heap.pop heap in
        match exec_step tid with Finished -> () | Blocked -> Heap.push heap tid
      done
  | None ->
      (* Fault-aware free-running loop.  Stalled threads park on a
         waiting list instead of the clock heap; crashed threads are
         dropped wherever they surface.  When every live thread is
         stalled, the decision counter fast-forwards to the earliest
         expiry (nothing else can make progress in between). *)
      let heap = Heap.create sim.nthreads (fun tid -> sim.threads.(tid).clock) in
      for tid = 0 to sim.nthreads - 1 do
        Heap.push heap tid
      done;
      let waiting = ref [] in
      let release_expired () =
        let still, ready =
          List.partition
            (fun tid ->
              let th = sim.threads.(tid) in
              (not th.crashed) && th.stalled_until > sim.decisions)
            !waiting
        in
        waiting := still;
        List.iter (fun tid -> if not sim.threads.(tid).crashed then Heap.push heap tid) ready
      in
      let running = ref true in
      while !running do
        apply_due_faults ();
        release_expired ();
        if Heap.is_empty heap then
          match !waiting with
          | [] -> running := false
          | w ->
              let wake =
                List.fold_left (fun acc tid -> min acc sim.threads.(tid).stalled_until) max_int w
              in
              sim.decisions <- max sim.decisions wake
        else begin
          let tid = Heap.pop heap in
          let th = sim.threads.(tid) in
          if th.crashed then ()
          else if th.stalled_until > sim.decisions then waiting := tid :: !waiting
          else match exec_step tid with Finished -> () | Blocked -> Heap.push heap tid
        end
      done
  | Some choose ->
      (* Controlled loop.  One runnable record is reused for every
         decision: refilling it is plain stores into preallocated
         arrays, and each thread's lookahead action was cached on the
         thread when its effect was performed, so the decision hot path
         allocates nothing. *)
      let runnable =
        {
          Simtypes.rn = 0;
          r_tids = Array.make sim.nthreads 0;
          r_acts = Array.make sim.nthreads A_start;
        }
      in
      while sim.live > 0 do
        if sim.any_fault then apply_due_faults ();
        if sim.live > 0 then begin
          let n = ref 0 in
          for tid = 0 to sim.nthreads - 1 do
            let th = sim.threads.(tid) in
            if (not th.finished) && (not th.crashed) && th.stalled_until <= sim.decisions
            then begin
              runnable.r_tids.(!n) <- tid;
              runnable.r_acts.(!n) <- (if fresh.(tid) <> None then A_start else th.act);
              incr n
            end
          done;
          runnable.rn <- !n;
          if !n = 0 then begin
            (* every live thread is stalled: jump to the earliest expiry *)
            let wake = ref max_int in
            for tid = 0 to sim.nthreads - 1 do
              let th = sim.threads.(tid) in
              if (not th.finished) && (not th.crashed) && th.stalled_until < !wake then
                wake := th.stalled_until
            done;
            sim.decisions <- max sim.decisions !wake
          end
          else begin
            let tid = choose runnable in
            if
              tid < 0 || tid >= sim.nthreads || sim.threads.(tid).finished
              || sim.threads.(tid).crashed
            then
              invalid_arg (Printf.sprintf "Sim.run: scheduler chose non-runnable thread %d" tid);
            ignore (exec_step tid)
          end
        end
      done);
  sim.cur <- -1;
  !makespan

(** Scheduling decisions executed so far in the current/last {!run}.
    This is the coordinate system fault events ([fe_at]) live in: one
    decision per resumed simulator step, shared with SCT schedule
    prefixes so fault plans compose with recorded schedules. *)
let decisions sim = sim.decisions

let is_crashed sim tid = sim.threads.(tid).crashed

(** Tids crash-stopped by injected faults, in injection order. *)
let crashed_tids sim = List.rev sim.crashed_tids

(** Install the coherence model's steady state for every allocated line,
    emulating what a long-running benchmark reaches (the paper measures
    5-second runs).  For the directory models: every line backed by
    every socket's LLC, private caches still cold. *)
let warm sim =
  let (Cohmodel.Inst ((module C), cm)) = sim.coh in
  C.warm cm ~nlines:sim.nlines

(** [with_sim ?seed ?jitter ?model ~platform ~nthreads f] installs a
    fresh simulation, runs [f sim] (which typically builds a structure
    through {!Mem} and then calls {!run}), and uninstalls it. *)
let with_sim ?seed ?jitter ?trace_capacity ?model ~platform ~nthreads f =
  let sim = create ?seed ?jitter ?trace_capacity ?model ~platform ~nthreads () in
  let saved = !(current ()) in
  current () := Some sim;
  Fun.protect ~finally:(fun () -> current () := saved) (fun () -> f sim)

(** Current clock (cycles) of the executing simulated thread. *)
let now () =
  let sim = the_sim () in
  if sim.cur < 0 then 0 else sim.threads.(sim.cur).clock

(** Pop the next {!msg_fault} token queued (by an [F_msg] fault event)
    for the executing simulated thread, if any.  Message boundaries —
    the service layer's shard-queue sends — call this once per send and
    enact the returned behavior on that message.  [None] always when no
    simulation is installed (native runs), no fault plan is active, or
    the caller isn't a simulated thread, so the polling code needs no
    mode switch. *)
let poll_msg_fault () =
  match !(current ()) with
  | Some sim when sim.any_fault && sim.cur >= 0 -> (
      match sim.pending_msgs.(sim.cur) with
      | [] -> None
      | m :: rest ->
          sim.pending_msgs.(sim.cur) <- rest;
          Some m)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Tracing front-end                                                   *)
(* ------------------------------------------------------------------ *)

(** Per-thread trace ring buffers.  Enabled by passing [~trace_capacity]
    (entries retained per thread) to {!create} / {!with_sim}; when off
    — the default — the only cost on the access path is one boolean
    test.  The simulator records every memory access with the coherence
    path that served it; the harness brackets operations with
    {!Trace.op_start} / {!Trace.op_end}. *)
module Trace = struct
  type event = trace_event =
    | T_op_start of int
    | T_op_end of int
    | T_access of access_kind * int * trace_class

  type entry = trace_entry = { tr_cycle : int; tr_ev : trace_event }

  let class_name = Simtypes.trace_class_name

  let enabled sim = sim.tracing

  (* Marks are no-ops unless a traced simulation is installed and a
     simulated thread is executing. *)
  let mark ev =
    match !(current ()) with
    | Some sim when sim.tracing && sim.cur >= 0 ->
        trace_push sim sim.cur sim.threads.(sim.cur).clock ev
    | _ -> ()

  (* Op brackets also notify the installed observer, whether or not the
     rings are on: profiling must not require (or pay for) full traces. *)
  let notify_op f code =
    match !(current ()) with
    | Some sim when sim.cur >= 0 -> (
        match sim.observer with Some o -> f o sim.cur code | None -> ())
    | _ -> ()

  let op_start code =
    notify_op (fun o tid code -> o.obs_op_start tid code) code;
    mark (T_op_start code)

  let op_end code =
    notify_op (fun o tid code -> o.obs_op_end tid code) code;
    mark (T_op_end code)

  (** Events ever pushed to [tid]'s ring (retained or overwritten). *)
  let total sim tid = if sim.tracing then sim.trace.(tid).tr_total else 0

  (** Retained entries of [tid], oldest first. *)
  let entries sim tid =
    if not sim.tracing then []
    else begin
      let b = sim.trace.(tid) in
      let start = (b.tr_next - b.tr_n + b.tr_cap) mod b.tr_cap in
      List.init b.tr_n (fun i -> b.tr_buf.((start + i) mod b.tr_cap))
    end

  let kind_name = function Read -> "R" | Write -> "W" | Rmw -> "RMW"

  let pp_entry ?(op_name = string_of_int) tid e =
    match e.tr_ev with
    | T_op_start code -> Printf.sprintf "t%-3d @%-10d op_start %s" tid e.tr_cycle (op_name code)
    | T_op_end code -> Printf.sprintf "t%-3d @%-10d op_end   %s" tid e.tr_cycle (op_name code)
    | T_access (kind, line, cls) ->
        Printf.sprintf "t%-3d @%-10d %-3s line=%-6d %s" tid e.tr_cycle (kind_name kind) line
          (class_name cls)

  let entry_json tid e =
    let module J = Ascy_util.Json in
    let common = [ ("tid", J.Int tid); ("cycle", J.Int e.tr_cycle) ] in
    J.Obj
      (match e.tr_ev with
      | T_op_start code -> common @ [ ("ev", J.String "op_start"); ("op", J.Int code) ]
      | T_op_end code -> common @ [ ("ev", J.String "op_end"); ("op", J.Int code) ]
      | T_access (kind, line, cls) ->
          common
          @ [
              ("ev", J.String "access");
              ("kind", J.String (kind_name kind));
              ("line", J.Int line);
              ("class", J.String (class_name cls));
            ])

  (** [dump ?json ?op_name oc sim] renders every thread's retained
      entries, oldest first per thread.  Text (default) is one line per
      event; [~json:true] emits one JSON array of event objects. *)
  let dump ?(json = false) ?op_name oc sim =
    if json then begin
      let entries_json =
        List.concat
          (List.init (Array.length sim.trace) (fun tid ->
               List.map (entry_json tid) (entries sim tid)))
      in
      output_string oc (Ascy_util.Json.to_string ~indent:1 (Ascy_util.Json.List entries_json));
      output_string oc "\n"
    end
    else
      Array.iteri
        (fun tid b ->
          Printf.fprintf oc "-- thread %d: %d events (%d retained)\n" tid b.tr_total b.tr_n;
          List.iter (fun e -> Printf.fprintf oc "%s\n" (pp_entry ?op_name tid e)) (entries sim tid))
        sim.trace
end

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type run_stats = {
  makespan_cycles : int;
  seconds : float;
  accesses : int;
  hits_l1 : int;
  hits_llc : int;
  transfers_local : int;
  transfers_remote : int;
  fetch_remote : int;
  misses_mem : int;
  atomics : int;
  stores : int;  (** plain (non-RMW) stores; stores + atomics = all writes *)
  energy_j : float;  (** dynamic + static energy over the makespan *)
  power_w : float;
  events : int array;
}

(** One thread's memory-event counters (the per-thread slice of
    {!run_stats}): every coherence service class — the [Tc_*] trace
    classes — plus plain stores and RMWs, accumulated unconditionally, so
    stores-per-op and cache-line-transfer breakdowns never require the
    trace rings. *)
type thread_stats = {
  t_tid : int;
  t_accesses : int;
  t_l1 : int;
  t_llc : int;
  t_c2c_local : int;
  t_c2c_remote : int;
  t_llc_remote : int;
  t_mem : int;
  t_atomics : int;
  t_stores : int;
  t_energy_nj : float;
}

(** Per-thread counters of the last {!run}, ascending tid. *)
let per_thread_stats sim =
  Array.mapi
    (fun tid (c : mem_counters) ->
      {
        t_tid = tid;
        t_accesses = c.accesses;
        t_l1 = c.l1;
        t_llc = c.llc;
        t_c2c_local = c.c2c_local;
        t_c2c_remote = c.c2c_remote;
        t_llc_remote = c.llc_remote;
        t_mem = c.mem;
        t_atomics = c.rmw;
        t_stores = c.writes;
        t_energy_nj = c.energy_nj;
      })
    sim.counters

(** Aggregate statistics of the last {!run}.  [makespan] is the value
    {!run} returned. *)
let stats sim ~makespan =
  let seconds = float_of_int makespan /. (sim.plat.P.ghz *. 1e9) in
  let agg = fresh_counters () in
  Array.iter
    (fun (c : mem_counters) ->
      agg.accesses <- agg.accesses + c.accesses;
      agg.l1 <- agg.l1 + c.l1;
      agg.llc <- agg.llc + c.llc;
      agg.c2c_local <- agg.c2c_local + c.c2c_local;
      agg.c2c_remote <- agg.c2c_remote + c.c2c_remote;
      agg.llc_remote <- agg.llc_remote + c.llc_remote;
      agg.mem <- agg.mem + c.mem;
      agg.rmw <- agg.rmw + c.rmw;
      agg.writes <- agg.writes + c.writes;
      agg.energy_nj <- agg.energy_nj +. c.energy_nj)
    sim.counters;
  let busy_cores =
    let seen = Array.make sim.plat.P.cores false in
    Array.iter (fun th -> seen.(th.core) <- true) sim.threads;
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen
  in
  let static_j = em.P.w_static_core *. float_of_int busy_cores *. seconds in
  let energy_j = (agg.energy_nj *. 1e-9) +. static_j in
  let events = Array.make Event.count 0 in
  Array.iter (fun row -> Array.iteri (fun i v -> events.(i) <- events.(i) + v) row) sim.events;
  {
    makespan_cycles = makespan;
    seconds;
    accesses = agg.accesses;
    hits_l1 = agg.l1;
    hits_llc = agg.llc;
    transfers_local = agg.c2c_local;
    transfers_remote = agg.c2c_remote;
    fetch_remote = agg.llc_remote;
    misses_mem = agg.mem;
    atomics = agg.rmw;
    stores = agg.writes;
    energy_j;
    power_w = (if seconds > 0.0 then energy_j /. seconds else 0.0);
    events;
  }

(** All accesses that were not private-cache hits. *)
let misses st =
  st.hits_llc + st.transfers_local + st.transfers_remote + st.fetch_remote + st.misses_mem
