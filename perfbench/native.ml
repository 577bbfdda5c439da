(* The native workloads: a closed loop on two real domains over
   Mem_native, five algorithms from the four families, one phase per
   workload.

   - native-read: 1% updates on a key range larger than the host's L2
     (lists get a smaller range: a list op walks half the list);
   - native-update: 50% updates on 1024 keys.

   The run is split into epochs.  Each epoch builds, prefills and warms
   a fresh structure per algorithm (setup), then measures short time
   slices round-robin over the algorithms until the epoch's share of
   the run is spent.  The first epoch runs cold and counts neither its
   setup nor its slices; each later one gives one [setup_s] sample.  At
   the end of every epoch each structure is checked: [validate], plus conservation (final size = prefilled size
   + successful inserts - successful removes). *)

open Common
module N = Ascy_mem.Mem_native
module Registry = Ascylib.Registry

type phase = {
  pname : string;
  update_pct : int;
  initial : int;
  key_range : int;
  list_initial : int;
  list_range : int;
  warm_ops : int;  (** warm-up operations per worker, counted in setup *)
  list_warm_ops : int;
}

let phase ~tiny = function
  | "read" when tiny ->
      {
        pname = "read";
        update_pct = 1;
        initial = 2048;
        key_range = 4096;
        list_initial = 256;
        list_range = 512;
        warm_ops = 1_000;
        list_warm_ops = 100;
      }
  | "read" ->
      (* 2^14 elements: over 4 MB of nodes and cells per structure, beyond
         a 2 MB per-core L2 *)
      {
        pname = "read";
        update_pct = 1;
        initial = 16_384;
        key_range = 32_768;
        list_initial = 4_096;
        list_range = 8_192;
        warm_ops = 20_000;
        list_warm_ops = 1_000;
      }
  | _ ->
      let warm_ops = if tiny then 1_000 else 50_000 in
      {
        pname = "update";
        update_pct = 50;
        initial = 512;
        key_range = 1_024;
        list_initial = 512;
        list_range = 1_024;
        warm_ops;
        list_warm_ops = warm_ops / 5;
      }

(* Key and operation draws: a SplitMix-style mixer over a Weyl sequence
   on native ints, seeded from --seed.  Unlike Ascy_util.Xorshift (boxed
   int64 state) it allocates nothing, so the measured loop's allocation
   is the structure's own. *)
let golden = 0x1E3779B97F4A7C15

let[@inline] mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

type slice = { ops : int; upd : int; ins : int; rem : int; secs : float; minor : float }

let add a b =
  {
    ops = a.ops + b.ops;
    upd = a.upd + b.upd;
    ins = a.ins + b.ins;
    rem = a.rem + b.rem;
    secs = Float.max a.secs b.secs;
    minor = a.minor +. b.minor;
  }

type sample = {
  rate : float;  (** operations per second, both workers *)
  meas : slice;
  restarts : int;
  cas_fails : int;
}

(* One algorithm's structure for one epoch: [setup] is the time to
   build, prefill and warm it up; [measure] runs one slice on both
   domains; [verify] checks the structure once the epoch is over. *)
type inst = { setup : float; measure : float -> sample; verify : unit -> unit }

let build ctx r ph ~epoch name =
  let entry = Registry.by_name name in
  let (module A : Ascy_core.Set_intf.MAKER) = entry.Registry.maker in
  let module M = A (N) in
  let is_list = entry.Registry.family = Ascy_core.Ascy.Linked_list in
  let initial = if is_list then ph.list_initial else ph.initial in
  let range = if is_list then ph.list_range else ph.key_range in
  let salt = (ctx.seed * 1_000_003) + (Hashtbl.hash name * 101) + (epoch * 7) in
  let upd_pct = ph.update_pct in
  let loop t ~stream ~max_ops ~stop_at w =
    let x = ref (salt + (stream * 65_537) + (w * 104_729)) in
    let ops = ref 0 and upd = ref 0 and ins = ref 0 and rem = ref 0 in
    let minor0 = Gc.minor_words () in
    let t0 = now () in
    let go = ref true in
    while !go do
      for _ = 1 to 32 do
        x := !x + golden;
        let k = 1 + (mix !x mod range) in
        x := !x + golden;
        (* as Ascy_harness.Workload.pick_op: one value in [0, 200), the
           update share split evenly between inserts and removes *)
        let d = mix !x mod 200 in
        if d >= 2 * upd_pct then ignore (M.search t k)
        else begin
          incr upd;
          if d land 1 = 0 then (if M.insert t k w then incr ins)
          else if M.remove t k then incr rem
        end;
        M.op_done t
      done;
      ops := !ops + 32;
      if !ops >= max_ops || now () >= stop_at then go := false
    done;
    { ops = !ops; upd = !upd; ins = !ins; rem = !rem; secs = now () -. t0; minor = Gc.minor_words () -. minor0 }
  in
  let both f = let a, b = Team.run2 f in add a b in
  let (t, size0, warm), setup =
    Span.with_span (name ^ ".setup") (fun () ->
        time (fun () ->
            let t = M.create ~hint:initial () in
            let x = ref salt and filled = ref 0 in
            Span.with_span "prefill" (fun () ->
                while !filled < initial do
                  x := !x + golden;
                  if M.insert t (1 + (mix !x mod range)) 0 then incr filled
                done);
            let warm =
              Span.with_span "warm-up" (fun () ->
                  both
                    (loop t ~stream:1
                       ~max_ops:(if is_list then ph.list_warm_ops else ph.warm_ops)
                       ~stop_at:infinity))
            in
            (t, !filled, warm)))
  in
  let net = ref (warm.ins - warm.rem) and slices = ref 0 in
  r.attempted <- r.attempted + warm.ops;
  let measure slice_s =
    incr slices;
    N.reset_events ();
    let meas =
      Span.with_span (name ^ "." ^ ph.pname) (fun () ->
          both (loop t ~stream:(1 + !slices) ~max_ops:max_int ~stop_at:(now () +. slice_s)))
    in
    let ev = N.total_events () in
    r.attempted <- r.attempted + meas.ops;
    net := !net + meas.ins - meas.rem;
    {
      rate = float_of_int meas.ops /. meas.secs;
      meas;
      restarts = ev.(Ascy_mem.Event.restart);
      cas_fails = ev.(Ascy_mem.Event.cas_fail);
    }
  in
  let verify () =
    let where = Printf.sprintf "%s %s epoch %d" name ph.pname epoch in
    (match M.validate t with Ok () -> () | Error msg -> check r false (where ^ ": validate: " ^ msg));
    let got = M.size t in
    check r (got = size0 + !net)
      (Printf.sprintf "%s: conservation: size %d, expected %d (prefill %d + inserts - removes)" where
         got (size0 + !net) size0)
  in
  { setup; measure; verify }

(* ------------------------------------------------------------------ *)
(* Layer micro-benchmarks (traced runs)                                *)
(* ------------------------------------------------------------------ *)

(* ns per iteration of [f n]: median of five repetitions *)
let ns_per n f =
  median
    (List.init 5 (fun _ ->
         let (), dt = time (fun () -> f n) in
         dt *. 1e9 /. float_of_int n))

let micro ctx r =
  let n = if ctx.tiny then 10_000 else 2_000_000 in
  let cell = N.make_fresh 0 in
  Span.with_span "mem_native" (fun () ->
      set r "mem_native.get_ns"
        (ns_per n (fun n ->
             let acc = ref 0 in
             for _ = 1 to n do
               acc := !acc + N.get cell
             done;
             ignore (Sys.opaque_identity !acc)));
      set r "mem_native.set_ns" (ns_per n (fun n -> for i = 1 to n do N.set cell i done));
      set r "mem_native.cas_ns"
        (ns_per n (fun n ->
             N.set cell 0;
             for i = 0 to n - 1 do
               ignore (N.cas cell i (i + 1))
             done));
      set r "mem_native.faa_ns"
        (ns_per n (fun n -> for _ = 1 to n do ignore (N.fetch_and_add cell 1) done));
      let a = N.make_fresh 0 and b = N.make_fresh 0 in
      set r "mem_native.kcas2_ns"
        (ns_per (n / 10) (fun n ->
             N.set a 0;
             N.set b 0;
             for i = 0 to n - 1 do
               let ok =
                 N.kcas [ N.kcas_op a ~expected:i ~desired:(i + 1); N.kcas_op b ~expected:i ~desired:(i + 1) ]
               in
               if not ok then check r false "mem_native: uncontended kcas failed"
             done)));
  Span.with_span "locks" (fun () ->
      let n = n / 4 in
      let module T = Ascy_locks.Ticket.Make (N) in
      let module S = Ascy_locks.Ttas.Make (N) in
      let module Q = Ascy_locks.Mcs.Make (N) in
      let tl = T.create_fresh () and sl = S.create_fresh () and ql = Q.create_fresh () in
      set r "locks.ticket_ns" (ns_per n (fun n -> for _ = 1 to n do T.acquire tl; T.release tl done));
      set r "locks.ttas_ns" (ns_per n (fun n -> for _ = 1 to n do S.acquire sl; S.release sl done));
      set r "locks.mcs_ns" (ns_per n (fun n -> for _ = 1 to n do Q.release ql (Q.acquire ql) done));
      (* two domains hammering one ticket lock: time per acquisition *)
      let n2 = n / 10 in
      let shared = ref 0 in
      let (d0, d1) =
        Team.run2 (fun _ ->
            snd
              (time (fun () ->
                   for _ = 1 to n2 do
                     T.acquire tl;
                     incr shared;
                     T.release tl
                   done)))
      in
      check r (!shared = 2 * n2) "locks: ticket lock lost an increment at 2 domains";
      set r "locks.ticket_2d_ns" (Float.max d0 d1 *. 1e9 /. float_of_int (2 * n2)))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ctx r pname =
  let ph = phase ~tiny:ctx.tiny pname in
  if ctx.trace then micro ctx r;
  (* Short slices interleaved across the algorithms, so that a burst of
     host noise lands on every algorithm instead of on one: medians over
     many slices then absorb it.  The first epoch only warms the heap
     and the helper domain (its set-ups and slices ran measurably
     slower), so it is not counted. *)
  let slice_s = if ctx.tiny then 0.02 else 0.1 in
  let epochs = setup_samples + 1 in
  let samples = Hashtbl.create 8 in
  let setups = ref [] in
  let t_start = now () in
  for epoch = 0 to epochs - 1 do
    Span.with_span (Printf.sprintf "epoch %d" epoch) (fun () ->
        let insts = List.map (fun name -> (name, build ctx r ph ~epoch name)) native_algos in
        if epoch > 0 then setups := List.fold_left (fun acc (_, i) -> acc +. i.setup) 0.0 insts :: !setups;
        Gc.full_major ();
        let stop = t_start +. (ctx.seconds *. float_of_int (epoch + 1) /. float_of_int epochs) in
        let first = ref true in
        while !first || now () < stop do
          first := false;
          List.iter
            (fun (name, i) ->
              let smp = i.measure slice_s in
              if epoch > 0 then
                Hashtbl.replace samples name
                  (smp :: Option.value ~default:[] (Hashtbl.find_opt samples name)))
            insts;
          (* every round starts from a collected heap, so a major cycle
             does not land at random on one algorithm's slice; this cut
             the run-to-run spread of ops_per_s from about 0.08 to 0.03
             on native-read and that of heap_peak_mb from about 0.1 to
             0.02 on native-update *)
          Gc.full_major ()
        done;
        List.iter (fun (_, i) -> i.verify ()) insts)
  done;
  let per name = Hashtbl.find samples name in
  let rate name = rate_of (List.map (fun s -> s.rate) (per name)) in
  set r "setup_s" (median !setups);
  set r "ops_per_s" (geomean (List.map rate native_algos));
  let suffix = ph.pname ^ "_mops" in
  let total f = List.fold_left (fun acc name -> List.fold_left (fun a s -> a + f s) acc (per name)) 0 native_algos in
  List.iter
    (fun name ->
      let ss = per name in
      let sum f = List.fold_left (fun a s -> a + f s) 0 ss in
      set r (algo_metric name suffix) (rate name /. 1e6);
      set r (algo_metric name "restarts_per_op")
        (ratio (float_of_int (sum (fun s -> s.restarts))) (float_of_int (sum (fun s -> s.meas.ops))));
      set r (algo_metric name "cas_fail_per_update")
        (ratio (float_of_int (sum (fun s -> s.cas_fails))) (float_of_int (sum (fun s -> s.meas.upd)))))
    native_algos;
  let minor =
    List.fold_left (fun acc name -> List.fold_left (fun a s -> a +. s.meas.minor) acc (per name)) 0.0 native_algos
  in
  set r "mem_native.minor_words_per_op" (ratio minor (float_of_int (total (fun s -> s.meas.ops))));
  let module J = Ascy_util.Json in
  note r "epochs" (J.Int epochs);
  note r ("native_" ^ suffix)
    (J.Obj
       [
         ("value", J.Float (geomean (List.map rate native_algos) /. 1e6));
         ("unit", J.String "Mops/s");
         ("aggregate", J.String "geometric mean over algorithms of the upper-quartile slice rate");
         ("slices_per_algorithm", J.Int (List.length (per (List.hd native_algos))));
         ( "per_algorithm",
           J.Obj (List.map (fun name -> (name, J.Float (rate name /. 1e6))) native_algos) );
       ]);
  note r "phase"
    (J.Obj
       [
         ("update_pct", J.Int ph.update_pct);
         ("initial", J.Int ph.initial);
         ("key_range", J.Int ph.key_range);
         ("list_initial", J.Int ph.list_initial);
         ("list_key_range", J.Int ph.list_range);
         ("domains", J.Int 2);
         ("slice_s", J.Float slice_s);
       ])
