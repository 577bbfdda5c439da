(* Two workers for the native workloads: the main domain and one helper
   domain spawned once per process.  Spawning a domain per measurement
   would exhaust Mem_native's thread ids (it assigns one per domain and
   never recycles them), so the helper is kept and fed jobs. *)

let m = Mutex.create ()
let c = Condition.create ()
let job : (unit -> unit) option ref = ref None
let finished = ref false
let quit = ref false

let helper =
  lazy
    (Domain.spawn (fun () ->
         let rec loop () =
           Mutex.lock m;
           while !job = None && not !quit do
             Condition.wait c m
           done;
           match !job with
           | None -> Mutex.unlock m
           | Some f ->
               job := None;
               Mutex.unlock m;
               f ();
               Mutex.lock m;
               finished := true;
               Condition.broadcast c;
               Mutex.unlock m;
               loop ()
         in
         loop ()))

(** [run2 f] runs [f 0] on the calling domain and [f 1] on the helper,
    released together from a start barrier; returns both results. *)
let run2 f =
  ignore (Lazy.force helper);
  let arrived = Atomic.make 0 in
  let barrier () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done
  in
  let r1 = ref None in
  Mutex.lock m;
  finished := false;
  job := Some (fun () -> barrier (); r1 := Some (try Ok (f 1) with e -> Error e));
  Condition.broadcast c;
  Mutex.unlock m;
  barrier ();
  let r0 = f 0 in
  Mutex.lock m;
  while not !finished do
    Condition.wait c m
  done;
  Mutex.unlock m;
  match Option.get !r1 with Ok x -> (r0, x) | Error e -> raise e

(** Stop and join the helper, if it was started. *)
let shutdown () =
  if Lazy.is_val helper then begin
    Mutex.lock m;
    quit := true;
    Condition.broadcast c;
    Mutex.unlock m;
    Domain.join (Lazy.force helper)
  end
