(* In-memory spans around the benchmark's calls into each layer,
   written at exit as Chrome trace-event JSON (open the file in
   Perfetto or chrome://tracing).  Spans are recorded only by the main
   domain and only while enabled, so an untraced run pays one boolean
   test per boundary. *)

module J = Ascy_util.Json

type span = { id : int; name : string; parent : int; t0 : float; mutable t1 : float }

let enabled = ref false
let spans : span list ref = ref [] (* newest first *)
let open_ids : int list ref = ref [] (* innermost first *)
let next_id = ref 0

let count () = List.length !spans

(** [with_span name f] runs [f], recording a span named [name] whose
    parent is the innermost open span. *)
let with_span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    let s = { id = !next_id; name; parent; t0 = Common.now (); t1 = 0.0 } in
    spans := s :: !spans;
    open_ids := s.id :: !open_ids;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Common.now ();
        open_ids := List.tl !open_ids)
      f
  end

(** Write every recorded span as a Chrome trace ("X" complete events,
    microsecond timestamps relative to the first span). *)
let write path =
  let all = List.rev !spans in
  let base = match all with s :: _ -> s.t0 | [] -> 0.0 in
  let us t = J.Float ((t -. base) *. 1e6) in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String "perfbench");
        ("ph", J.String "X");
        ("ts", us s.t0);
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]);
      ]
  in
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (J.to_string
           (J.Obj [ ("traceEvents", J.List (List.map event all)); ("displayTimeUnit", J.String "ms") ]));
      output_char oc '\n')
