(* Terms shared by the ascy subcommands.  Each yields a value the
   library calls already take; a malformed value is a usage error
   (exit 124) that lists the valid choices. *)

open Cmdliner
module Sim = Ascy_mem.Sim
module Registry = Ascylib.Registry

(* An enum over [names] whose values are [of_name n]: the enum keeps
   cmdliner's prefix matching and its "expected one of" message
   without comparing the (closure-carrying) values themselves. *)
let named names of_name name_of =
  let e = Arg.enum (List.map (fun n -> (n, n)) names) in
  Arg.conv
    ( (fun s -> Result.map of_name (Arg.conv_parser e s)),
      fun ppf v -> Format.pp_print_string ppf (name_of v) )

let out =
  Arg.(
    value & opt string "."
    & info [ "out" ] ~docv:"DIR" ~doc:"Directory for the JSON artifacts; created if missing.")

let model_doc =
  "Coherence cost model: mesi (inclusive-LLC directory), moesi (Opteron-style \
   non-inclusive), or flat (uniform cost; not meaningful for measurement)."

let model default =
  let models = named (Sim.model_names ()) Sim.model_of_name Sim.model_name_of in
  Arg.(value & opt models default & info [ "model" ] ~docv:"MODEL" ~doc:model_doc)

(* bench's --model also takes auto ([None]): the platform's preferred model. *)
let model_or_auto =
  let models =
    named
      (Sim.model_names () @ [ "auto" ])
      (function "auto" -> None | n -> Some (Sim.model_of_name n))
      (function Some m -> Sim.model_name_of m | None -> "auto")
  in
  Arg.(
    value
    & opt models (Some Sim.default_model)
    & info [ "model" ] ~docv:"MODEL"
        ~doc:(model_doc ^ " auto picks the platform's preferred model."))

let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"N" ~doc:"Deterministic seed.")

let algo =
  named
    (List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.all)
    Registry.by_name
    (fun e -> e.Registry.name)

(* Positional registry NAMEs; none given means [default] (the whole
   registry unless the command says otherwise). *)
let algos ?(default = Term.const Registry.all) () =
  Term.(
    const (fun default -> function [] -> default | es -> es)
    $ default
    $ Arg.(
        value & pos_all algo []
        & info [] ~docv:"NAME" ~doc:"Registry algorithms to run (default: all)."))

(* The " [model X]" banner suffix; empty for the default model. *)
let model_suffix m =
  let mn = Sim.model_name_of m in
  if mn = Sim.model_name_of Sim.default_model then "" else " [model " ^ mn ^ "]"
