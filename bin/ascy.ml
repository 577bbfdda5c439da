(* ascy: the one command-line front door.  Each subcommand lives in its
   own module; `ascy SUB --help` documents its flags. *)

open Cmdliner

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "ascy" ~doc:"ASCYLIB-OCaml: concurrent search data structures and their checkers")
          [
            Bench.cmd; Analyze.cmd; Chaos.cmd; Perf.cmd; Explore.cmd; Serve.cmd; Replay.cmd; Lint.cmd;
          ]))
