(** Workload definitions matching the paper's experimental settings (§4):
    the structure is initialized with [initial] elements; operations pick
    keys uniformly in [1 .. 2*initial] so on average half the operations
    are successful and the size stays near [initial]; the update
    percentage is split between insertions and removals. *)

type t = {
  initial : int;
  key_range : int;
  update_pct : int; (* 0..100; half inserts, half removes *)
}

let make ?key_range ~initial ~update_pct () =
  {
    initial;
    key_range = (match key_range with Some r -> r | None -> 2 * initial);
    update_pct;
  }

(* The three contention levels of Figure 2. *)
let average = make ~initial:4096 ~update_pct:10 ()
let high = make ~initial:512 ~update_pct:25 ()
let low = make ~initial:16384 ~update_pct:10 ()

type op = Search | Insert | Remove

(** The op codes every simulated run brackets its operations with
    ({!Ascy_mem.Sim.Trace.op_start}/[op_end]); {!Ascy_analysis.Profile}
    reads them back, so code [0] is the only read-only op. *)
let op_code = function Search -> 0 | Insert -> 1 | Remove -> 2

let op_name = function 0 -> "search" | 1 -> "insert" | 2 -> "remove" | c -> string_of_int c

(** Zipf-like skewed key popularity (for the paper's brief "non-uniform
    workloads" experiments): exactly a fraction [hot_pct] of accesses hit
    the [hot_keys]-sized prefix of the key range; the rest are uniform
    over the remaining (cold) keys.  When [hot_keys >= key_range] every
    key is hot and the distribution degenerates to uniform. *)
type skew = { hot_keys : int; hot_pct : int }

let pick_key_skewed w skew rng =
  let hot = min skew.hot_keys w.key_range in
  if hot >= w.key_range || Ascy_util.Xorshift.below rng 100 < skew.hot_pct then
    1 + Ascy_util.Xorshift.below rng hot
  else (* cold keys come from the complement of the hot prefix, so the
          effective hot fraction is exactly [hot_pct] *)
    1 + hot + Ascy_util.Xorshift.below rng (w.key_range - hot)

let pick_op w rng =
  (* One draw over [0, 200) so the update range has an even number of
     values for any [update_pct]: splitting [0, update_pct) by parity
     favors inserts whenever [update_pct] is odd (13 even vs 12 odd
     values at the high-contention 25%), drifting the set size upward. *)
  let r = Ascy_util.Xorshift.below rng 200 in
  if r >= 2 * w.update_pct then Search else if r land 1 = 0 then Insert else Remove

let pick_key w rng = 1 + Ascy_util.Xorshift.below rng w.key_range
