(** Direct-mapped cache tag arrays that grow with the line ids a run
    allocates, shared by the directory models ({!Coh_mesi},
    {!Coh_moesi}).

    A [t] is one bank of tags per cache (one per core for the private
    caches, one per socket for the LLCs), all of the same power-of-two
    length.  Slot [line land mask] holds the line cached there, or [-1].

    The platform fixes each array's size (its [cap]), but a run that
    touches a few hundred lines should not pay for megabytes of tags, so
    a [t] starts at {!initial_slots} and {!grow} doubles it as line ids
    arrive, until it reaches [cap].  This changes no lookup: line ids
    are dense from 0 and {!grow} runs before a line is first accessed,
    so while the array is shorter than [cap] every live line is below
    its length and [line land mask = line land (cap - 1) = line].  The
    grown array holds exactly the slots the full-size one would, and
    nothing collides that would not collide there. *)

module P = Ascy_platform.Platform

(** Directory entry of one line: the core holding it modified (or -1)
    and the cores holding a copy. *)
type line_state = { mutable owner : int; sharers : Ascy_util.Bits.t }

let dummy_line = { owner = -1; sharers = Ascy_util.Bits.create 1 }

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

type t = { mutable banks : int array array; mutable mask : int; cap : int }

let initial_slots = 64

(** [create ~banks ~cap] is [banks] empty tag arrays that grow up to
    [cap] slots (a power of two). *)
let create ~banks ~cap =
  let n = min initial_slots cap in
  { banks = Array.init banks (fun _ -> Array.make n (-1)); mask = n - 1; cap }

(** Private caches: one bank per core, sized like L1+L2. *)
let private_caches platform =
  create ~banks:platform.P.cores ~cap:(pow2_at_least (min platform.P.l1_lines 16384) 64)

(** Shared LLCs: one bank per socket. *)
let llcs platform =
  create ~banks:platform.P.sockets ~cap:(pow2_at_least (min platform.P.llc_lines 524288) 1024)

(** Make room for line [id]: called once per allocated line, in order. *)
let grow t id =
  let len = t.mask + 1 in
  if id >= len && len < t.cap then begin
    let len' = min t.cap (pow2_at_least (id + 1) len) in
    t.banks <-
      Array.map
        (fun a ->
          let a' = Array.make len' (-1) in
          Array.blit a 0 a' 0 len;
          a')
        t.banks;
    t.mask <- len' - 1
  end

let mem t bank line = t.banks.(bank).(line land t.mask) = line

(** Put [line] in its slot of [bank]; returns the slot's previous
    occupant (-1 if it was empty, [line] if it was already there). *)
let install t bank line =
  let a = t.banks.(bank) in
  let slot = line land t.mask in
  let old = a.(slot) in
  a.(slot) <- line;
  old

(** Drop [line] from [bank] if it is cached there. *)
let evict t bank line =
  let a = t.banks.(bank) in
  let slot = line land t.mask in
  if a.(slot) = line then a.(slot) <- -1
