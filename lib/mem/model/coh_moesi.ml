(** An Opteron-style MOESI model with a non-inclusive (victim) LLC
    ({!Cohmodel.S}), for reproducing the paper's cross-platform {e shape}
    differences.

    Two mechanisms distinguish the Opteron from the inclusive-LLC Xeons
    in the paper's measurements, and both are modeled here:

    - {b Owned state}: a read of a line that is dirty in another core's
      cache is served cache-to-cache, but the owner {e keeps} the line
      (state O) instead of demoting to shared-clean.  The next write by
      the owner is a private hit again — but every other core's read
      keeps paying the transfer, so reader/writer sharing stays
      expensive for the readers (the paper's "loads of an Owned line
      are serviced from the remote cache").
    - {b Non-inclusive victim LLC}: the LLC is filled by private-cache
      {e evictions}, not by fetches.  A clean line read from DRAM or a
      remote socket does not get a local LLC backing copy, so re-fetches
      after private eviction keep paying the long path — the
      directory-less HT broadcast behavior that makes the Opteron's
      uncontended latencies worse and its cross-socket sharing costs
      flatter than the Xeons'.

    Writes invalidate every LLC copy (the only valid copy is the
    writer's private one), so a subsequent remote read is a c2c
    transfer, never a stale LLC hit.  Latency constants still come from
    the platform record; this model changes {e which} class an access
    falls in, which is what shapes the curves.

    The tag arrays are {!Tag_array}s, as in {!Coh_mesi}: they grow with
    the lines a run allocates and stop at the platform's size. *)

module P = Ascy_platform.Platform
open Simtypes

let name = "moesi"

type t = {
  plat : P.t;
  lines : Tag_array.line_state Ascy_util.Vec.t;
  priv : Tag_array.t;
  llc : Tag_array.t; (* per-socket victim LLC *)
}

let create ~platform =
  {
    plat = platform;
    lines = Ascy_util.Vec.create ~capacity:64 Tag_array.dummy_line;
    priv = Tag_array.private_caches platform;
    llc = Tag_array.llcs platform;
  }

let on_new_line t id =
  Ascy_util.Vec.push t.lines
    { Tag_array.owner = -1; sharers = Ascy_util.Bits.create t.plat.P.cores };
  Tag_array.grow t.priv id;
  Tag_array.grow t.llc id

let em = P.energy_model

let install_llc t socket line = ignore (Tag_array.install t.llc socket line)
let in_llc t socket line = Tag_array.mem t.llc socket line

(* Victim-cache fill: a line evicted from a private cache lands in its
   socket's LLC — the only way the LLC is filled outside [warm]. *)
let install_priv t core socket line =
  let old = Tag_array.install t.priv core line in
  if old >= 0 && old <> line then begin
    let ols = Ascy_util.Vec.get t.lines old in
    Ascy_util.Bits.remove ols.sharers core;
    if ols.owner = core then ols.owner <- -1 (* writeback into the victim LLC *);
    install_llc t socket old
  end

let in_priv t core line = Tag_array.mem t.priv core line

let access t cnt ~core:c ~socket:s kind line =
  let p = t.plat in
  let ls = Ascy_util.Vec.get t.lines line in
  let tcls = ref Tc_l1 in
  let have_copy = in_priv t c line && (ls.owner = c || Ascy_util.Bits.mem ls.sharers c) in
  let lat =
    match kind with
    | Read ->
        if have_copy then begin
          cnt.l1 <- cnt.l1 + 1;
          cnt.energy_nj <- cnt.energy_nj +. em.P.nj_l1;
          p.P.c_l1
        end
        else begin
          let lat =
            if ls.owner >= 0 then begin
              (* dirty elsewhere: served cache-to-cache; the owner keeps
                 the line in Owned state (no demotion — the MOESI
                 difference) *)
              let osock = ls.owner / P.cores_per_socket p in
              cnt.energy_nj <- cnt.energy_nj +. em.P.nj_transfer;
              if osock = s then begin
                cnt.c2c_local <- cnt.c2c_local + 1;
                tcls := Tc_c2c_local;
                p.P.c_c2c_local
              end
              else begin
                cnt.c2c_remote <- cnt.c2c_remote + 1;
                tcls := Tc_c2c_remote;
                p.P.c_c2c_remote
              end
            end
            else if in_llc t s line then begin
              cnt.llc <- cnt.llc + 1;
              cnt.energy_nj <- cnt.energy_nj +. em.P.nj_llc;
              tcls := Tc_llc;
              p.P.c_llc
            end
            else begin
              let remote = ref false in
              for os = 0 to p.P.sockets - 1 do
                if os <> s && in_llc t os line then remote := true
              done;
              if !remote then begin
                cnt.llc_remote <- cnt.llc_remote + 1;
                cnt.energy_nj <- cnt.energy_nj +. em.P.nj_transfer;
                tcls := Tc_llc_remote;
                p.P.c_llc_remote
              end
              else begin
                cnt.mem <- cnt.mem + 1;
                cnt.energy_nj <- cnt.energy_nj +. em.P.nj_mem;
                tcls := Tc_mem;
                p.P.c_mem
              end
            end
          in
          Ascy_util.Bits.add ls.sharers c;
          (* non-inclusive: the fetched copy goes to the private cache
             only; no LLC fill on a fetch *)
          install_priv t c s line;
          lat
        end
    | Write | Rmw ->
        let base =
          if ls.owner = c && in_priv t c line then begin
            cnt.l1 <- cnt.l1 + 1;
            cnt.energy_nj <- cnt.energy_nj +. em.P.nj_l1;
            p.P.c_l1
          end
          else if ls.owner >= 0 then begin
            let osock = ls.owner / P.cores_per_socket p in
            cnt.energy_nj <- cnt.energy_nj +. em.P.nj_transfer;
            if osock = s then begin
              cnt.c2c_local <- cnt.c2c_local + 1;
              tcls := Tc_c2c_local;
              p.P.c_c2c_local
            end
            else begin
              cnt.c2c_remote <- cnt.c2c_remote + 1;
              tcls := Tc_c2c_remote;
              p.P.c_c2c_remote
            end
          end
          else if not (Ascy_util.Bits.is_empty ls.sharers) || in_llc t s line then begin
            (* upgrade: without an inclusive directory the invalidation
               is an HT broadcast probe — remote-priced whenever any
               remote cache could hold a copy *)
            let remote_copy =
              Ascy_util.Bits.exists (fun core -> core / P.cores_per_socket p <> s) ls.sharers
              ||
              let r = ref false in
              for os = 0 to p.P.sockets - 1 do
                if os <> s && in_llc t os line then r := true
              done;
              !r
            in
            cnt.energy_nj <- cnt.energy_nj +. em.P.nj_transfer;
            if remote_copy then begin
              cnt.llc_remote <- cnt.llc_remote + 1;
              tcls := Tc_llc_remote;
              p.P.c_llc_remote
            end
            else begin
              cnt.llc <- cnt.llc + 1;
              tcls := Tc_llc;
              p.P.c_llc
            end
          end
          else begin
            cnt.mem <- cnt.mem + 1;
            cnt.energy_nj <- cnt.energy_nj +. em.P.nj_mem;
            tcls := Tc_mem;
            p.P.c_mem
          end
        in
        Ascy_util.Bits.clear ls.sharers;
        ls.owner <- c;
        install_priv t c s line;
        (* every LLC copy is now stale: the only valid copy is the
           writer's private (M-state) one *)
        for os = 0 to p.P.sockets - 1 do
          Tag_array.evict t.llc os line
        done;
        let extra =
          match kind with
          | Rmw ->
              cnt.rmw <- cnt.rmw + 1;
              p.P.c_atomic
          | Read | Write -> 0
        in
        base + extra
  in
  (lat, !tcls)

let txn_conflict t ~core line =
  let ls = Ascy_util.Vec.get t.lines line in
  ls.owner >= 0 && ls.owner <> core

let txn_line_cost t ~core line = if in_priv t core line then t.plat.P.c_l1 else t.plat.P.c_llc

let txn_commit t ~core ~socket line =
  let ls = Ascy_util.Vec.get t.lines line in
  Ascy_util.Bits.clear ls.sharers;
  ls.owner <- core;
  install_priv t core socket line

(* Steady state: the victim LLCs have absorbed a long run's evictions,
   so every line has a backing copy on every socket. *)
let warm t ~nlines =
  for line = 0 to nlines - 1 do
    for s = 0 to t.plat.P.sockets - 1 do
      install_llc t s line
    done
  done
