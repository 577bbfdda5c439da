(** The default MESI-like inclusive-LLC directory model ({!Cohmodel.S}).

    This is the cost model the repository has always used, extracted
    verbatim from the pre-refactor [Sim] monolith — every counter
    update, energy charge and latency is byte-identical, so existing
    golden results, SCT schedule counts and replay files are unchanged.

    State:
    - a per-core direct-mapped private cache (tag array sized like
      L1+L2),
    - a per-socket inclusive LLC (direct-mapped tag array),
    - a directory per line tracking the owning core (modified state) and
      the sharer set.

    The tag arrays ({!Tag_array}) grow with the lines a run allocates
    and stop at the platform's size, with the same hits and evictions,
    so a short run (one SCT schedule) allocates kilobytes of tags, not
    the platform's megabytes.

    Costs: private hits, local LLC hits, in-socket and cross-socket
    dirty-line transfers, remote clean fetches and DRAM — exactly the
    mechanism the paper identifies as the scalability limiter (stores to
    shared lines invalidate copies and turn other threads' future loads
    into coherence misses). *)

module P = Ascy_platform.Platform
open Simtypes

let name = "mesi"

type t = {
  plat : P.t;
  lines : Tag_array.line_state Ascy_util.Vec.t;
  priv : Tag_array.t; (* per-core private-cache tags *)
  llc : Tag_array.t; (* per-socket LLC tags *)
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

(* Install [line] in [core]'s private cache, evicting (and de-registering)
   whatever direct-mapped slot it lands on. *)
let install_priv t core line =
  let old = Tag_array.install t.priv core line in
  if old >= 0 && old <> line then begin
    let ols = Ascy_util.Vec.get t.lines old in
    Ascy_util.Bits.remove ols.sharers core;
    if ols.owner = core then ols.owner <- -1 (* silent writeback *)
  end

let in_priv t core line = Tag_array.mem t.priv core line

let install_llc t socket line = ignore (Tag_array.install t.llc socket line)
let in_llc t socket line = Tag_array.mem t.llc socket line

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
              (* dirty elsewhere: cache-to-cache transfer, owner demotes *)
              let osock = ls.owner / P.cores_per_socket p in
              Ascy_util.Bits.add ls.sharers ls.owner;
              ls.owner <- -1;
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
              (* clean copy on a remote socket? *)
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
          install_priv t c line;
          install_llc t s line;
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
            (* upgrade: invalidate sharers; pay more if any are remote *)
            let remote_sharer =
              Ascy_util.Bits.exists (fun core -> core / P.cores_per_socket p <> s) ls.sharers
            in
            cnt.energy_nj <- cnt.energy_nj +. em.P.nj_transfer;
            if remote_sharer then begin
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
        (* Invalidate every other copy; this write owns the line. *)
        Ascy_util.Bits.clear ls.sharers;
        ls.owner <- c;
        install_priv t c line;
        install_llc t s line;
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
  install_priv t core line;
  install_llc t socket line

(* Install every allocated line into every socket's LLC: first accesses
   pay LLC latency, not DRAM, and private caches still start cold. *)
let warm t ~nlines =
  for line = 0 to nlines - 1 do
    for s = 0 to t.plat.P.sockets - 1 do
      install_llc t s line
    done
  done
