(* Write detection behind one interface (paper, sections 3.3-3.5).

   Every backend implements the same contract — trap a store, collect a
   processor's modifications when a synchronization object is
   transferred, apply them at the receiver — as an instance of [t]: a
   record of operations closed over one processor's detection state.
   [create] is the only place that knows which backends exist; the
   runtime holds one instance per (processor, backend in use) and calls
   through the record. *)

module Space = Midway_memory.Space
module Region = Midway_memory.Region
module Counters = Midway_stats.Counters
module Cost_model = Midway_stats.Cost_model

type env = {
  cfg : Config.t;
  space : Space.t;
  lamport : int array;  (* per-processor Lamport clocks *)
  global_seen : Timestamp.t array;
      (* untargetted mode: per-processor everything-consistent-as-of cursor *)
  untargetted_history : (int, Timestamp.t) Hashtbl.t;
      (* untargetted update-queue mode: global line -> stamp history *)
  guard_stale : bool;  (* the reliable channel may replay a logical update *)
}

let env (cfg : Config.t) space ~guard_stale =
  {
    cfg;
    space;
    lamport = Array.make cfg.nprocs 1;
    global_seen = Array.make cfg.nprocs Timestamp.never_seen;
    untargetted_history = Hashtbl.create 64;
    guard_stale;
  }

type proc = { env : env; id : int; counters : Counters.t; gather : Gather.t }

let proc env ~id ~counters = { env; id; counters; gather = Gather.create () }

type collection = { payload : Payload.t; ns : int; cursor : int; rebound : bool }

type t = {
  note : string;
  trap : Region.t -> int -> int -> int;
  collect_lock : Sync.lock -> for_:int -> collection;
  collect_barrier : Sync.barrier -> collection;
  apply : id:int -> ranges:Range.t list -> Payload.t -> int;
  advance : Sync.lock -> releaser:int -> requester:int -> int -> unit;
  install_replica : Sync.lock -> Payload.vm_piece list -> int;
  forget : Region.t -> unit;
  stray_dirty_lines : Sync.lock -> int list;
  untwinned_pages : unit -> int list;
  table_lines : Region.t -> int;
}

let electable = function
  | Config.Rt | Config.Vm | Config.Twin | Config.Blast -> true
  | Config.Vm_fine | Config.Standalone -> false

let carries_barrier_data = function
  | Config.Blast | Config.Standalone -> false
  | Config.Rt | Config.Vm | Config.Twin | Config.Vm_fine -> true

let region_of p addr = Space.region_of_addr p.env.space addr

let read_pieces p ranges = Payload.read_pieces p.env.space ~proc:p.id ranges

(* Snapshot a run's bytes out of the collector's memory: one blit. *)
let run_reader p ~addr ~len = Space.read_bytes p.env.space ~proc:p.id addr ~len

let fresh_stamp p =
  let time = p.env.lamport.(p.id) + 1 in
  p.env.lamport.(p.id) <- time;
  Timestamp.make ~time ~proc:p.id ~nprocs:p.env.cfg.nprocs

let count_scanned p ranges fresh_bytes =
  let c = p.counters in
  c.bound_bytes_scanned <- c.bound_bytes_scanned + Range.total_bytes (Range.normalize ranges);
  c.dirty_bytes_found <- c.dirty_bytes_found + fresh_bytes

let lines_payload lines = if lines = [] then Payload.Empty else Payload.Rt_lines lines

let pieces_payload pieces = if pieces = [] then Payload.Empty else Payload.Vm_full pieces

(* A requester whose timestamp cursor is unset (a first transfer, or one
   after a rebinding reset it) receives the whole binding. *)
let rt_unseen (l : Sync.lock) ~for_ = l.Sync.rt_last_seen.(for_) = Timestamp.never_seen

let no_lines (_ : Sync.lock) = []

let no_pages () = []

let no_table (_ : Region.t) = 0

(* ------------------------------------------------------------------ *)
(* RT: dirtybit timestamps                                             *)
(* ------------------------------------------------------------------ *)

let lines_touched (region : Region.t) addr len =
  let first = (addr - Region.base region) / region.line_size in
  let last = (addr + max len 1 - 1 - Region.base region) / region.line_size in
  last - first + 1

let rt_trap p db =
  let cost = p.env.cfg.cost in
  let per_line =
    match p.env.cfg.rt_mode with
    | Config.Plain -> cost.dirtybit_set_ns
    | Config.Two_level -> cost.dirtybit_set_ns + cost.cycle_ns
    | Config.Update_queue -> 3 * cost.dirtybit_set_ns
  in
  fun (region : Region.t) addr len ->
    let c = p.counters in
    match region.kind with
    | Region.Private ->
        (* Misclassified write: the region's null template returns after
           six instructions. *)
        c.dirtybits_misclassified <- c.dirtybits_misclassified + 1;
        c.trap_time_ns <- c.trap_time_ns + cost.dirtybit_set_private_ns;
        cost.dirtybit_set_private_ns
    | Region.Shared ->
        let n = lines_touched region addr len in
        Dirtybits.note_write db ~region ~addr ~len;
        c.dirtybits_set <- c.dirtybits_set + n;
        let ns = n * per_line in
        c.trap_time_ns <- c.trap_time_ns + ns;
        ns

let scan_cost (cfg : Config.t) (counts : Dirtybits.scan_counts) =
  let cost = cfg.cost in
  (counts.clean_reads * cost.dirtybit_read_clean_ns)
  + (counts.dirty_reads * cost.dirtybit_read_dirty_ns)
  + (counts.group_checks * cost.dirtybit_read_clean_ns)
  + (counts.queue_entries * cost.dirtybit_read_dirty_ns)

(* Scan [ranges], stamping this processor's fresh modifications with
   [stamp] and gathering the runs [select] picks. *)
let gather_scan p db ~ranges ~stamp ~select =
  let g = p.gather in
  Gather.clear g;
  let emit ~addr ~len ~ts ~fresh:_ ~lines = Gather.push_run g ~addr ~len ~ts ~descs:lines in
  let counts = Dirtybits.scan db ~region_of:(region_of p) ~ranges ~stamp ~select ~emit in
  let c = p.counters in
  c.clean_dirtybits_read <- c.clean_dirtybits_read + counts.clean_reads;
  c.dirty_dirtybits_read <- c.dirty_dirtybits_read + counts.dirty_reads;
  count_scanned p ranges (Gather.total_bytes g);
  (Gather.to_rt_lines g ~read:(run_reader p), scan_cost p.env.cfg counts)

let rt_scan p db ~ranges ~select =
  let stamp = fresh_stamp p in
  let lines, ns = gather_scan p db ~ranges ~stamp ~select in
  (lines, ns, stamp)

(* Untargetted consistency: the whole allocated shared space is the
   collection target of every transfer. *)
let shared_ranges space =
  Space.regions space
  |> List.filter_map (fun (r : Region.t) ->
         match r.kind with
         | Region.Shared when r.used > 0 -> Some (Range.v (Region.base r) r.used)
         | Region.Shared | Region.Private -> None)

(* Update-queue trapping keeps no full scan, so third-party history comes
   from the lock's sparse history table. *)
let rt_collect_lock p db (l : Sync.lock) ~for_ =
  let env = p.env in
  let targetted = not env.cfg.untargetted in
  let ranges = if targetted then l.ranges else shared_ranges env.space in
  let last_seen = if targetted then l.rt_last_seen.(for_) else env.global_seen.(for_) in
  let lines, cost_ns, stamp = rt_scan p db ~ranges ~select:(Transfer last_seen) in
  match env.cfg.rt_mode with
  | Config.Plain | Config.Two_level -> (lines, cost_ns, stamp)
  | Config.Update_queue ->
      (* Record fresh lines, then add history lines the requester missed.
         Under the untargetted model the history spans the whole space,
         so it lives on the machine rather than per lock. *)
      let history = if targetted then l.rt_history else env.untargetted_history in
      (* The history is per line; expand each coalesced run back into its
         constituent lines. *)
      List.iter
        (fun (ln : Payload.rt_line) ->
          let line_len = ln.len / ln.descs in
          for i = 0 to ln.descs - 1 do
            Hashtbl.replace history (ln.addr + (i * line_len)) ln.ts
          done)
        lines;
      let extra = ref [] in
      let extra_count = ref 0 in
      Hashtbl.iter
        (fun addr ts ->
          incr extra_count;
          if ts > last_seen && ts <> stamp then begin
            let len = (region_of p addr).line_size in
            if Range.clip (Range.v addr len) ~within:ranges <> [] then
              extra :=
                { Payload.addr; len; ts; data = run_reader p ~addr ~len; descs = 1 } :: !extra
          end)
        history;
      p.counters.clean_dirtybits_read <- p.counters.clean_dirtybits_read + !extra_count;
      let cost_ns = cost_ns + (!extra_count * env.cfg.cost.dirtybit_read_clean_ns) in
      (lines @ List.rev !extra, cost_ns, stamp)

let rt_apply p db (lines : Payload.rt_line list) =
  let env = p.env in
  let cfg = env.cfg in
  let c = p.counters in
  let track_history = cfg.untargetted && cfg.rt_mode = Config.Update_queue in
  let note_history addr ts =
    match Hashtbl.find_opt env.untargetted_history addr with
    | Some old when old >= ts -> ()
    | _ -> Hashtbl.replace env.untargetted_history addr ts
  in
  let apply_ns = ref 0 in
  List.iter
    (fun (ln : Payload.rt_line) ->
      let region = region_of p ln.addr in
      let line_len = ln.len / ln.descs in
      (* Costs are charged per line: copy_cost_ns floors an integer
         division, so charging the run as one block would drift from the
         per-line total. *)
      let per_line_ns =
        cfg.cost.dirtybit_update_ns + cfg.apply_line_ns
        + Cost_model.copy_cost_ns cfg.cost ~bytes:line_len ~warm:true
      in
      if not env.guard_stale then begin
        (* Fast path: install the whole run with one blit and one
           timestamp sweep. *)
        Space.write_bytes env.space ~proc:p.id ln.addr ln.data;
        Dirtybits.set_ts_run db ~region ~addr:ln.addr ~lines:ln.descs ~ts:ln.ts;
        if track_history then
          for i = 0 to ln.descs - 1 do
            note_history (ln.addr + (i * line_len)) ln.ts
          done;
        c.dirtybits_updated <- c.dirtybits_updated + ln.descs;
        apply_ns := !apply_ns + (ln.descs * per_line_ns)
      end
      else
        (* With the reliable channel armed, protocol retries can replay a
           logical update, and a replay may have installed some of the
           run's lines already: a line whose installed stamp already
           reaches the incoming one is stale and skipped. *)
        for i = 0 to ln.descs - 1 do
          let addr = ln.addr + (i * line_len) in
          let stale =
            let cur = Dirtybits.line_ts db ~region ~addr in
            Timestamp.is_stamp cur && cur >= ln.ts
          in
          if stale then c.duplicates_suppressed <- c.duplicates_suppressed + 1
          else begin
            Space.write_bytes env.space ~proc:p.id addr
              (Bytes.sub ln.data (i * line_len) line_len);
            Dirtybits.set_ts db ~region ~addr ~ts:ln.ts;
            if track_history then note_history addr ln.ts;
            c.dirtybits_updated <- c.dirtybits_updated + 1;
            apply_ns := !apply_ns + per_line_ns
          end
        done)
    lines;
  !apply_ns

let rt_advance env (l : Sync.lock) ~releaser ~requester stamp =
  l.rt_stamp <- stamp;
  l.rt_last_seen.(requester) <- stamp;
  l.rt_last_seen.(releaser) <- stamp;
  if env.cfg.untargetted then begin
    env.global_seen.(requester) <- max env.global_seen.(requester) stamp;
    env.global_seen.(releaser) <- max env.global_seen.(releaser) stamp
  end;
  env.lamport.(requester) <-
    max env.lamport.(requester) (Timestamp.time stamp ~nprocs:env.cfg.nprocs)

(* A replica is authoritative regardless of local stamps (it bypasses
   [rt_apply]'s staleness guard on purpose): its lines are stamped newer
   than anything any processor has seen, so the new owner's subsequent
   collections ship the recovered data to every requester whose cursor
   the epoch bump reset. *)
let rt_install p db (l : Sync.lock) pieces =
  let env = p.env in
  let cost = env.cfg.cost in
  let time = 1 + Array.fold_left max 0 env.lamport in
  env.lamport.(p.id) <- time;
  let stamp = Timestamp.make ~time ~proc:p.id ~nprocs:env.cfg.nprocs in
  Payload.write_pieces env.space ~proc:p.id pieces;
  let lines = ref 0 in
  List.iter
    (fun (range : Range.t) ->
      if not (Range.is_empty range) then
        let region = region_of p range.addr in
        Range.iter_lines range ~line_size:region.line_size ~f:(fun ~addr ~len:_ ->
            incr lines;
            Dirtybits.set_ts db ~region ~addr ~ts:stamp))
    l.ranges;
  p.counters.dirtybits_updated <- p.counters.dirtybits_updated + !lines;
  l.rt_stamp <- stamp;
  l.rt_last_seen.(p.id) <- stamp;
  (!lines * (cost.dirtybit_update_ns + env.cfg.apply_line_ns))
  + Cost_model.copy_cost_ns cost ~bytes:(Payload.pieces_bytes pieces) ~warm:false

(* Only the owner may have unstamped (locally dirty) lines in a lock's
   bound ranges: a sentinel elsewhere means a processor wrote the data
   without holding the lock.  Untargetted bindings are machine-wide, so
   the check does not apply there. *)
let rt_stray_lines p db (l : Sync.lock) =
  if p.env.cfg.untargetted then []
  else begin
    let found = ref [] in
    List.iter
      (fun (range : Range.t) ->
        Range.iter_lines range ~line_size:(region_of p range.addr).line_size
          ~f:(fun ~addr ~len:_ ->
            if Dirtybits.line_ts db ~region:(region_of p addr) ~addr = Timestamp.locally_dirty
            then found := addr :: !found))
      l.ranges;
    List.rev !found
  end

let rt p db =
  {
    note = "dirtybit scan";
    trap = rt_trap p db;
    collect_lock =
      (fun l ~for_ ->
        let rebound = rt_unseen l ~for_ in
        let lines, ns, cursor = rt_collect_lock p db l ~for_ in
        { payload = lines_payload lines; ns; cursor; rebound });
    collect_barrier =
      (fun b ->
        let lines, ns, cursor = rt_scan p db ~ranges:b.branges ~select:Dirtybits.Fresh_only in
        { payload = lines_payload lines; ns; cursor; rebound = false });
    apply =
      (fun ~id:_ ~ranges:_ -> function
        | Payload.Rt_lines lines -> rt_apply p db lines
        | Payload.Empty -> 0
        | _ -> invalid_arg "Detector.apply: wrong payload kind");
    advance =
      (fun l ~releaser ~requester stamp -> rt_advance p.env l ~releaser ~requester stamp);
    install_replica = rt_install p db;
    forget = Dirtybits.reset_region db;
    stray_dirty_lines = rt_stray_lines p db;
    untwinned_pages = no_pages;
    table_lines = Dirtybits.table_lines db;
  }

(* ------------------------------------------------------------------ *)
(* VM and twin: the incarnation log                                    *)
(* ------------------------------------------------------------------ *)

let vm_trap p vm (region : Region.t) addr len =
  match region.kind with
  | Region.Private -> 0
  | Region.Shared ->
      (* One protection check (and possibly one fault) per page touched;
         stores of <= 8 bytes touch one page because allocations are
         8-byte aligned. *)
      let cost = p.env.cfg.cost in
      let psize = cost.page_size in
      let first = addr / psize and last = (addr + max len 1 - 1) / psize in
      let total = ref 0 in
      for page = first to last do
        let ns =
          Vm_state.on_write vm ~space:p.env.space ~proc:p.id ~counters:p.counters ~cost
            ~addr:(max addr (page * psize))
        in
        p.counters.trap_time_ns <- p.counters.trap_time_ns + ns;
        total := !total + ns
      done;
      !total

(* A rebinding in (seen, current) forces a *diff-free* full transfer:
   the paper's VM-DSM ships all bound data "without performing a diff"
   when the binding changed (section 4, quicksort).  This is decidable
   from the log alone, before any diffing. *)
let rebound_since (l : Sync.lock) ~seen ~current =
  seen < current && List.exists (fun (inc, e) -> inc > seen && e = Sync.Full_marker) l.vm_log

(* Serve [for_] from the lock's incarnation log.  VM and twin differ only
   in [diff] (this processor's fresh pieces and their cost) and [rebase]
   (make the current bound data the comparison baseline after a
   diff-free full). *)
let log_collect p (l : Sync.lock) ~for_ ~diff ~rebase =
  let bound = Sync.lock_bound_bytes l in
  let this_inc = l.incarnation and seen = l.vm_inc_seen.(for_) in
  let full () = Payload.Vm_full (read_pieces p l.ranges) in
  let rebound = rebound_since l ~seen ~current:this_inc in
  let entry, fresh_bytes, ns =
    if rebound then begin
      (* Diff-free full transfer after a rebinding: ship the releaser's
         current bound data as is; [rebase] absorbs it so a later
         collection cannot resurrect words the protocol has moved past. *)
      rebase ();
      (Sync.Full_marker, bound, 0)
    end
    else
      let pieces, ns = diff () in
      (Sync.Pieces pieces, Payload.pieces_bytes pieces, ns)
  in
  let rec take n = function e :: rest when n > 0 -> e :: take (n - 1) rest | _ -> [] in
  l.vm_log <- take p.env.cfg.update_log_window ((this_inc, entry) :: l.vm_log);
  l.incarnation <- this_inc + 1;
  p.counters.bound_bytes_scanned <- p.counters.bound_bytes_scanned + bound;
  p.counters.dirty_bytes_found <- p.counters.dirty_bytes_found + fresh_bytes;
  let payload =
    if rebound then full ()
    else if seen >= this_inc then Payload.Empty
    else begin
      let pieces_of = function Sync.Pieces p -> p | Sync.Full_marker -> [] in
      let taken = List.filter (fun (inc, _) -> inc > seen) l.vm_log in
      (* The log window may no longer reach back to the requester's
         cursor ("Midway's implementation of VM-DSM does not save all
         the updates"): then, or when the concatenated updates exceed
         the bound data, all of the bound data is sent instead. *)
      let covered = List.length taken = this_inc - seen in
      let updates =
        (* rev_map of newest-first gives oldest-first, the application order *)
        List.rev_map
          (fun (inc, e) -> { Payload.incarnation = inc; producer = -1; pieces = pieces_of e })
          taken
      in
      let bytes =
        List.fold_left
          (fun acc (u : Payload.vm_update) -> acc + Payload.pieces_bytes u.pieces)
          0 updates
      in
      if (not covered) || bytes > bound then full () else Payload.Vm_updates updates
    end
  in
  { payload; ns; cursor = this_inc; rebound }

let log_detector p ~note ~trap ~diff ~rebase ~apply_pieces ~forget ~untwinned_pages =
  let apply ~id ~ranges = function
    | Payload.Vm_updates updates ->
        List.fold_left
          (fun acc (u : Payload.vm_update) -> acc + apply_pieces ~id ~ranges u.pieces)
          0 updates
    | Payload.Vm_full pieces -> apply_pieces ~id ~ranges pieces
    | Payload.Empty -> 0
    | Payload.Rt_lines _ | Payload.Blast_data _ ->
        invalid_arg "Detector.apply: wrong payload kind"
  in
  {
    note;
    trap;
    collect_lock =
      (fun l ~for_ ->
        log_collect p l ~for_
          ~diff:(fun () -> diff ~id:l.lid ~ranges:l.ranges)
          ~rebase:(fun () -> rebase ~id:l.lid ~ranges:l.ranges));
    collect_barrier =
      (fun b ->
        let pieces, ns = diff ~id:b.bid ~ranges:b.branges in
        count_scanned p b.branges (Payload.pieces_bytes pieces);
        { payload = pieces_payload pieces; ns; cursor = 0; rebound = false });
    apply;
    advance =
      (fun l ~releaser ~requester inc ->
        l.vm_inc_seen.(requester) <- inc;
        l.vm_inc_seen.(releaser) <- inc);
    install_replica =
      (fun l pieces ->
        let ns = apply ~id:l.lid ~ranges:l.ranges (Payload.Vm_full pieces) in
        l.vm_inc_seen.(p.id) <- l.incarnation;
        ns);
    forget;
    stray_dirty_lines = no_lines;
    untwinned_pages;
    table_lines = no_table;
  }

let vm p vm =
  let { env = { space; cfg; _ }; id = proc; counters; _ } = p in
  let cost = cfg.cost in
  log_detector p ~note:"page diff"
    ~trap:(fun region addr len -> vm_trap p vm region addr len)
    ~diff:(fun ~id:_ ~ranges -> Vm_state.collect vm ~space ~proc ~counters ~cost ~ranges)
    ~rebase:(fun ~id:_ ~ranges ->
      Vm_state.absorb vm ~space ~proc ~ranges;
      Vm_state.discard_pending vm ~ranges)
    ~apply_pieces:(fun ~id:_ ~ranges:_ pieces ->
      Vm_state.apply_pieces vm ~space ~proc ~counters ~cost pieces)
    ~forget:(fun region ->
      Vm_state.forget vm ~ranges:[ Range.v (Region.base region) region.region_size ])
    ~untwinned_pages:(fun () ->
      List.filter_map
        (fun (pg : Midway_vmem.Page_table.page) -> if pg.twin = None then Some pg.number else None)
        (Midway_vmem.Page_table.dirty_pages (Vm_state.page_table vm)))

(* Section 3.5: no trapping; diff all bound data against per-object twins. *)
let twin p tw =
  let { env = { space; cfg; _ }; id = proc; counters; _ } = p in
  let cost = cfg.cost in
  log_detector p ~note:"twin compare"
    ~trap:(fun _ _ _ -> 0)
    ~diff:(fun ~id ~ranges -> Twin_state.collect tw ~space ~proc ~counters ~cost ~id ~ranges)
    ~rebase:(fun ~id ~ranges -> Twin_state.refresh tw ~space ~proc ~id ~ranges)
    ~apply_pieces:(fun ~id ~ranges pieces ->
      Twin_state.apply_pieces tw ~space ~proc ~counters ~cost ~id ~ranges pieces)
    ~forget:ignore ~untwinned_pages:no_pages

(* ------------------------------------------------------------------ *)
(* Vm_fine (section 3.4's rejected variant): VM trapping, RT history   *)
(* ------------------------------------------------------------------ *)

(* Lock transfer: fold a page diff into the per-line timestamp table,
   then collect the requester's missing lines exactly as RT does.  The
   cost is the sum the paper predicts: diff + stamp installs + a full
   RT-style scan. *)
let vmfine_collect_lock p vm db ~ranges ~last_seen =
  let cfg = p.env.cfg in
  let pieces, diff_ns =
    Vm_state.collect vm ~space:p.env.space ~proc:p.id ~counters:p.counters ~cost:cfg.cost ~ranges
  in
  let stamp = fresh_stamp p in
  let stamp_ns = ref 0 in
  List.iter
    (fun (pc : Payload.vm_piece) ->
      let region = region_of p pc.addr in
      Range.iter_lines (Range.v pc.addr (Bytes.length pc.data)) ~line_size:region.line_size
        ~f:(fun ~addr ~len:_ ->
          Dirtybits.set_ts db ~region ~addr ~ts:stamp;
          p.counters.dirtybits_updated <- p.counters.dirtybits_updated + 1;
          stamp_ns := !stamp_ns + cfg.cost.dirtybit_update_ns))
    pieces;
  let lines, scan_ns = gather_scan p db ~ranges ~stamp ~select:(Dirtybits.Transfer last_seen) in
  (lines, diff_ns + !stamp_ns + scan_ns, stamp)

(* Barrier arrival: the fresh modifications are exactly the diffed
   pieces, so no scan is needed — stamp them and ship their lines. *)
let vmfine_collect_barrier p vm db ~ranges =
  let cfg = p.env.cfg in
  let pieces, diff_ns =
    Vm_state.collect vm ~space:p.env.space ~proc:p.id ~counters:p.counters ~cost:cfg.cost ~ranges
  in
  let stamp = fresh_stamp p in
  let seen = Hashtbl.create 16 in
  let g = p.gather in
  Gather.clear g;
  let extra_ns = ref 0 in
  let last_region = ref (-1) in
  List.iter
    (fun (pc : Payload.vm_piece) ->
      let region = region_of p pc.addr in
      if region.index <> !last_region then begin
        (* Runs never span regions (line sizes may differ across them). *)
        Gather.seal g;
        last_region := region.index
      end;
      Range.iter_lines (Range.v pc.addr (Bytes.length pc.data)) ~line_size:region.line_size
        ~f:(fun ~addr ~len ->
          if not (Hashtbl.mem seen addr) then begin
            Hashtbl.replace seen addr ();
            Dirtybits.set_ts db ~region ~addr ~ts:stamp;
            p.counters.dirtybits_updated <- p.counters.dirtybits_updated + 1;
            extra_ns := !extra_ns + cfg.cost.dirtybit_update_ns;
            Gather.push_line g ~addr ~len ~ts:stamp
          end))
    pieces;
  count_scanned p ranges (Gather.total_bytes g);
  (Gather.to_rt_lines g ~read:(run_reader p), diff_ns + !extra_ns, stamp)

(* The data lands in memory and in any twin of a dirty page, then the
   timestamps install as at an RT requester.  Runs are split back into
   per-line pieces: the copy cost model floors an integer division per
   piece, so applying a run as one block would drift from the per-line
   total. *)
let vmfine_apply p vm db (lines : Payload.rt_line list) =
  let cfg = p.env.cfg in
  let pieces =
    List.concat_map
      (fun (ln : Payload.rt_line) ->
        let line_len = ln.len / ln.descs in
        List.init ln.descs (fun i ->
            let off = i * line_len in
            { Payload.addr = ln.addr + off; data = Bytes.sub ln.data off line_len }))
      lines
  in
  let copy_ns =
    Vm_state.apply_pieces vm ~space:p.env.space ~proc:p.id ~counters:p.counters ~cost:cfg.cost
      pieces
  in
  List.fold_left
    (fun acc (ln : Payload.rt_line) ->
      let region = region_of p ln.addr in
      Dirtybits.set_ts_run db ~region ~addr:ln.addr ~lines:ln.descs ~ts:ln.ts;
      p.counters.dirtybits_updated <- p.counters.dirtybits_updated + ln.descs;
      acc + (ln.descs * (cfg.cost.dirtybit_update_ns + cfg.apply_line_ns)))
    copy_ns lines

let vm_fine p vm db =
  {
    note = "page diff + dirtybit scan";
    trap = (fun region addr len -> vm_trap p vm region addr len);
    collect_lock =
      (fun l ~for_ ->
        let lines, ns, cursor =
          vmfine_collect_lock p vm db ~ranges:l.ranges ~last_seen:l.rt_last_seen.(for_)
        in
        { payload = lines_payload lines; ns; cursor; rebound = rt_unseen l ~for_ });
    collect_barrier =
      (fun b ->
        let lines, ns, cursor = vmfine_collect_barrier p vm db ~ranges:b.branges in
        { payload = lines_payload lines; ns; cursor; rebound = false });
    apply =
      (fun ~id:_ ~ranges:_ -> function
        | Payload.Rt_lines lines -> vmfine_apply p vm db lines
        | Payload.Empty -> 0
        | _ -> invalid_arg "Detector.apply: wrong payload kind");
    advance =
      (fun l ~releaser ~requester stamp -> rt_advance p.env l ~releaser ~requester stamp);
    install_replica = rt_install p db;
    forget =
      (fun region ->
        Dirtybits.reset_region db region;
        Vm_state.forget vm ~ranges:[ Range.v (Region.base region) region.region_size ]);
    stray_dirty_lines = no_lines;
    untwinned_pages = no_pages;
    table_lines = Dirtybits.table_lines db;
  }

(* ------------------------------------------------------------------ *)
(* Blast and standalone: no detection, ship all bound data             *)
(* ------------------------------------------------------------------ *)

let blast_apply p pieces =
  Payload.write_pieces p.env.space ~proc:p.id pieces;
  Cost_model.copy_cost_ns p.env.cfg.cost ~bytes:(Payload.pieces_bytes pieces) ~warm:true

let blast p =
  {
    note = "no detection";
    trap = (fun _ _ _ -> 0);
    collect_lock =
      (fun l ~for_ ->
        let bound = Sync.lock_bound_bytes l in
        p.counters.bound_bytes_scanned <- p.counters.bound_bytes_scanned + bound;
        p.counters.dirty_bytes_found <- p.counters.dirty_bytes_found + bound;
        {
          payload = Payload.Blast_data (read_pieces p l.ranges);
          ns = 0;
          cursor = 0;
          rebound = rt_unseen l ~for_;
        });
    (* [carries_barrier_data] keeps bound ranges away from blast barriers. *)
    collect_barrier = (fun _ -> { payload = Payload.Empty; ns = 0; cursor = 0; rebound = false });
    apply =
      (fun ~id:_ ~ranges:_ -> function
        | Payload.Blast_data pieces -> blast_apply p pieces
        | Payload.Empty -> 0
        | _ -> invalid_arg "Detector.apply: wrong payload kind");
    advance = (fun _ ~releaser:_ ~requester:_ _ -> ());
    install_replica = (fun _ pieces -> blast_apply p pieces);
    forget = ignore;
    stray_dirty_lines = no_lines;
    untwinned_pages = no_pages;
    table_lines = no_table;
  }

let create p backend =
  let cfg = p.env.cfg in
  let dirtybits mode = Dirtybits.create ~mode ~group:cfg.two_level_group in
  let vm_state () = Vm_state.create ~page_size:cfg.cost.page_size in
  match backend with
  | Config.Rt -> rt p (dirtybits cfg.rt_mode)
  | Config.Vm -> vm p (vm_state ())
  | Config.Twin -> twin p (Twin_state.create ())
  | Config.Vm_fine -> vm_fine p (vm_state ()) (dirtybits Config.Plain)
  | Config.Blast | Config.Standalone -> blast p
