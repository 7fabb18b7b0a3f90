(* Host cost of the simulator's hot-path primitives, timed through each
   layer's public API on inputs shaped like the workload's.  Multiplied
   by a run's exact operation counts they give the per-layer host-time
   estimates — the paper's counts x primitive-cost method (Tables 1 and
   2) applied to the simulator itself. *)

module Space = Midway_memory.Space
module Region = Midway_memory.Region
module Dirtybits = Midway.Dirtybits
module Page_table = Midway_vmem.Page_table
module Diff = Midway_vmem.Diff
module Minheap = Midway_util.Minheap
module Engine = Midway_sched.Engine

type shape = {
  dirty_fraction : float;  (* share of scanned bytes found dirty, from the run's counters *)
  nprocs : int;  (* ready-queue depth of the event heap *)
}

(* the apps' main shared data (sor, matrix, water) and the KV store
   use the default 64-byte lines *)
let line_size = 64

type costs = {
  access_ns : float;  (* Space.get_f64 / set_f64, per access *)
  note_write_ns : float;  (* Dirtybits.note_write of one 8-byte store *)
  scan_ns_per_line : float;  (* Dirtybits.scan, per bound line visited *)
  protection_check_ns : float;  (* Page_table.page_of_addr on a mapped page *)
  fault_ns : float;  (* Page_table.fault_on_write on a protected page, twin included *)
  diff_ns_per_page : float;  (* Diff.diff of one page against its twin *)
  heap_op_ns : float;  (* Minheap push or pop at the ready-queue depth *)
  switch_ns : float;  (* Engine fiber switch via yield *)
}

let now = Probe.now

(* [batch ()] performs some operations, returning how many and the host
   seconds the timed part took.  Batches repeat until [budget_s] of
   timed work is collected (at least five); the result is the median
   nanoseconds per operation. *)
let per_op ?(budget_s = 0.04) batch =
  let samples = ref [] and spent = ref 0.0 and n = ref 0 in
  while !spent < budget_s || !n < 5 do
    let ops, secs = batch () in
    spent := !spent +. secs;
    incr n;
    samples := (secs *. 1e9 /. float_of_int ops) :: !samples
  done;
  Stats.median !samples

let timed ops f =
  let t0 = now () in
  f ();
  (ops, now () -. t0)

let page_size = 4096

let shared_region ~line_size bytes =
  let sp = Space.create ~nprocs:1 () in
  let base = Space.alloc sp ~kind:Region.Shared ~line_size bytes in
  (sp, base, Space.region_of_addr sp base)

let access_ns () =
  let words = 8192 in
  let sp, base, _ = shared_region ~line_size (words * 8) in
  per_op (fun () ->
      timed (2 * words) (fun () ->
          for i = 0 to words - 1 do
            let a = base + (i * 8) in
            Space.set_f64 sp ~proc:0 a (Space.get_f64 sp ~proc:0 a +. 1.0)
          done))

let note_write_ns () =
  let words = 8192 in
  let _, base, region = shared_region ~line_size (words * 8) in
  let db = Dirtybits.create ~mode:Midway.Config.Plain ~group:64 in
  per_op (fun () ->
      timed words (fun () ->
          for i = 0 to words - 1 do
            Dirtybits.note_write db ~region ~addr:(base + (i * 8)) ~len:8
          done))

(* Every scan first dirties the workload's share of the lines (untimed),
   then collects the whole range as a lock transfer would. *)
let scan_ns_per_line shape =
  let lines = 4096 in
  let bytes = lines * line_size in
  let sp, base, region = shared_region ~line_size bytes in
  let db = Dirtybits.create ~mode:Midway.Config.Plain ~group:64 in
  let every = max 1 (int_of_float (Float.round (1.0 /. Float.max 0.01 shape.dirty_fraction))) in
  let stamp = ref 0 in
  let region_of a = Space.region_of_addr sp a in
  per_op (fun () ->
      for l = 0 to lines - 1 do
        if l mod every = 0 then
          Dirtybits.note_write db ~region ~addr:(base + (l * line_size)) ~len:8
      done;
      incr stamp;
      let ts = Midway.Timestamp.make ~time:!stamp ~proc:0 ~nprocs:shape.nprocs in
      timed lines (fun () ->
          ignore
            (Dirtybits.scan db ~region_of ~ranges:[ Midway.Range.v base bytes ] ~stamp:ts
               ~select:(Dirtybits.Transfer Midway.Timestamp.initial)
               ~emit:(fun ~addr:_ ~len:_ ~ts:_ ~fresh:_ ~lines:_ -> ()))))

let protection_check_ns () =
  let pages = 256 in
  let pt = Page_table.create ~page_size in
  for p = 0 to pages - 1 do
    ignore (Page_table.page_of_addr pt (p * page_size))
  done;
  let n = 16 * pages in
  per_op (fun () ->
      timed n (fun () ->
          for i = 0 to n - 1 do
            ignore (Page_table.page_of_addr pt ((i land (pages - 1)) * page_size + 8))
          done))

let fault_ns () =
  let pages = 256 in
  let contents = Bytes.make page_size 'x' in
  per_op (fun () ->
      let pt = Page_table.create ~page_size in
      timed pages (fun () ->
          for p = 0 to pages - 1 do
            ignore (Page_table.fault_on_write pt ~addr:(p * page_size) ~contents)
          done))

(* The modified words are spread evenly at the workload's dirty
   fraction, so a fraction near one half gives the paper's expensive
   alternating-word case. *)
let diff_ns_per_page shape =
  let old_ = Bytes.init page_size (fun i -> Char.chr (i land 0xff)) in
  let new_ = Bytes.copy old_ in
  let words = page_size / Diff.word_size in
  let every = max 1 (int_of_float (Float.round (1.0 /. Float.max 0.01 shape.dirty_fraction))) in
  for w = 0 to words - 1 do
    if w mod every = 0 then Bytes.set new_ (w * Diff.word_size) '!'
  done;
  let n = 64 in
  per_op (fun () ->
      timed n (fun () ->
          for _ = 1 to n do
            ignore (Diff.diff ~old_ ~new_ ~off:0 ~len:page_size)
          done))

let heap_op_ns shape =
  let h = Minheap.create () in
  for p = 0 to shape.nprocs - 1 do
    Minheap.push h ~key:p p
  done;
  let n = 20_000 in
  per_op (fun () ->
      timed (2 * n) (fun () ->
          for _ = 1 to n do
            match Minheap.pop h with
            | Some (k, v) -> Minheap.push h ~key:(k + shape.nprocs) v
            | None -> assert false
          done))

(* Two fibers that charge one nanosecond and yield in turn: every yield
   is a switch to the other fiber. *)
let switch_ns () =
  let rounds = 20_000 in
  per_op (fun () ->
      let e = Engine.create ~nprocs:2 () in
      for p = 0 to 1 do
        Engine.spawn e p (fun proc ->
            for _ = 1 to rounds do
              Engine.charge proc 1;
              Engine.yield proc
            done)
      done;
      timed (2 * rounds) (fun () -> Engine.run e))

let measure shape =
  {
    access_ns = access_ns ();
    note_write_ns = note_write_ns ();
    scan_ns_per_line = scan_ns_per_line shape;
    protection_check_ns = protection_check_ns ();
    fault_ns = fault_ns ();
    diff_ns_per_page = diff_ns_per_page shape;
    heap_op_ns = heap_op_ns shape;
    switch_ns = switch_ns ();
  }
