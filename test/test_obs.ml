(* The observability layer: span log semantics, metrics registry
   arithmetic, Chrome-trace export shape, and — on a whole machine —
   the two contracts that make it trustworthy: the metrics reconcile
   with the simulator's own counters, and arming it never perturbs a
   run (same elapsed time, same counters, bit for bit). *)

module Obs = Midway_obs.Obs
module Metrics = Midway_obs.Metrics
module Trace_export = Midway_obs.Trace_export
module Json = Midway_util.Json
module R = Midway.Runtime
module Config = Midway.Config
module Range = Midway.Range
module Counters = Midway_stats.Counters

(* --- span log ----------------------------------------------------------- *)

let test_span_log_order () =
  let o = Obs.create () in
  Obs.span o Obs.Collect ~proc:0 ~sync:3 ~bytes:128 ~t0:100 ~t1:250 ();
  Obs.span o Obs.Acquire_wait ~proc:1 ~t0:50 ~t1:400 ();
  Obs.span o Obs.Diff ~proc:0 ~sync:3 ~note:"page diff" ~t0:100 ~t1:250 ();
  Alcotest.(check int) "count" 3 (Obs.span_count o);
  Alcotest.(check int) "every span kept" 3 (Obs.span_count o);
  let kinds = List.map (fun (s : Obs.span) -> Obs.kind_name s.Obs.kind) (Obs.spans o) in
  Alcotest.(check (list string)) "recording order" [ "collect"; "lock_wait"; "diff" ] kinds;
  (match Obs.spans o with
  | first :: _ ->
      Alcotest.(check int) "sync carried" 3 first.Obs.sync;
      Alcotest.(check int) "bytes carried" 128 first.Obs.bytes
  | [] -> Alcotest.fail "no spans");
  Alcotest.check_raises "t1 < t0 rejected"
    (Invalid_argument "Obs.span: t1 < t0") (fun () ->
      Obs.span o Obs.Collect ~proc:0 ~t0:10 ~t1:5 ())

(* --- metrics: buckets --------------------------------------------------- *)

let test_bucket_boundaries () =
  let m = Metrics.create () in
  let buckets = [| 10; 100; 1_000 |] in
  (* one observation per interesting position: below, exactly on each
     bound, one past a bound, and past the last bound (overflow) *)
  List.iter
    (fun v -> Metrics.observe m ~name:"h" ~buckets v)
    [ 0; 10; 11; 100; 101; 1_000; 1_001 ];
  let s = Metrics.snapshot m in
  match Metrics.find_hist s ~name:"h" ~label:"" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      (* v <= bound lands in the first such bucket: 0,10 | 11,100 | 101,1000 | 1001 *)
      Alcotest.(check (array int)) "le-semantics per bucket" [| 2; 2; 2; 1 |] h.Metrics.h_counts;
      Alcotest.(check int) "count" 7 h.Metrics.h_count;
      Alcotest.(check int) "sum" 2_223 h.Metrics.h_sum;
      Alcotest.(check int) "min" 0 h.Metrics.h_min;
      Alcotest.(check int) "max" 1_001 h.Metrics.h_max

let test_bucket_layout_shared_and_validated () =
  let m = Metrics.create () in
  Metrics.observe m ~name:"lat" ~label:"a" ~buckets:[| 5; 50 |] 3;
  (* a second label of the same metric reuses the first layout, even if
     it asks for another one *)
  Metrics.observe m ~name:"lat" ~label:"b" ~buckets:[| 1; 2; 3 |] 60;
  let s = Metrics.snapshot m in
  (match Metrics.find_hist s ~name:"lat" ~label:"b" with
  | Some h -> Alcotest.(check (array int)) "layout fixed by first observe" [| 5; 50 |] h.Metrics.h_buckets
  | None -> Alcotest.fail "label b missing");
  Alcotest.(check (list string)) "labels sorted" [ "a"; "b" ] (Metrics.labels_of s ~name:"lat");
  Alcotest.check_raises "non-increasing layout rejected"
    (Invalid_argument "Metrics.observe: bucket bounds must be strictly increasing") (fun () ->
      Metrics.observe m ~name:"bad" ~buckets:[| 5; 5 |] 1)

(* --- metrics: snapshot / delta ------------------------------------------ *)

let test_snapshot_delta () =
  let m = Metrics.create () in
  Metrics.incr m ~name:"sends" ~label:"p0" 2;
  Metrics.observe m ~name:"lat" ~label:"p0" ~buckets:[| 10; 100 |] 7;
  let before = Metrics.snapshot m in
  Metrics.incr m ~name:"sends" ~label:"p0" 3;
  Metrics.incr m ~name:"sends" ~label:"p1" 1;  (* born after [before] *)
  Metrics.observe m ~name:"lat" ~label:"p0" 50;
  Metrics.observe m ~name:"lat" ~label:"p0" 500;
  let after = Metrics.snapshot m in
  (* snapshots are independent: [before] still shows the old values *)
  Alcotest.(check int) "before immutable" 2 (Metrics.counter_value before ~name:"sends" ~label:"p0");
  let d = Metrics.delta ~before ~after in
  Alcotest.(check int) "counter delta" 3 (Metrics.counter_value d ~name:"sends" ~label:"p0");
  Alcotest.(check int) "new series counts from zero" 1
    (Metrics.counter_value d ~name:"sends" ~label:"p1");
  (match Metrics.find_hist d ~name:"lat" ~label:"p0" with
  | None -> Alcotest.fail "hist delta missing"
  | Some h ->
      Alcotest.(check int) "observations in the window" 2 h.Metrics.h_count;
      Alcotest.(check int) "sum over the window" 550 h.Metrics.h_sum;
      Alcotest.(check (array int)) "per-bucket delta" [| 0; 1; 1 |] h.Metrics.h_counts);
  Alcotest.(check (pair int int)) "hist_totals over the delta" (550, 2)
    (Metrics.hist_totals d ~name:"lat")

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr m ~name:"sends" 4;
  Metrics.observe m ~name:"lat" ~buckets:[| 10 |] 3;
  Metrics.observe m ~name:"lat" 99;
  let json = Metrics.to_json (Metrics.snapshot m) in
  let back = Json.of_string (Json.to_string json) in
  let hists = Option.get (Option.bind (Json.member "histograms" back) Json.to_list) in
  Alcotest.(check int) "one histogram" 1 (List.length hists);
  let h = List.hd hists in
  Alcotest.(check (option int)) "sum survives the round trip" (Some 102)
    (Option.bind (Json.member "sum" h) Json.to_int);
  let buckets = Option.get (Option.bind (Json.member "buckets" h) Json.to_list) in
  Alcotest.(check (option string)) "overflow bucket tagged inf" (Some "inf")
    (Option.bind (Json.member "le" (List.nth buckets 1)) Json.to_str)

(* --- Chrome trace export ------------------------------------------------ *)

let test_trace_export_parses_back () =
  let o = Obs.create () in
  (* deliberately recorded out of order, with a tie in start time on
     proc 0 where the longer (enclosing) span must come first *)
  Obs.span o Obs.Diff ~proc:0 ~sync:1 ~t0:200 ~t1:350 ();
  Obs.span o Obs.Collect ~proc:0 ~sync:1 ~bytes:96 ~t0:200 ~t1:400 ();
  Obs.span o Obs.Acquire_wait ~proc:1 ~sync:1 ~t0:100 ~t1:500 ();
  Obs.span o Obs.Apply ~proc:0 ~sync:1 ~t0:50 ~t1:80 ();
  let back = Json.of_string (Json.to_string (Trace_export.to_json ~name:"unit" (Obs.spans o))) in
  let events = Option.get (Option.bind (Json.member "traceEvents" back) Json.to_list) in
  let xs =
    List.filter
      (fun ev -> Option.bind (Json.member "ph" ev) Json.to_str = Some "X")
      events
  in
  Alcotest.(check int) "every span exported" 4 (List.length xs);
  let track tid =
    List.filter (fun ev -> Option.bind (Json.member "tid" ev) Json.to_int = Some tid) xs
  in
  let ts ev = Option.get (Option.bind (Json.member "ts" ev) Json.to_float) in
  let cat ev = Option.get (Option.bind (Json.member "cat" ev) Json.to_str) in
  (* proc 0: sorted by start, collect before the equally-started diff *)
  Alcotest.(check (list string)) "tie broken longest-first (nesting)"
    [ "apply"; "collect"; "diff" ]
    (List.map cat (track 0));
  List.iter
    (fun tid ->
      let times = List.map ts (track tid) in
      Alcotest.(check bool) (Printf.sprintf "ts monotone on track %d" tid) true
        (List.sort compare times = times))
    [ 0; 1 ];
  (* ns -> us conversion on the simulated timeline *)
  Alcotest.(check (float 1e-9)) "ts in microseconds" 0.05 (ts (List.hd (track 0)));
  (* metadata names the process and both thread tracks *)
  let metas =
    List.filter_map
      (fun ev ->
        if Option.bind (Json.member "ph" ev) Json.to_str = Some "M" then
          Option.bind (Json.member "args" ev) (Json.member "name")
        else None)
      events
  in
  Alcotest.(check bool) "process named" true (List.mem (Json.Str "unit") metas);
  Alcotest.(check bool) "tracks named" true (List.mem (Json.Str "proc 1") metas)

(* --- on a whole machine ------------------------------------------------- *)

(* a small lock+barrier workload exercising every span kind the runtime
   emits (except retransmit, which needs an armed fault plan) *)
let run_workload cfg =
  let machine = R.create cfg in
  let counter = R.alloc machine ~line_size:8 8 in
  let arr = R.alloc machine ~line_size:8 (cfg.Config.nprocs * 8) in
  let lock = R.new_lock machine [ Range.v counter 8 ] in
  let bar = R.new_barrier machine [ Range.v arr (cfg.Config.nprocs * 8) ] in
  R.run machine (fun c ->
      let me = R.id c in
      for round = 1 to 3 do
        R.acquire c lock;
        R.write_int c counter (R.read_int c counter + 1);
        R.release c lock;
        R.write_int c (arr + (me * 8)) ((round * 100) + me);
        R.barrier c bar;
        R.work_ns c (1_000 * (me + 1))
      done);
  machine

let test_machine_reconciliation () =
  let nprocs = 4 in
  let cfg = { (Config.make Config.Rt ~nprocs) with Config.obs = true } in
  let machine = run_workload cfg in
  let o = match R.obs machine with Some o -> o | None -> Alcotest.fail "obs not armed" in
  let spans = Obs.spans o in
  (* every processor shows up, and the protocol phases are all covered *)
  List.iter
    (fun kind ->
      List.iteri
        (fun p () ->
          Alcotest.(check bool)
            (Printf.sprintf "%s span on p%d" (Obs.kind_name kind) p)
            true
            (List.exists (fun (s : Obs.span) -> s.Obs.kind = kind && s.Obs.proc = p) spans))
        (List.init nprocs (fun _ -> ())))
    [ Obs.Acquire_wait; Obs.Barrier_wait; Obs.Collect; Obs.Diff ];
  List.iter
    (fun (s : Obs.span) ->
      Alcotest.(check bool) "span interval well-formed" true (s.Obs.t0 <= s.Obs.t1);
      Alcotest.(check bool) "span inside the run" true
        (0 <= s.Obs.t0 && s.Obs.t1 <= R.elapsed_ns machine))
    spans;
  (* the metrics must agree with the simulator's own counters *)
  let s = Metrics.snapshot (Obs.metrics o) in
  let sum_counters f =
    List.fold_left (fun acc p -> acc + f (R.counters machine p)) 0 (List.init nprocs Fun.id)
  in
  let sent = sum_counters (fun (c : Counters.t) -> c.Counters.data_sent_bytes) in
  Alcotest.(check int) "transfer_bytes reconciles with data_sent_bytes" sent
    (fst (Metrics.hist_totals s ~name:"transfer_bytes"));
  let collect_total = sum_counters (fun (c : Counters.t) -> c.Counters.collect_time_ns) in
  Alcotest.(check int) "collect_ns + apply_ns reconcile with collect_time_ns" collect_total
    (fst (Metrics.hist_totals s ~name:"collect_ns")
    + fst (Metrics.hist_totals s ~name:"apply_ns"))

(* The accounting facts of the recovery and adaptive layers, on one
   machine that arms them all: faults (retransmissions), a scripted crash
   with recovery (a quorum failover and crash-stops; the 100 ms watchdog
   ends the survivors' poll of the dead worker's tasks) and adaptive
   detection (a backend switch).  Each metric is the same event stream
   the ring keeps, so it must agree with the runtime's own account. *)
let test_recovery_reconciliation () =
  let nprocs = 4 in
  let plan =
    match Midway_simnet.Crash.parse_spec ~nprocs "stop@5ms:p1,recover@20ms:p1" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let cfg =
    { (Config.make Config.Vm ~nprocs) with Config.adaptive = true; obs = true;
      trace_capacity = 1_000_000 }
    |> Config.with_faults ~drop:0.05 ~seed:7
    |> Config.with_crash ~watchdog_ns:100_000_000 plan
  in
  let machine =
    (Midway_report.Suite.run_app Midway_report.Suite.Cholesky cfg ~scale:0.05)
      .Midway_apps.Outcome.machine
  in
  let o = match R.obs machine with Some o -> o | None -> Alcotest.fail "obs not armed" in
  let s = Metrics.snapshot (Obs.metrics o) in
  let counter name =
    List.fold_left (fun acc ((n, _), v) -> if n = name then acc + v else acc) 0
      s.Metrics.s_counters
  in
  let retransmits =
    Array.fold_left (fun acc c -> acc + c.Counters.retransmits) 0 (R.all_counters machine)
  in
  let check_pos name expect got =
    Alcotest.(check bool) (name ^ " happened") true (expect > 0);
    Alcotest.(check int) name expect got
  in
  check_pos "retransmits_per_send sums to the retransmit counters" retransmits
    (fst (Metrics.hist_totals s ~name:"retransmits_per_send"));
  check_pos "failovers = failover_count" (R.failover_count machine) (counter "failovers");
  check_pos "crash_stops = killed processors" (List.length (R.killed_procs machine))
    (counter "crash_stops");
  check_pos "backend_switches = backend_switches" (R.backend_switches machine)
    (counter "backend_switches");
  let ring_failovers =
    List.length
      (List.filter
         (function Midway.Trace.Lock_failover _ -> true | _ -> false)
         (Midway.Trace.events (R.trace machine)))
  in
  Alcotest.(check int) "one Lock_failover ring event per failover" (counter "failovers")
    ring_failovers

let test_obs_never_perturbs () =
  let nprocs = 4 in
  let run obs =
    let machine = run_workload { (Config.make Config.Vm ~nprocs) with Config.obs = obs } in
    ( R.elapsed_ns machine,
      List.map
        (fun p ->
          let c = R.counters machine p in
          ( c.Counters.messages,
            c.Counters.data_sent_bytes,
            c.Counters.collect_time_ns,
            c.Counters.lock_acquires_remote,
            c.Counters.barrier_crossings ))
        (List.init nprocs Fun.id) )
  in
  let off = run false and on = run true in
  Alcotest.(check bool) "armed observability changes nothing" true (off = on)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "recording order" `Quick test_span_log_order;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "layout shared and validated" `Quick
            test_bucket_layout_shared_and_validated;
          Alcotest.test_case "snapshot and delta" `Quick test_snapshot_delta;
          Alcotest.test_case "json round trip" `Quick test_metrics_json_roundtrip;
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace parses back" `Quick test_trace_export_parses_back ] );
      ( "machine",
        [
          Alcotest.test_case "metrics reconcile with counters" `Quick
            test_machine_reconciliation;
          Alcotest.test_case "recovery and adaptive metrics reconcile" `Quick
            test_recovery_reconciliation;
          Alcotest.test_case "arming obs never perturbs a run" `Quick test_obs_never_perturbs;
        ] );
    ]
