(* Deterministic behavioral fingerprint of the simulator.

   Runs the five applications across every detection backend (and every
   RT trapping organization), plus the untargetted model and the adaptive
   per-region election on a few of them, and prints the simulated elapsed time plus
   every per-processor counter, one line per processor.  The output is a
   pure function of the simulated machine: any host-side optimization of
   the simulator's hot paths must leave it byte-identical.

   The closing [views] rows re-run a few configurations with the trace
   ring (capacity 64) and the observability layer armed, and pin what a
   reader of the run sees: the span count and digests of the Perfetto
   JSON, the metrics JSON and the ring dump.  Together they cover every
   protocol event kind and every span kind the runtime records.

   Usage:
     midway-fingerprint [--scale F] [--nprocs N]

   Capture before and after a perf change and diff:
     dune exec bin/fingerprint.exe > before.txt
     ... optimize ...
     dune exec bin/fingerprint.exe > after.txt && diff before.txt after.txt *)

module Config = Midway.Config
module Counters = Midway_stats.Counters

let counter_fields (c : Counters.t) =
  [
    ("set", c.Counters.dirtybits_set);
    ("mis", c.Counters.dirtybits_misclassified);
    ("rdc", c.Counters.clean_dirtybits_read);
    ("rdd", c.Counters.dirty_dirtybits_read);
    ("upd", c.Counters.dirtybits_updated);
    ("flt", c.Counters.write_faults);
    ("dif", c.Counters.pages_diffed);
    ("pro", c.Counters.pages_write_protected);
    ("twu", c.Counters.twin_update_bytes);
    ("twc", c.Counters.twin_compare_bytes);
    ("rxb", c.Counters.data_received_bytes);
    ("txb", c.Counters.data_sent_bytes);
    ("msg", c.Counters.messages);
    ("bnd", c.Counters.bound_bytes_scanned);
    ("dty", c.Counters.dirty_bytes_found);
    ("lkl", c.Counters.lock_acquires_local);
    ("lkr", c.Counters.lock_acquires_remote);
    ("bar", c.Counters.barrier_crossings);
    ("tns", c.Counters.trap_time_ns);
    ("cns", c.Counters.collect_time_ns);
    ("rtx", c.Counters.retransmits);
    ("drp", c.Counters.drops_observed);
    ("dup", c.Counters.duplicates_suppressed);
    ("bkf", c.Counters.backoff_time_ns);
  ]

let print_outcome label (o : Midway_apps.Outcome.t) =
  let machine = o.Midway_apps.Outcome.machine in
  Printf.printf "%s ok=%b elapsed=%d\n" label o.Midway_apps.Outcome.ok
    (Midway.Runtime.elapsed_ns machine);
  Array.iteri
    (fun i c ->
      Printf.printf "  p%d %s\n" i
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (counter_fields c))))
    (Midway.Runtime.all_counters machine)

(* No [ok=] here: a crash run of a paper app loses the dead worker's
   share by design. *)
let print_views label cfg run =
  let (o : Midway_apps.Outcome.t) =
    run { cfg with Config.trace_capacity = 64; obs = true }
  in
  let machine = o.Midway_apps.Outcome.machine in
  let obs = Option.get (Midway.Runtime.obs machine) in
  let spans = Midway_obs.Obs.spans obs in
  let digest s = Digest.to_hex (Digest.string s) in
  let json j = digest (Midway_util.Json.to_string j) in
  let trace = Midway.Runtime.trace machine in
  Printf.printf "%s views spans=%d events=%d perfetto=%s metrics=%s ring=%s\n" label
    (List.length spans) (Midway.Trace.total trace)
    (json (Midway_obs.Trace_export.to_json ~name:label spans))
    (json (Midway_obs.Metrics.to_json (Midway_obs.Metrics.snapshot (Midway_obs.Obs.metrics obs))))
    (digest (Midway.Trace.dump trace))

let () =
  let scale = ref 0.1 and nprocs = ref 8 in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--nprocs" :: v :: rest ->
        nprocs := int_of_string v;
        parse rest
    | a :: _ ->
        Printf.eprintf "unknown argument %S\n" a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scale = !scale and nprocs = !nprocs in
  Printf.printf "fingerprint scale=%.3f nprocs=%d\n" scale nprocs;
  let rt_mode_cfgs =
    List.map
      (fun mode ->
        ( "rt-" ^ Config.rt_mode_name mode,
          { (Config.make Config.Rt ~nprocs) with Config.rt_mode = mode } ))
      [ Config.Plain; Config.Two_level; Config.Update_queue ]
  in
  let backend_cfgs =
    List.map
      (fun backend -> (Config.backend_name backend, Config.make backend ~nprocs))
      [ Config.Vm; Config.Twin; Config.Vm_fine ]
  in
  let faulted name cfg = (name ^ "+faults", Config.with_faults ~drop:0.02 ~seed:42 cfg) in
  List.iter
    (fun app ->
      let name = Midway_report.Suite.app_name app in
      List.iter
        (fun (cname, cfg) ->
          print_outcome
            (Printf.sprintf "%s/%s" name cname)
            (Midway_report.Suite.run_app app cfg ~scale))
        (rt_mode_cfgs @ backend_cfgs
        @ [
            ("standalone", Config.make Config.Standalone ~nprocs:1);
            faulted "rt-plain" (Config.make Config.Rt ~nprocs);
            faulted "vm" (Config.make Config.Vm ~nprocs);
          ]))
    Midway_report.Suite.apps;
  (* Blast has no write detection at all: lock-bound data only, so only
     the lock-based application runs under it. *)
  print_outcome "quicksort/blast"
    (Midway_report.Suite.run_app Midway_report.Suite.Quicksort
       (Config.make Config.Blast ~nprocs)
       ~scale);
  (* Configurations that exercise the untargetted whole-space scan and the
     per-region backend switch of lock-bound regions. *)
  List.iter
    (fun mode ->
      print_outcome
        ("matrix/rt-untargetted-" ^ Config.rt_mode_name mode)
        (Midway_report.Suite.run_app Midway_report.Suite.Matmul
           { (Config.make Config.Rt ~nprocs) with Config.untargetted = true; rt_mode = mode }
           ~scale))
    [ Config.Plain; Config.Update_queue ];
  let adaptive backend = { (Config.make backend ~nprocs) with Config.adaptive = true } in
  List.iter
    (fun app ->
      print_outcome
        (Midway_report.Suite.app_name app ^ "/vm-adaptive")
        (Midway_report.Suite.run_app app (adaptive Config.Vm) ~scale))
    [ Midway_report.Suite.Quicksort; Midway_report.Suite.Cholesky ];
  print_outcome "hybrid/rt-adaptive"
    (Midway_apps.Hybrid.run (adaptive Config.Rt) Midway_apps.Hybrid.default);
  let app a cfg = Midway_report.Suite.run_app a cfg ~scale in
  let crash_plan =
    match Midway_simnet.Crash.parse_spec ~nprocs "stop@5ms:p1,recover@20ms:p1" with
    | Ok plan -> plan
    | Error msg -> failwith msg
  in
  List.iter
    (fun (label, cfg, run) -> print_views label cfg run)
    [
      ("sor/rt", Config.make Config.Rt ~nprocs, app Midway_report.Suite.Sor);
      ("water/vm", Config.make Config.Vm ~nprocs, app Midway_report.Suite.Water);
      ("quicksort/twin", Config.make Config.Twin ~nprocs, app Midway_report.Suite.Quicksort);
      ( "water/rt+faults",
        Config.with_faults ~drop:0.1 ~seed:42 (Config.make Config.Rt ~nprocs),
        app Midway_report.Suite.Water );
      ( "cholesky/vm+crash",
        (* The survivors poll a task queue the dead worker never drains;
           a 100 ms watchdog ends the run after one quorum failover. *)
        Config.with_crash ~watchdog_ns:100_000_000 crash_plan (Config.make Config.Vm ~nprocs),
        app Midway_report.Suite.Cholesky );
      ( "hybrid/rt-adaptive",
        adaptive Config.Rt,
        fun cfg -> Midway_apps.Hybrid.run cfg Midway_apps.Hybrid.default );
    ]
