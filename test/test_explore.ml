(* Tests for the schedule explorer: the qcheck convergence property over
   random EC programs x random schedules x backends, record/replay
   reproducibility, counterexample shrinking and the counterexample file
   round trip. *)

module Config = Midway.Config
module Engine = Midway_sched.Engine
module Explore = Midway_explore.Explore
module Workload = Midway_explore.Workload
module Ecgen = Midway_explore.Ecgen

let qtest = QCheck_alcotest.to_alcotest

let seeded_config ?(nprocs = 3) ?(ecsan = true) backend sseed =
  let cfg = Config.make backend ~nprocs in
  { cfg with Config.ecsan; sched_policy = Engine.Seeded sseed }

(* The headline property: a random lock/barrier-guarded EC program
   converges to its sequential oracle on every backend under (at least)
   20 random schedules, judged by the oracle, the protocol invariants
   and ECSan all at once; and for each (workload seed, schedule seed)
   the RT and VM machines end with identical shared memory. *)
let random_programs_converge =
  QCheck.Test.make ~name:"random EC programs converge under 20 schedules on every backend"
    ~count:4
    QCheck.(int_bound 100_000)
    (fun wseed ->
      let w = Ecgen.workload ~seed:wseed () in
      List.for_all
        (fun i ->
          let sseed = (wseed * 31) + i in
          let digest_of backend =
            let j = Explore.execute w (seeded_config backend sseed) in
            if j.Explore.j_failed then
              QCheck.Test.fail_reportf "wseed=%d sseed=%d backend=%s:\n%s" wseed sseed
                (Config.backend_name backend)
                j.Explore.j_reason;
            j.Explore.j_digest
          in
          let rt = digest_of Config.Rt in
          let vm = digest_of Config.Vm in
          ignore (digest_of Config.Twin);
          ignore (digest_of Config.Blast);
          if rt <> vm then
            QCheck.Test.fail_reportf "wseed=%d sseed=%d: rt memory %S <> vm memory %S" wseed
              sseed rt vm;
          true)
        (List.init 20 (fun i -> i + 1)))

(* Replay determinism: re-running a seeded schedule from its recorded
   choice list reproduces the same final memory, and the replay
   re-records exactly the choices it applied. *)
let test_replay_reproduces_clean_run () =
  let w = Workload.counter ~iters:5 in
  let j1 = Explore.execute w (seeded_config Config.Rt 9) in
  Alcotest.(check bool) "seeded run is clean" false j1.Explore.j_failed;
  let choices = Option.get j1.Explore.j_choices in
  Alcotest.(check bool) "ties were recorded" true (choices <> []);
  let cfg = Config.make Config.Rt ~nprocs:3 in
  let cfg = { cfg with Config.ecsan = true; sched_policy = Engine.Replay choices } in
  let j2 = Explore.execute w cfg in
  Alcotest.(check bool) "replay is clean" false j2.Explore.j_failed;
  Alcotest.(check string) "replay ends with identical memory" j1.Explore.j_digest
    j2.Explore.j_digest;
  Alcotest.(check (list int)) "replay re-records its schedule" choices
    (Option.get j2.Explore.j_choices)

let test_replay_reproduces_failure () =
  (* find a schedule that breaks the order-sensitive workload, then
     replay its recording and demand the same wrong memory *)
  let w = Workload.order_sensitive in
  let rec hunt s =
    if s > 40 then Alcotest.fail "no schedule broke order-sensitive in 40 seeds"
    else
      let j = Explore.execute w (seeded_config ~nprocs:4 Config.Rt s) in
      if j.Explore.j_failed then (s, j) else hunt (s + 1)
  in
  let _, j1 = hunt 1 in
  let choices = Option.get j1.Explore.j_choices in
  let cfg = Config.make Config.Rt ~nprocs:4 in
  let cfg = { cfg with Config.ecsan = true; sched_policy = Engine.Replay choices } in
  let j2 = Explore.execute w cfg in
  Alcotest.(check bool) "failure reproduced" true j2.Explore.j_failed;
  Alcotest.(check string) "same wrong memory" j1.Explore.j_digest j2.Explore.j_digest;
  Alcotest.(check string) "same diagnosis" j1.Explore.j_reason j2.Explore.j_reason

(* The shrinker, against pure predicates. *)
let test_shrink_prefix_and_zeroing () =
  (* failure depends only on the first choice being 1 *)
  let fails = function x :: _ -> x = 1 | [] -> false in
  let shrunk, runs = Explore.shrink ~budget:50 ~fails [ 1; 4; 7; 2 ] in
  Alcotest.(check (option (list int))) "minimal prefix" (Some [ 1 ]) shrunk;
  Alcotest.(check bool) "spent a reasonable budget" true (runs <= 10)

let test_shrink_everywhere_failure_to_empty () =
  let shrunk, _ = Explore.shrink ~budget:50 ~fails:(fun _ -> true) [ 3; 1; 2 ] in
  Alcotest.(check (option (list int))) "fails-everywhere shrinks to []" (Some []) shrunk

let test_shrink_unreproducible_is_none () =
  let shrunk, runs = Explore.shrink ~budget:50 ~fails:(fun _ -> false) [ 1; 2 ] in
  Alcotest.(check (option (list int))) "no reproduction -> None" None shrunk;
  Alcotest.(check int) "only the confirmation run" 1 runs

let test_shrink_zeroes_survivors () =
  (* fails iff the list sums to >= 5: zeroing drops the prefix's noise *)
  let fails l = List.fold_left ( + ) 0 l >= 5 in
  let shrunk, _ = Explore.shrink ~budget:100 ~fails [ 2; 0; 3; 9 ] in
  match shrunk with
  | None -> Alcotest.fail "must reproduce"
  | Some l ->
      Alcotest.(check bool) "still failing" true (fails l);
      Alcotest.(check bool) "no longer than the original" true (List.length l <= 4)

(* End to end: the fuzzer grid finds the seeded bugs and shrinks them. *)
let test_fuzzer_finds_and_shrinks_order_bug () =
  let spec =
    {
      Explore.default_spec with
      Explore.workloads = [ Workload.order_sensitive ];
      backends = [ Config.Rt ];
      schedules = 20;
    }
  in
  let report = Explore.run_spec spec in
  match report.Explore.failures with
  | [ c ] -> (
      Alcotest.(check string) "right workload" "order-sensitive" c.Explore.c_workload;
      match c.Explore.c_shrunk with
      | None -> Alcotest.fail "failure must shrink"
      | Some l ->
          (* the bug needs exactly one tie to go the other way *)
          Alcotest.(check bool) "shrunk to very few choices" true (List.length l <= 2);
          let rp =
            {
              Explore.rp_workload = "order-sensitive";
              rp_backend = Config.Rt;
              rp_nprocs = spec.Explore.nprocs;
              rp_ecsan = true;
              rp_adaptive = false;
              rp_fault_drop = None;
              rp_fault_seed = None;
              rp_crash = None;
              rp_schedule_seed = Some c.Explore.c_schedule_seed;
              rp_choices = Some l;
            }
          in
          (match Explore.replay rp with
          | Ok r -> Alcotest.(check bool) "shrunk counterexample reproduces" true r.Explore.rr_failed
          | Error e -> Alcotest.fail e))
  | l -> Alcotest.fail (Printf.sprintf "expected exactly one failure, got %d" (List.length l))

let test_fuzzer_shrinks_racy_to_empty () =
  let spec =
    {
      Explore.default_spec with
      Explore.workloads = [ Workload.racy ];
      backends = [ Config.Vm ];
      schedules = 4;
    }
  in
  let report = Explore.run_spec spec in
  match report.Explore.failures with
  | [ c ] ->
      Alcotest.(check (option (list int))) "fails everywhere -> empty counterexample"
        (Some []) c.Explore.c_shrunk;
      Alcotest.(check bool) "ECSan contributed to the diagnosis" true
        (let s = c.Explore.c_reason in
         let n = String.length s in
         let rec go i = i + 6 <= n && (String.sub s i 6 = "ecsan:" || go (i + 1)) in
         go 0)
  | l -> Alcotest.fail (Printf.sprintf "expected exactly one failure, got %d" (List.length l))

(* The crashy workload on rt with ECSan, 1% drops and a seeded crash
   plan, under a seeded schedule. *)
let crashy_run ~sseed ~cseed =
  let plan = Midway_simnet.Crash.seeded ~seed:cseed ~nprocs:4 ~events:2 ~horizon_ns:600_000 in
  let cfg = Config.make Config.Rt ~nprocs:4 in
  let cfg = { cfg with Config.ecsan = true; sched_policy = Engine.Seeded sseed } in
  let cfg = Config.with_faults ~drop:0.01 ~seed:(sseed lxor 0x5A5A) cfg in
  let cfg = Config.with_crash plan cfg in
  Explore.execute (Workload.crashy ~iters:4) cfg

(* Satellite: the determinism contract over the full fault space — a
   (workload seed, schedule seed, fault seed, crash schedule) tuple
   yields a bit-identical run digest across two executions.  The crashy
   digest folds in the killed set and the failover count, so the
   recovery protocol itself is under the identity check. *)
let runs_are_deterministic_under_crash_faults =
  QCheck.Test.make
    ~name:"(workload, schedule, fault, crash) tuples replay bit-identically" ~count:6
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (sseed, cseed) ->
      let run () = crashy_run ~sseed ~cseed in
      let a = run () and b = run () in
      if a.Explore.j_digest = "" then
        QCheck.Test.fail_reportf "sseed=%d cseed=%d: no digest (%s)" sseed cseed
          a.Explore.j_reason;
      if a.Explore.j_digest <> b.Explore.j_digest || a.Explore.j_reason <> b.Explore.j_reason
      then
        QCheck.Test.fail_reportf "sseed=%d cseed=%d: %S / %S vs %S / %S" sseed cseed
          a.Explore.j_digest a.Explore.j_reason b.Explore.j_digest b.Explore.j_reason;
      true)

(* A crash-stopped owner whose clock lags its peers can reach [release]
   after a peer has already failed the lock over to itself.  These
   (schedule seed, crash seed) tuples once died with "Runtime.release:
   lock 0 not held by p0"; (124, 35) is [stop@116688:p0]. *)
let test_release_after_failover () =
  List.iter
    (fun (sseed, cseed) ->
      let j = crashy_run ~sseed ~cseed in
      let what = Printf.sprintf "sseed=%d cseed=%d" sseed cseed in
      Alcotest.(check string) (what ^ ": clean run") "" j.Explore.j_reason;
      Alcotest.(check bool) (what ^ ": digest recorded") true (j.Explore.j_digest <> ""))
    [ (124, 35); (224, 779) ]

(* The crash-event shrinker, against a pure predicate. *)
let test_shrink_crash_deletes_to_minimum () =
  let module Crash = Midway_simnet.Crash in
  let ev at_ns proc action = { Crash.at_ns; proc; action } in
  let plan =
    Crash.scripted
      [ ev 10 0 Crash.Stop; ev 20 0 Crash.Recover; ev 30 1 Crash.Stop ]
  in
  (* the failure only needs p1's stop; p0's stop/recover pair is noise.
     Deleting p0's Stop alone is illegal (dangling Recover), so the
     fixpoint pass must remove the Recover first, then the Stop. *)
  let fails p =
    List.exists (fun e -> e.Crash.proc = 1 && e.Crash.action = Crash.Stop) (Crash.events p)
  in
  let shrunk, runs = Explore.shrink_crash ~budget:30 ~fails plan in
  (match Crash.events shrunk with
  | [ e ] ->
      Alcotest.(check int) "the culprit survives" 1 e.Crash.proc;
      Alcotest.(check bool) "and is a stop" true (e.Crash.action = Crash.Stop)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length l)));
  Alcotest.(check bool) "bounded budget" true (runs <= 30)

(* End to end over the crash dimension: the fuzzer composes crash
   schedules with thread schedules, catches the broken-failover prey,
   shrinks the crash-event list, and the dumped counterexample replays
   through the file format. *)
let test_fuzzer_finds_broken_failover () =
  let spec =
    {
      Explore.default_spec with
      Explore.workloads = [ Workload.crashy_broken ~iters:6 ];
      backends = [ Config.Rt; Config.Vm ];
      schedules = 12;
      crash_events = 2;
      crash_horizon_ns = 800_000;
    }
  in
  let report = Explore.run_spec spec in
  match report.Explore.failures with
  | [] -> Alcotest.fail "the broken failover escaped the grid"
  | c :: _ -> (
      Alcotest.(check string) "right workload" "crashy-broken" c.Explore.c_workload;
      (match c.Explore.c_crash with
      | None -> Alcotest.fail "counterexample must carry its crash plan"
      | Some s -> Alcotest.(check bool) "the plan shrank to stops only" true
            (String.length s > 0 && not (String.contains s ' ')));
      match Explore.parse_counterexample (Explore.render_counterexample c) with
      | Error e -> Alcotest.fail e
      | Ok rp -> (
          Alcotest.(check bool) "crash plan survives the file round trip" true
            (rp.Explore.rp_crash = c.Explore.c_crash);
          match Explore.replay rp with
          | Error e -> Alcotest.fail e
          | Ok r ->
              Alcotest.(check bool) "the shrunk crash counterexample reproduces" true
                r.Explore.rr_failed))

(* The clean crash workload must survive the same grid: failover under
   seeded crash schedules is not allowed to corrupt the bound data. *)
let test_fuzzer_crash_clean_sweep () =
  let spec =
    {
      Explore.default_spec with
      Explore.workloads = [ Workload.crashy ~iters:6 ];
      backends = [ Config.Rt; Config.Vm; Config.Twin ];
      schedules = 8;
      crash_events = 2;
      crash_horizon_ns = 800_000;
    }
  in
  let report = Explore.run_spec spec in
  (match report.Explore.failures with
  | [] -> ()
  | c :: _ ->
      Alcotest.fail
        (Printf.sprintf "quorum failover corrupted a clean run: %s" c.Explore.c_reason));
  Alcotest.(check int) "three grid points swept" 3 report.Explore.grid_points

(* Counterexample file round trip. *)
let test_counterexample_roundtrip () =
  let c =
    {
      Explore.c_workload = "mix";
      c_backend = Config.Vm;
      c_nprocs = 5;
      c_ecsan = false;
      c_adaptive = true;
      c_fault_drop = Some 0.02;
      c_fault_seed = Some 1234;
      c_crash = Some "stop@2000:p1,recover@8000:p1";
      c_schedule_seed = 17;
      c_reason = "oracle: something\nbroke";
      c_choices = Some [ 0; 2; 1 ];
      c_shrunk = Some [ 2 ];
      c_shrink_runs = 5;
      c_trace = [ "lock 0: local acquire by p1" ];
    }
  in
  match Explore.parse_counterexample (Explore.render_counterexample c) with
  | Error e -> Alcotest.fail e
  | Ok rp ->
      Alcotest.(check string) "workload" "mix" rp.Explore.rp_workload;
      Alcotest.(check int) "nprocs" 5 rp.Explore.rp_nprocs;
      Alcotest.(check bool) "ecsan" false rp.Explore.rp_ecsan;
      Alcotest.(check bool) "the adaptive flag travels" true rp.Explore.rp_adaptive;
      Alcotest.(check (option (list int))) "the shrunk choices travel" (Some [ 2 ])
        rp.Explore.rp_choices;
      Alcotest.(check (option int)) "schedule seed" (Some 17) rp.Explore.rp_schedule_seed;
      Alcotest.(check (option int)) "fault seed" (Some 1234) rp.Explore.rp_fault_seed;
      Alcotest.(check (option string)) "the crash plan travels"
        (Some "stop@2000:p1,recover@8000:p1") rp.Explore.rp_crash

let test_parse_rejects_junk () =
  (match Explore.parse_counterexample "workload=counter\nnot a kv line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line must be rejected");
  match Explore.parse_counterexample "# only comments\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a counterexample without a workload must be rejected"

let test_workload_registry () =
  (match Explore.workload_of_name "ecgen:42" with
  | Ok w -> Alcotest.(check string) "ecgen name" "ecgen:42" w.Workload.name
  | Error e -> Alcotest.fail e);
  (match Explore.workload_of_name "quicksort" with
  | Ok w -> Alcotest.(check bool) "quicksort runs under blast" true (w.Workload.supports Config.Blast)
  | Error e -> Alcotest.fail e);
  match Explore.workload_of_name "no-such-workload" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown names must be rejected"

(* Determinism of the generator itself. *)
let test_ecgen_deterministic () =
  let a = Ecgen.generate ~seed:7 ~nprocs:3 () in
  let b = Ecgen.generate ~seed:7 ~nprocs:3 () in
  Alcotest.(check bool) "equal seeds, equal programs" true (a = b);
  let c = Ecgen.generate ~seed:8 ~nprocs:3 () in
  Alcotest.(check bool) "different seeds differ" true (a <> c);
  let buggy = Ecgen.generate ~buggy:true ~seed:7 ~nprocs:3 () in
  let raw =
    Array.fold_left
      (fun acc procs ->
        Array.fold_left
          (fun acc l ->
            acc + List.length (List.filter (function Ecgen.Raw_add _ -> true | _ -> false) l))
          acc procs)
      0 buggy.Ecgen.ops
  in
  Alcotest.(check int) "buggy variant strips exactly one lock" 1 raw;
  Alcotest.(check bool) "oracle unchanged by the strip" true
    (Ecgen.expected buggy = Ecgen.expected a)

let () =
  Alcotest.run "explore"
    [
      ( "property",
        [
          qtest random_programs_converge;
          qtest runs_are_deterministic_under_crash_faults;
          Alcotest.test_case "release after a peer failed the lock over" `Quick
            test_release_after_failover;
          Alcotest.test_case "ecgen deterministic" `Quick test_ecgen_deterministic;
        ] );
      ( "record/replay",
        [
          Alcotest.test_case "replay reproduces a clean run" `Quick
            test_replay_reproduces_clean_run;
          Alcotest.test_case "replay reproduces a failure" `Quick test_replay_reproduces_failure;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "prefix and zeroing" `Quick test_shrink_prefix_and_zeroing;
          Alcotest.test_case "fails-everywhere to empty" `Quick
            test_shrink_everywhere_failure_to_empty;
          Alcotest.test_case "unreproducible is None" `Quick test_shrink_unreproducible_is_none;
          Alcotest.test_case "zeroes survivors" `Quick test_shrink_zeroes_survivors;
          Alcotest.test_case "crash events delete to the culprit" `Quick
            test_shrink_crash_deletes_to_minimum;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "finds and shrinks the order bug" `Quick
            test_fuzzer_finds_and_shrinks_order_bug;
          Alcotest.test_case "shrinks racy to empty" `Quick test_fuzzer_shrinks_racy_to_empty;
          Alcotest.test_case "finds the broken failover via the crash dimension" `Quick
            test_fuzzer_finds_broken_failover;
          Alcotest.test_case "clean failover survives the crash grid" `Quick
            test_fuzzer_crash_clean_sweep;
        ] );
      ( "counterexample files",
        [
          Alcotest.test_case "round trip" `Quick test_counterexample_roundtrip;
          Alcotest.test_case "rejects junk" `Quick test_parse_rejects_junk;
          Alcotest.test_case "workload registry" `Quick test_workload_registry;
        ] );
    ]
