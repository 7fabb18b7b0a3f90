(* Application-level tests: every benchmark verifies against its
   sequential oracle on both detection backends and several machine
   sizes, plus structural properties of the cholesky symbolic analysis. *)

module Config = Midway.Config
module Apps = Midway_apps
module Suite = Midway_report.Suite
module Space = Midway_memory.Space
module Region = Midway_memory.Region

let qtest = QCheck_alcotest.to_alcotest

let check_ok name (o : Apps.Outcome.t) =
  Alcotest.(check bool)
    (Printf.sprintf "%s verifies (%s)" name (String.concat "; " o.Apps.Outcome.notes))
    true o.Apps.Outcome.ok;
  Alcotest.(check (list string))
    (name ^ " leaves the protocol clean")
    []
    (Midway.Runtime.check_invariants o.Apps.Outcome.machine)

let backends = [ Config.Rt; Config.Vm; Config.Vm_fine ]

let app_matrix name run =
  List.concat_map
    (fun backend ->
      List.map
        (fun nprocs ->
          Alcotest.test_case
            (Printf.sprintf "%s %s np=%d" name (Config.backend_name backend) nprocs)
            `Quick
            (fun () ->
              let cfg = Config.make backend ~nprocs in
              check_ok name (run cfg)))
        [ 1; 2; 8 ])
    backends
  @ [
      Alcotest.test_case (name ^ " standalone") `Quick (fun () ->
          check_ok name (run (Config.make Config.Standalone ~nprocs:1)));
    ]

let matmul_tests = app_matrix "matmul" (fun cfg -> Apps.Matmul.run cfg { n = 24; verify_samples = 200 })

let sor_tests = app_matrix "sor" (fun cfg -> Apps.Sor.run cfg { n = 32; iterations = 4 })

let water_tests =
  app_matrix "water" (fun cfg ->
      Apps.Water.run cfg { molecules = 24; steps = 2; sync = Apps.Water.Barrier_phases })
  @ app_matrix "water-locks" (fun cfg ->
        Apps.Water.run cfg { molecules = 24; steps = 2; sync = Apps.Water.Molecule_locks })

let quicksort_tests =
  app_matrix "quicksort" (fun cfg -> Apps.Quicksort.run cfg { n = 600; threshold = 24; slots = 256 })

let cholesky_tests = app_matrix "cholesky" (fun cfg -> Apps.Cholesky.run cfg { grid = 6 })

let granularity_tests =
  List.map
    (fun backend ->
      Alcotest.test_case
        (Printf.sprintf "granularity %s" (Config.backend_name backend))
        `Quick
        (fun () ->
          let cfg = Config.make backend ~nprocs:2 in
          check_ok "granularity"
            (Apps.Granularity.run cfg { total_bytes = 16 * 1024; items = 32; rounds = 3 })))
    [ Config.Rt; Config.Vm; Config.Twin; Config.Blast ]

let test_granularity_rt_flat () =
  (* detection cost under RT must not grow with the object count *)
  let detect items =
    let o =
      Apps.Granularity.run (Config.make Config.Rt ~nprocs:2)
        { total_bytes = 64 * 1024; items; rounds = 2 }
    in
    let avg = Apps.Outcome.avg_counters o in
    avg.Midway_stats.Counters.trap_time_ns
  in
  let coarse = detect 8 and fine = detect 512 in
  Alcotest.(check bool)
    (Printf.sprintf "rt trapping flat across granularity (%d vs %d ns)" coarse fine)
    true
    (float_of_int fine < 1.5 *. float_of_int coarse)

(* --- speedup and traffic sanity ------------------------------------------- *)

let test_sor_speedup () =
  let run np =
    let o = Apps.Sor.run (Config.make Config.Rt ~nprocs:np) { n = 96; iterations = 6 } in
    Apps.Outcome.elapsed_s o
  in
  let t1 = run 1 and t8 = run 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 processors beat 1 (%.3f vs %.3f)" t8 t1)
    true (t8 < t1)

let test_rt_ships_less_than_vm_on_cholesky () =
  (* The paper: the fine-grained lock-based application transfers far
     less under RT (9,128 vs 13,144 KB) because the dirtybit timestamps
     are an exact update history while VM concatenates whole
     incarnations. *)
  let run backend =
    let o = Apps.Cholesky.run (Config.make backend ~nprocs:8) { grid = 16 } in
    Apps.Outcome.data_received_kb_per_proc o
  in
  let rt = run Config.Rt and vm = run Config.Vm in
  Alcotest.(check bool)
    (Printf.sprintf "rt=%.1fKB < vm=%.1fKB" rt vm)
    true (rt < vm)

let test_determinism () =
  let run () =
    let o = Apps.Quicksort.run (Config.make Config.Rt ~nprocs:4) { n = 400; threshold = 20; slots = 128 } in
    (Midway.Runtime.elapsed_ns o.Apps.Outcome.machine, Apps.Outcome.data_received_kb_per_proc o)
  in
  Alcotest.(check bool) "identical reruns" true (run () = run ())

(* --- per-processor footprint -------------------------------------------- *)

(* Large-N guard: every processor's copy of a region and its dirtybit
   table are sized to the allocated extent, so 64 processors cost what
   their data costs (reservation-sized state took seconds and GBs). *)
let large_n_tests =
  List.map
    (fun (app, backend) ->
      let name = Printf.sprintf "%s %s np=64" (Suite.app_name app) (Config.backend_name backend) in
      Alcotest.test_case name `Quick (fun () ->
          check_ok name (Suite.run_app app (Config.make backend ~nprocs:64) ~scale:0.1)))
    [ (Suite.Water, Config.Rt); (Suite.Matmul, Config.Vm) ]

(* After a run, every materialised copy and dirtybit table covers at
   most max(4 KiB, 2 x the region's allocated extent). *)
let test_footprint_bounded () =
  List.iter
    (fun (app, backend) ->
      let nprocs = 4 in
      let name = Printf.sprintf "%s %s" (Suite.app_name app) (Config.backend_name backend) in
      let o = Suite.run_app app (Config.make backend ~nprocs) ~scale:0.05 in
      check_ok name o;
      let m = o.Apps.Outcome.machine in
      List.iter
        (fun (r : Region.t) ->
          let bound = max 4096 (2 * r.Region.used) in
          for proc = 0 to nprocs - 1 do
            let what = Printf.sprintf "%s region %d p%d" name r.Region.index proc in
            let copy = Region.capacity r ~proc in
            if copy > bound then Alcotest.failf "%s: copy of %d bytes > %d" what copy bound;
            let table = Midway.Runtime.dirtybit_table_lines m ~proc r * r.Region.line_size in
            if table > bound then Alcotest.failf "%s: table covers %d bytes > %d" what table bound
          done)
        (Space.regions (Midway.Runtime.space m)))
    [
      (Suite.Quicksort, Config.Rt);
      (Suite.Water, Config.Rt);
      (Suite.Cholesky, Config.Vm_fine);
      (Suite.Sor, Config.Vm);
    ]

(* --- cholesky symbolic analysis ------------------------------------------- *)

let test_laplacian_spd_shape () =
  let k = 4 in
  let n = k * k in
  for i = 0 to n - 1 do
    (* strict diagonal dominance: sum |offdiag| < diag *)
    let diag = Apps.Cholesky.laplacian_entry k i i in
    let sum = ref 0.0 in
    for j = 0 to n - 1 do
      if j <> i then sum := !sum +. Float.abs (Apps.Cholesky.laplacian_entry k i j)
    done;
    if not (!sum < diag) then
      Alcotest.failf "row %d not diagonally dominant (%f vs %f)" i !sum diag
  done

let symbolic_props =
  QCheck.Test.make ~name:"cholesky symbolic analysis invariants" ~count:20
    QCheck.(int_range 2 9)
    (fun k ->
      let sym = Apps.Cholesky.symbolic_analyse k in
      let n = sym.Apps.Cholesky.n in
      n = k * k
      && Array.length sym.Apps.Cholesky.pattern = n
      && Array.for_all
           (fun p -> Array.length p > 0)
           sym.Apps.Cholesky.pattern
      (* diagonal first, strictly ascending rows *)
      && List.for_all
           (fun j ->
             let p = sym.Apps.Cholesky.pattern.(j) in
             p.(0) = j
             && (let ok = ref true in
                 for i = 1 to Array.length p - 1 do
                   if p.(i) <= p.(i - 1) then ok := false
                 done;
                 !ok))
           (List.init n (fun j -> j))
      (* nmod(j) equals the number of columns k < j whose pattern contains j *)
      && List.for_all
           (fun j ->
             let count = ref 0 in
             for c = 0 to j - 1 do
               if Array.exists (fun i -> i = j) sym.Apps.Cholesky.pattern.(c) then incr count
             done;
             !count = sym.Apps.Cholesky.nmod.(j))
           (List.init n (fun j -> j)))

let test_oracle_factor_correct () =
  (* L L^T must reproduce A within tolerance. *)
  let k = 5 in
  let sym = Apps.Cholesky.symbolic_analyse k in
  let n = sym.Apps.Cholesky.n in
  let vals = Apps.Cholesky.oracle_factor k sym in
  (* dense L for the check *)
  let l = Array.make_matrix n n 0.0 in
  Array.iteri
    (fun j p -> Array.iteri (fun idx i -> l.(i).(j) <- vals.(j).(idx)) p)
    sym.Apps.Cholesky.pattern;
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref 0.0 in
      for c = 0 to n - 1 do
        acc := !acc +. (l.(i).(c) *. l.(j).(c))
      done;
      let expect = Apps.Cholesky.laplacian_entry k i j in
      if Float.abs (!acc -. expect) > 1e-9 then
        Alcotest.failf "LL^T(%d,%d) = %f but A = %f" i j !acc expect
    done
  done

(* --- common helpers --------------------------------------------------------- *)

let test_band_partition () =
  let n = 13 and nprocs = 4 in
  let pieces = List.init nprocs (fun p -> Apps.Common.band ~n ~nprocs p) in
  let total = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 pieces in
  Alcotest.(check int) "covers everything" n total;
  List.iteri
    (fun p (lo, hi) ->
      if p > 0 then begin
        let _, prev_hi = Apps.Common.band ~n ~nprocs (p - 1) in
        Alcotest.(check int) "contiguous" prev_hi lo
      end;
      for i = lo to hi - 1 do
        Alcotest.(check int) "owner_of inverse" p (Apps.Common.owner_of ~n ~nprocs i)
      done)
    pieces

let band_qcheck =
  QCheck.Test.make ~name:"band/owner_of are a consistent partition" ~count:200
    QCheck.(pair (int_range 1 200) (int_range 1 16))
    (fun (n, nprocs) ->
      let nprocs = min n nprocs in
      List.for_all
        (fun i ->
          let p = Apps.Common.owner_of ~n ~nprocs i in
          let lo, hi = Apps.Common.band ~n ~nprocs p in
          i >= lo && i < hi)
        (List.init n (fun i -> i)))

let test_approx_equal () =
  Alcotest.(check bool) "equal" true (Apps.Common.approx_equal 1.0 1.0);
  Alcotest.(check bool) "close" true (Apps.Common.approx_equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Apps.Common.approx_equal 1.0 1.1);
  Alcotest.(check bool) "near zero" true (Apps.Common.approx_equal 0.0 1e-13)

let () =
  Alcotest.run "apps"
    [
      ("matmul", matmul_tests);
      ("sor", sor_tests);
      ("water", water_tests);
      ("quicksort", quicksort_tests);
      ("cholesky", cholesky_tests);
      ( "granularity",
        granularity_tests
        @ [ Alcotest.test_case "rt cost flat across granularity" `Quick test_granularity_rt_flat ] );
      ( "behaviour",
        [
          Alcotest.test_case "sor speeds up" `Quick test_sor_speedup;
          Alcotest.test_case "rt ships less than vm (cholesky)" `Quick
            test_rt_ships_less_than_vm_on_cholesky;
          Alcotest.test_case "runs are deterministic" `Quick test_determinism;
        ] );
      ( "footprint",
        large_n_tests
        @ [ Alcotest.test_case "copies and tables sized to the extent" `Quick test_footprint_bounded ]
      );
      ( "cholesky-symbolic",
        [
          Alcotest.test_case "test matrix diagonally dominant" `Quick test_laplacian_spd_shape;
          Alcotest.test_case "oracle factor satisfies A = LL^T" `Quick
            test_oracle_factor_correct;
          qtest symbolic_props;
        ] );
      ( "common",
        [
          Alcotest.test_case "band partition" `Quick test_band_partition;
          Alcotest.test_case "approx_equal" `Quick test_approx_equal;
          qtest band_qcheck;
        ] );
    ]
