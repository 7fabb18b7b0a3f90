(* The benchmark's four workloads, built from the library's public API.

   A workload's set-up (everything before the first timed call) returns
   its simulations; running one executes it together with the checks
   every run performs — the application's sequential oracle, the KV
   refinement oracle, [Runtime.check_invariants], ECSan where armed —
   and yields a verdict with the run's simulated digest, which every
   repeat must reproduce exactly. *)

module R = Midway.Runtime
module Config = Midway.Config
module Suite = Midway_report.Suite
module Outcome = Midway_apps.Outcome
module Kvstore = Midway_kv.Kvstore
module Ycsb = Midway_explore.Ycsb
module Kv_workload = Midway_explore.Kv_workload
module Workload = Midway_explore.Workload
module Explore = Midway_explore.Explore
module Ecgen = Midway_explore.Ecgen

(* [Obs] arms the observability layer; [Ecsan_off] disarms the
   sanitizer where a workload arms it.  Neither may change a simulated
   digest. *)
type mode = Plain | Obs | Ecsan_off

(* What a run leaves for the per-layer split, extracted as soon as it
   ends so no machine outlives its own run. *)
type stats = {
  elapsed_ns : int;
  counters : Midway_stats.Counters.t;  (* summed over processors *)
  sim_self_ns : (string * int) list;  (* obs span kind -> simulated self time; [] unarmed *)
}

type verdict = {
  failures : string list;  (* empty = every check passed *)
  digest : string;
  stats : stats option;  (* [None] when the explorer hides the machine *)
  requests : int;  (* KV requests served *)
}

type sim = { label : string; exec : unit -> verdict }

let names = [ "paper-rt"; "paper-vm"; "kv-ycsb"; "fuzz-grid" ]

let hex_digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* Simulated time plus every processor's operation counters. *)
let machine_digest ?(extra = "") m = hex_digest (R.elapsed_ns m, R.all_counters m, extra)

let invariant_failures m =
  match Probe.span "Runtime.check_invariants" (fun () -> R.check_invariants m) with
  | [] -> []
  | l -> [ "invariants: " ^ String.concat "; " l ]

let obs_kind_names =
  Midway_obs.Obs.(
    List.map kind_name
      [ Acquire_wait; Barrier_wait; Collect; Diff; Apply; Retransmit; Sched_block; Failover; Request ])

(* Simulated self time per span kind: spans nest per processor (a diff
   inside its collect, a lock wait inside a KV request), and a span's
   self time is its duration minus the union of its direct children. *)
let sim_self_ns spans =
  let module O = Midway_obs.Obs in
  let totals = Hashtbl.create 16 in
  let add kind ns =
    let k = O.kind_name kind in
    Hashtbl.replace totals k (ns + Option.value ~default:0 (Hashtbl.find_opt totals k))
  in
  let by_proc = Hashtbl.create 16 in
  List.iter
    (fun (s : O.span) ->
      Hashtbl.replace by_proc s.O.proc
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_proc s.O.proc)))
    spans;
  Hashtbl.iter
    (fun _ l ->
      let sorted =
        List.stable_sort
          (fun (a : O.span) (b : O.span) ->
            if a.O.t0 <> b.O.t0 then compare a.O.t0 b.O.t0 else compare b.O.t1 a.O.t1)
          (List.rev l)
      in
      (* stack entries: span, end of the children coverage, covered ns *)
      let stack = ref [] in
      let close (s, _, covered) = add s.O.kind (s.O.t1 - s.O.t0 - covered) in
      List.iter
        (fun (s : O.span) ->
          let rec unwind () =
            match !stack with
            | (top, _, _) as e :: rest when not (s.O.t0 >= top.O.t0 && s.O.t1 <= top.O.t1) ->
                close e;
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (top, until, covered) :: rest ->
              let start = max s.O.t0 until in
              let extra = max 0 (s.O.t1 - start) in
              stack := (top, max until s.O.t1, covered + extra) :: rest
          | [] -> ());
          stack := (s, s.O.t0, 0) :: !stack)
        sorted;
      List.iter close !stack)
    by_proc;
  List.map (fun name -> (name, Option.value ~default:0 (Hashtbl.find_opt totals name))) obs_kind_names

let stats_of m =
  {
    elapsed_ns = R.elapsed_ns m;
    counters = Midway_stats.Counters.total (R.all_counters m);
    sim_self_ns =
      (match R.obs m with None -> [] | Some o -> sim_self_ns (Midway_obs.Obs.spans o));
  }

let verdict ?(requests = 0) ~failures ~digest machine =
  { failures; digest; stats = Option.map stats_of machine; requests }

(* ------------------------------------------------------------------ *)
(* paper-rt / paper-vm: the five applications on 8 processors          *)

let paper_nprocs = 8
let paper_scale = 0.3

let app_sim ~cfg ~scale app =
  let name = Suite.app_name app in
  {
    label = name;
    exec =
      (fun () ->
        let o = Probe.span ("apps." ^ name) (fun () -> Suite.run_app app cfg ~scale) in
        let m = o.Outcome.machine in
        let oracle = if o.Outcome.ok then [] else [ "oracle: " ^ String.concat "; " o.Outcome.notes ] in
        verdict ~failures:(oracle @ invariant_failures m) ~digest:(machine_digest m) (Some m));
  }

let paper backend ~seed mode =
  let cfg = { (Config.make backend ~nprocs:paper_nprocs) with Config.seed; obs = mode = Obs } in
  List.map (app_sim ~cfg ~scale:paper_scale) Suite.apps

(* ------------------------------------------------------------------ *)
(* kv-ycsb: closed-loop YCSB-B against the sharded store on rt          *)

let kv_clients = 4

let kv_config seed =
  {
    Kv_workload.ycsb =
      {
        Ycsb.keys = 1024;
        requests = 12_000;
        mix = Ycsb.mix_b;
        dist = Ycsb.Zipfian 0.99;
        arrival = Ycsb.Closed;
        max_scan = 16;
        seed;
      };
    buckets = 32;
    service_ns = 300;
    preload = 512;
    migrate_every = 50;
    broken_migration = false;
  }

(* The per-processor program of [Kv_workload.build] — load, barrier,
   client stream, barrier, read sweep — but over streams generated
   beforehand, so stream generation is set-up and not simulation. *)
let kv_sim ~label ~mode ~seed (kc : Kv_workload.cfg) =
  let streams =
    Probe.span "Ycsb.client_stream" (fun () ->
        Array.init kv_clients (fun client -> Ycsb.client_stream kc.Kv_workload.ycsb ~client))
  in
  let cfg = { (Config.make Config.Rt ~nprocs:kv_clients) with Config.seed; obs = mode = Obs } in
  let m = Probe.span "Runtime.create" (fun () -> R.create cfg) in
  let store =
    Kvstore.create ~service_ns:kc.Kv_workload.service_ns m ~keys:kc.Kv_workload.ycsb.Ycsb.keys
      ~buckets:kc.Kv_workload.buckets
  in
  let fin = R.new_barrier m [] in
  let loads =
    Array.init kv_clients (fun me ->
        List.filter_map
          (fun k ->
            if Kvstore.bucket_of store k mod kv_clients = me then
              Some (k, Kv_workload.preload_value k)
            else None)
          (List.init kc.Kv_workload.preload Fun.id))
  in
  let prog c =
    let me = R.id c in
    Kvstore.load c store loads.(me);
    R.barrier c fin;
    Kv_workload.run_stream ~migrate_every:kc.Kv_workload.migrate_every
      ~broken:kc.Kv_workload.broken_migration c store streams.(me);
    R.barrier c fin;
    Kvstore.read_sweep c store
  in
  {
    label;
    exec =
      (fun () ->
        Probe.span "Runtime.run" (fun () -> R.run m prog);
        let refinement =
          match Probe.span "Kvstore.check" (fun () -> Kvstore.check store) with
          | [] -> []
          | v -> [ Printf.sprintf "refinement: %d violation(s), first: %s" (List.length v) (List.hd v) ]
        in
        verdict ~requests:(Kvstore.request_count store)
          ~failures:(refinement @ invariant_failures m)
          ~digest:(machine_digest ~extra:(Kvstore.digest store) m)
          (Some m));
  }

let kv ~seed mode = [ kv_sim ~label:"kv" ~mode ~seed (kv_config seed) ]

(* ------------------------------------------------------------------ *)
(* fuzz-grid: the schedule explorer's grid, judged run by run           *)

let grid_nprocs = 4
let grid_scale = 0.02
let grid_schedules = 2
let grid_drop = 0.02

(* The configuration [Explore.run_spec] gives one grid point: ECSan on,
   message drops armed with a fault seed that varies with the schedule
   seed, seeded tie-breaking; no seeded crash dimension (crashy and
   kv-crashy inject their own plans). *)
let grid_config ~mode ~fault_seed backend sseed =
  let cfg = Config.make backend ~nprocs:grid_nprocs in
  let cfg =
    {
      cfg with
      Config.ecsan = mode <> Ecsan_off;
      obs = mode = Obs;
      trace_capacity = Explore.default_spec.Explore.trace_capacity;
      sched_policy = Midway_sched.Engine.Seeded sseed;
    }
  in
  Config.with_faults ~drop:grid_drop ~seed:(fault_seed lxor (sseed * 0x9E37)) cfg

let ecgen_workload seed =
  let program =
    Probe.span "Ecgen.generate" (fun () -> Ecgen.generate ~seed ~nprocs:grid_nprocs ())
  in
  {
    Workload.name = Printf.sprintf "ecgen:%d" seed;
    buggy = false;
    supports = Workload.lock_based;
    run = Ecgen.run program;
    ir = None;
  }

let grid_workloads seed =
  let kvc =
    {
      Kv_workload.default with
      ycsb = { Kv_workload.default.Kv_workload.ycsb with Ycsb.seed };
    }
  in
  [
    Workload.counter ~iters:6;
    Workload.readers_writer ~iters:6;
    Workload.mix ~groups:3 ~iters:6;
    ecgen_workload (2 * seed);
    ecgen_workload ((2 * seed) + 1);
    Kv_workload.workload ~name:"kv-migrate" { kvc with Kv_workload.migrate_every = 10 };
    Workload.crashy ~iters:6;
    Kv_workload.crashy_workload ~name:"kv-crashy" kvc;
    Workload.app ~scale:grid_scale Suite.Quicksort;
    Workload.app ~scale:grid_scale Suite.Sor;
  ]

let grid_digest digest choices = hex_digest (digest, choices)

let grid_sim ~mode ~fault_seed (w : Workload.t) backend sseed =
  let cfg = grid_config ~mode ~fault_seed backend sseed in
  {
    label = Printf.sprintf "%s/%s/%d" w.Workload.name (Config.backend_name backend) sseed;
    exec =
      (fun () ->
        match mode with
        | Plain | Ecsan_off ->
            let j = Probe.span "Explore.execute" (fun () -> Explore.execute w cfg) in
            verdict
              ~failures:(if j.Explore.j_failed then [ j.Explore.j_reason ] else [])
              ~digest:(grid_digest j.Explore.j_digest j.Explore.j_choices)
              None
        | Obs ->
            (* the explorer hides its machine; the workload's own entry
               point runs the same simulation and keeps it *)
            let o = w.Workload.run cfg in
            verdict
              ~failures:(if o.Workload.ok then [] else [ "oracle: " ^ o.Workload.detail ])
              ~digest:
                (grid_digest o.Workload.digest (Option.map R.schedule_choices o.Workload.machine))
              o.Workload.machine);
  }

let grid ~seed mode =
  let base = 1 + (seed * 16) and fault_seed = Explore.default_spec.Explore.fault_seed lxor seed in
  List.concat_map
    (fun (w : Workload.t) ->
      List.concat_map
        (fun backend ->
          if w.Workload.supports backend then
            List.init grid_schedules (fun i -> grid_sim ~mode ~fault_seed w backend (base + i))
          else [])
        [ Config.Rt; Config.Vm ])
    (grid_workloads seed)

let nprocs = function
  | "paper-rt" | "paper-vm" -> paper_nprocs
  | "kv-ycsb" -> kv_clients
  | _ -> grid_nprocs

let setup name ~seed mode =
  match name with
  | "paper-rt" -> paper Config.Rt ~seed mode
  | "paper-vm" -> paper Config.Vm ~seed mode
  | "kv-ycsb" -> kv ~seed mode
  | "fuzz-grid" -> grid ~seed mode
  | other -> invalid_arg ("unknown workload " ^ other)

(* ------------------------------------------------------------------ *)
(* Known-bad configurations the failure accounting must catch          *)

let self_test_sims ~seed =
  let uq = { (Config.make Config.Rt ~nprocs:4) with Config.rt_mode = Config.Update_queue; seed } in
  let broken =
    let kc = kv_config seed in
    {
      kc with
      Kv_workload.ycsb = { kc.Kv_workload.ycsb with Ycsb.requests = 200; mix = Ycsb.mix_c };
      migrate_every = 10;
      broken_migration = true;
    }
  in
  [
    ("kv broken_migration (seeded demo bug)", true, kv_sim ~label:"kv-broken" ~mode:Plain ~seed broken);
    ( "quicksort rt update-queue (ROADMAP item 1 defect)",
      false,
      app_sim ~cfg:uq ~scale:0.05 Suite.Quicksort );
  ]
