(* The repository benchmark: host wall time of the paper applications,
   the KV store and the schedule-explorer grid, with a per-layer split
   on both clocks.  See NOTES.md.

     main.exe --workload paper-rt|paper-vm|kv-ycsb|fuzz-grid
              --seed N --seconds S --trace 0|1 --result FILE [--commit SHA]

   A run makes one warm-up pass, then repeats timed passes for S seconds
   and reports the end-to-end metrics, corrected for the host's speed.  With --trace 1 it then makes
   three passes under host spans, one with the simulator's
   observability layer armed (and, on fuzz-grid, three with ECSan off),
   times the layers' primitives and reports the per-layer metrics
   instead.  Every simulation is checked, and every repeat must
   reproduce the warm-up's simulated digest; a failure is counted,
   never fatal.  The result goes to FILE; the host facts, failures and
   spans go to a file beside it.  perfbench/run.py builds this program
   and prints the result as the benchmark's output line. *)

module Counters = Midway_stats.Counters
module Json = Midway_util.Json
module Tab = Midway_util.Texttab

let now = Probe.now

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Passes and the failure ledger                                       *)

type pass = {
  setup_s : float;
  wall_s : float;
  reference_s : float;  (* the reference task's time beside the pass (mean of before and after) *)
  cpu : float;
  results : (string * Jobs.verdict) list;
  first_span : int;  (* spans recorded during the pass have ids in [first_span, last_span) *)
  last_span : int;
}

let attempted = ref 0
let failed = ref 0
let failures = ref []  (* newest first *)
let reference = Hashtbl.create 64  (* label -> digest of its warm-up run *)

let judge ~pass (label, (v : Jobs.verdict)) =
  incr attempted;
  let mismatch =
    match Hashtbl.find_opt reference label with
    | None ->
        Hashtbl.add reference label v.Jobs.digest;
        []
    | Some d when d = v.Jobs.digest -> []
    | Some d -> [ Printf.sprintf "simulated digest %s, warm-up gave %s" v.Jobs.digest d ]
  in
  match v.Jobs.failures @ mismatch with
  | [] -> ()
  | problems ->
      incr failed;
      failures := Printf.sprintf "%s %s: %s" pass label (String.concat " | " problems) :: !failures

let guarded (s : Jobs.sim) =
  let v =
    try s.Jobs.exec ()
    with e ->
      { Jobs.failures = [ "exception: " ^ Printexc.to_string e ]; digest = ""; stats = None; requests = 0 }
  in
  (s.Jobs.label, v)

(* Set-up is short next to the simulations (for the paper workloads it
   is configuration only, a fraction of a microsecond), so a timed pass
   repeats it for [setup_budget_s]: in batches long enough for the
   clock ([setup_batch_s]), recording the median batch's time per
   set-up, which a GC slice landing in one batch does not move.  The
   last set-up's simulations are the ones that run. *)
let setup_budget_s = 0.02
let setup_batch_s = 50e-6

let run_pass workload ~seed ~repeat_setup mode =
  let first_span = !Probe.next_id in
  let set_up () = Probe.span "setup" (fun () -> Jobs.setup workload ~seed mode) in
  let batch k =
    let t = now () in
    let sims = ref (set_up ()) in
    for _ = 2 to k do
      sims := set_up ()
    done;
    (!sims, now () -. t)
  in
  let t0 = now () in
  let rec sample k samples =
    let sims, dt = batch k in
    if not repeat_setup then (sims, [ dt ])
    else if dt < setup_batch_s then sample (2 * k) samples
    else
      let samples = (dt /. float_of_int k) :: samples in
      if now () -. t0 < setup_budget_s then sample k samples else (sims, samples)
  in
  let sims, samples = sample 1 [] in
  let setup_s = Stats.median samples in
  let c0 = cpu_s () in
  let t1 = now () in
  let results = Probe.span "timed" (fun () -> List.map guarded sims) in
  let wall_s = now () -. t1 in
  let cpu = cpu_s () -. c0 in
  { setup_s; wall_s; reference_s = nan; cpu; results; first_span; last_span = !Probe.next_id }

(* Repeat until host time [until] has passed and at least [min] passes
   are done.  Every pass starts on a compacted heap, and the reference
   task runs between passes, so each pass is bracketed by two
   measurements of the host's speed. *)
let passes ?(repeat_setup = false) workload ~seed ~name mode ~until ~min =
  let settle () =
    Gc.compact ();
    Speed.reference_s ()
  in
  let rec go acc n before =
    if n >= min && now () >= until then List.rev acc
    else begin
      let p = run_pass workload ~seed ~repeat_setup mode in
      List.iter (judge ~pass:name) p.results;
      let after = settle () in
      go ({ p with reference_s = (before +. after) /. 2.0 } :: acc) (n + 1) after
    end
  in
  go [] 0 (settle ())

let median_over ps f = Stats.median (List.map f ps)
let wall ps = median_over ps (fun p -> p.wall_s)

(* A time expressed on the nominal host (see Speed): scaled by how much
   slower than nominal the reference task ran beside it. *)
let corrected ps f = median_over ps (fun p -> f p *. Speed.nominal_s /. p.reference_s)

(* ------------------------------------------------------------------ *)
(* The per-layer split                                                 *)

let spans_of spans p =
  List.filter (fun (s : Probe.span) -> s.Probe.id >= p.first_span && s.Probe.id < p.last_span) spans

let per_layer ~workload ~untraced ~traced ~obs ~ecsan_off ~spans =
  let fi = float_of_int in
  let durations p name =
    List.filter_map
      (fun (s : Probe.span) -> if s.Probe.name = name then Some (Probe.duration s) else None)
      (spans_of spans p)
  in
  let named name = median_over traced (fun p -> Stats.sum (durations p name)) in
  let gc_field f =
    median_over traced (fun p ->
        f (List.find (fun (s : Probe.span) -> s.Probe.name = "timed") (spans_of spans p)))
  in
  let stats = List.filter_map (fun (_, (v : Jobs.verdict)) -> v.Jobs.stats) obs.results in
  let c = Counters.total (Array.of_list (List.map (fun (s : Jobs.stats) -> s.Jobs.counters) stats)) in
  let sim_total f = fi (List.fold_left (fun acc s -> acc + f s) 0 stats) in
  let ratio a b = if b = 0 then 0.0 else fi a /. fi b in
  let dirty_fraction = ratio c.Counters.dirty_bytes_found c.Counters.bound_bytes_scanned in
  let costs =
    Prims.measure { Prims.dirty_fraction; nprocs = Jobs.nprocs workload }
  in
  let dirtybits_read = c.Counters.clean_dirtybits_read + c.Counters.dirty_dirtybits_read in
  (* counts x primitive cost; accessor calls, protection checks, heap
     operations and fiber switches have no exact count *)
  let core_est =
    ((fi c.Counters.dirtybits_set *. costs.Prims.note_write_ns)
    +. (fi dirtybits_read *. costs.Prims.scan_ns_per_line))
    /. 1e9
  in
  let vmem_est =
    ((fi c.Counters.write_faults *. costs.Prims.fault_ns)
    +. (fi c.Counters.pages_diffed *. costs.Prims.diff_ns_per_page))
    /. 1e9
  in
  let run_times = List.concat_map (fun p -> durations p "Explore.execute") traced in
  let s v = (v, "s") and ns v = (v, "ns") and count v = (fi v, "count") in
  List.map
    (fun app ->
      let name = Midway_report.Suite.app_name app in
      (Printf.sprintf "apps.%s.wall_s" name, s (named ("apps." ^ name))))
    Midway_report.Suite.apps
  @ [
      ("memory.access_ns", ns costs.Prims.access_ns);
      ("core.dirtybits_set", count c.Counters.dirtybits_set);
      ("core.dirtybits_read", count dirtybits_read);
      ("core.dirtybits_updated", count c.Counters.dirtybits_updated);
      ("core.dirty_fraction", (dirty_fraction, "ratio"));
      ("core.note_write_ns", ns costs.Prims.note_write_ns);
      ("core.scan_ns_per_line", ns costs.Prims.scan_ns_per_line);
      ("core.dirtybits.est_host_s", s core_est);
      ("vmem.write_faults", count c.Counters.write_faults);
      ("vmem.pages_diffed", count c.Counters.pages_diffed);
      ("vmem.protection_check_ns", ns costs.Prims.protection_check_ns);
      ("vmem.fault_ns", ns costs.Prims.fault_ns);
      ("vmem.diff_ns_per_page", ns costs.Prims.diff_ns_per_page);
      ("vmem.est_host_s", s vmem_est);
      ("sched.heap_op_ns", ns costs.Prims.heap_op_ns);
      ("sched.switch_ns", ns costs.Prims.switch_ns);
      ("sync.acquires_local", count c.Counters.lock_acquires_local);
      ("sync.acquires_remote", count c.Counters.lock_acquires_remote);
      ("sync.barrier_crossings", count c.Counters.barrier_crossings);
      ("simnet.messages", count c.Counters.messages);
      ("simnet.payload_bytes", (fi c.Counters.data_sent_bytes, "bytes"));
      ("simnet.retransmits", count c.Counters.retransmits);
      ("simnet.retransmit_ratio", (ratio c.Counters.retransmits c.Counters.messages, "ratio"));
      ( "kv.requests",
        count (List.fold_left (fun a (_, (v : Jobs.verdict)) -> a + v.Jobs.requests) 0 obs.results) );
      ("kv.stream_gen_s", s (named "Ycsb.client_stream"));
      ("kv.simulate_s", s (named "Runtime.run"));
      ("kv.oracle_s", s (named "Kvstore.check"));
      ("core.invariants_s", s (named "Runtime.check_invariants"));
      ("explore.runs", (median_over traced (fun p -> fi (List.length (durations p "Explore.execute"))), "count"));
      ("explore.run_p50_s", s (Stats.quantile 0.5 run_times));
      ("explore.run_p90_s", s (Stats.quantile 0.9 run_times));
      ("check.ecsan_armed_s", s (if ecsan_off = [] then 0.0 else wall untraced -. wall ecsan_off));
      ("gc.minor_words", (gc_field (fun sp -> sp.Probe.minor_words), "words"));
      ("gc.promoted_words", (gc_field (fun sp -> sp.Probe.promoted_words), "words"));
      ("gc.minor_collections", (gc_field (fun sp -> fi sp.Probe.minor_collections), "count"));
      ("gc.major_collections", (gc_field (fun sp -> fi sp.Probe.major_collections), "count"));
      ("gc.minor_s", s (gc_field (fun sp -> sp.Probe.gc_minor_s)));
      ("gc.major_s", s (gc_field (fun sp -> sp.Probe.gc_major_s)));
      ("gc.events_lost", count (Probe.events_lost ()));
      ("host.cpu_s", s (median_over traced (fun p -> p.cpu)));
      ("host.raw_wall_s", s (wall untraced));
      ("host.reference_s", s (median_over untraced (fun p -> p.reference_s)));
      ("unattributed_s", s (wall traced -. core_est -. vmem_est));
      ("trace.overhead_s", s (wall traced -. wall untraced));
      ("sim.elapsed_ns", ns (sim_total (fun s -> s.Jobs.elapsed_ns)));
      ("sim.trap_ns", ns (fi c.Counters.trap_time_ns));
      ("sim.collect_ns", ns (fi c.Counters.collect_time_ns));
    ]
  @ List.map
      (fun kind ->
        ( Printf.sprintf "obs.%s.sim_self_ns" kind,
          ns (sim_total (fun s -> Option.value ~default:0 (List.assoc_opt kind s.Jobs.sim_self_ns))) ))
      Jobs.obs_kind_names

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

(* One table: where the simulator spends host time per traced pass
   (the benchmark's spans by self time, the counts x cost estimates, GC
   pauses) beside where the model spends simulated time (obs span self
   time by kind, summed over a pass). *)
let print_split ~traced ~spans metrics =
  let value name = fst (List.assoc name metrics) in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun ((s : Probe.span), self) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_name s.Probe.name) in
      Hashtbl.replace by_name s.Probe.name (prev +. self))
    (Probe.self_times (List.concat_map (spans_of spans) traced));
  let per_pass = float_of_int (List.length traced) in
  let host =
    List.sort compare (Hashtbl.fold (fun k v acc -> ("span " ^ k, v /. per_pass) :: acc) by_name [])
    @ [
        ("est core.dirtybits", value "core.dirtybits.est_host_s");
        ("est vmem", value "vmem.est_host_s");
        ("gc minor pauses", value "gc.minor_s");
        ("gc major pauses", value "gc.major_s");
      ]
  in
  let sim =
    List.map (fun kind -> (kind, value (Printf.sprintf "obs.%s.sim_self_ns" kind))) Jobs.obs_kind_names
  in
  let t =
    Tab.create
      ~columns:
        [ ("host split", Tab.Left); ("host s", Tab.Right); ("simulated split", Tab.Left); ("sim self ns", Tab.Right) ]
  in
  let rec rows h s =
    match (h, s) with
    | [], [] -> ()
    | _ ->
        let cell fmt = function (k, v) :: rest -> ([ k; Printf.sprintf fmt v ], rest) | [] -> ([ ""; "" ], []) in
        let hc, h = cell "%.6f" h and sc, s = cell "%.0f" s in
        Tab.row t (hc @ sc);
        rows h s
  in
  rows host sim;
  print_string (Tab.render t)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The known-bad configurations must be counted as failed; only the
   deliberate demo bug decides [correct] (see NOTES.md). *)
let self_test ~seed =
  List.map
    (fun (what, load_bearing, sim) ->
      let _, (v : Jobs.verdict) = guarded sim in
      let caught = v.Jobs.failures <> [] in
      Printf.printf "self-test  %-50s %s\n" what
        (if caught then "counted as failed (expected)"
         else if load_bearing then "NOT counted as failed: the failure accounting is broken"
         else "passed: the known defect no longer reproduces");
      caught || not load_bearing)
    (Jobs.self_test_sims ~seed)
  |> List.for_all Fun.id

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-rt|paper-vm|kv-ycsb|fuzz-grid --seed N --seconds S --trace 0|1 \
     --result FILE [--commit SHA]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload Jobs.names) then usage ();
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" = 1 in
  let facts =
    [
      ("workload", workload);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", if trace then "1" else "0");
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("OCAMLRUNPARAM", Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
      ("commit", Option.value ~default:"unknown" (Hashtbl.find_opt args "commit"));
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "%-14s %s\n" k v) facts;
  (* The warm-up pass grows the heap to its working size and records the
     reference digests.  It runs each simulation from a compacted heap,
     so the peak heap after it is the largest single simulation's, and
     depends neither on when the previous simulation's garbage happened
     to be collected nor on how many timed passes fit in the run. *)
  List.iter
    (fun sim ->
      Gc.compact ();
      judge ~pass:"warm-up" (guarded sim))
    (Jobs.setup workload ~seed Jobs.Plain);
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let untraced =
    passes ~repeat_setup:true workload ~seed ~name:"timed" Jobs.Plain
      ~until:(now () +. float_of_int seconds) ~min:3
  in
  let wall_s = corrected untraced (fun p -> p.wall_s) and setup_s = corrected untraced (fun p -> p.setup_s) in
  Printf.printf "timed      %d pass(es) x %d simulation(s): wall %.4f s, setup %.6f s (medians, on the nominal host)\n"
    (List.length untraced)
    (List.length (List.hd untraced).results)
    wall_s setup_s;
  Printf.printf "as run     wall %.4f s, reference task %.4f s against %.4f s nominal (medians)\n"
    (wall untraced) (median_over untraced (fun p -> p.reference_s)) Speed.nominal_s;
  Printf.printf "walls      %s\n" (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall_s) untraced));
  Printf.printf "references %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.4f" p.reference_s) untraced));
  let metrics =
    if not trace then
      [ ("wall_s", (wall_s, "s")); ("setup_s", (setup_s, "s")); ("peak_heap_mb", (peak_heap_mb, "MB")) ]
    else begin
      Probe.arm ();
      let traced = passes workload ~seed ~name:"traced" Jobs.Plain ~until:0.0 ~min:3 in
      Probe.disarm ();
      let obs = List.hd (passes workload ~seed ~name:"obs" Jobs.Obs ~until:0.0 ~min:1) in
      let ecsan_off =
        if workload = "fuzz-grid" then passes workload ~seed ~name:"ecsan-off" Jobs.Ecsan_off ~until:0.0 ~min:3
        else []
      in
      let spans = Probe.spans () in
      let metrics = per_layer ~workload ~untraced ~traced ~obs ~ecsan_off ~spans in
      print_split ~traced ~spans metrics;
      metrics
    end
  in
  let self_ok = self_test ~seed in
  List.iter (fun n -> Printf.printf "FAILED     %s\n" n) (List.rev !failures);
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (!failed = 0 && self_ok));
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, (v, unit)) -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
               metrics) );
      ]
  in
  let result_file = get "result" in
  let out_dir = Filename.dirname result_file in
  mkdir_p out_dir;
  write_file
    (Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (if trace then 1 else 0)))
    (Json.to_string
       (Json.Obj
          [
            ("facts", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) facts));
            ("result", result);
            ("failures", Json.List (List.rev_map (fun n -> Json.Str n) !failures));
            ("spans", Json.List (List.map (fun (s, self) -> Probe.span_json s self) (Probe.self_times (Probe.spans ()))));
          ]));
  write_file result_file (Json.to_string result)
