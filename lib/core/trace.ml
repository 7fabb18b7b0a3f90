module Obs = Midway_obs.Obs
module Metrics = Midway_obs.Metrics
module Reliable = Midway_simnet.Reliable
module Units = Midway_util.Units

type event =
  | Lock_requested of { t : int; lock : int; proc : int; shared : bool }
  | Lock_granted of {
      t : int;
      lock : int;
      from_ : int;
      to_ : int;
      shared : bool;
      payload_bytes : int;
    }
  | Lock_local of { t : int; lock : int; proc : int }
  | Lock_released of { t : int; lock : int; proc : int }
  | Lock_rebound of { t : int; lock : int; proc : int; bound_bytes : int }
  | Barrier_arrived of { t : int; barrier : int; proc : int; payload_bytes : int }
  | Barrier_completed of { t : int; barrier : int; episode : int }
  | Proc_crashed of { t : int; proc : int }
  | Proc_recovered of { t : int; proc : int }
  | Lock_failover of {
      t : int;
      since : int;
      lock : int;
      from_ : int;
      to_ : int;
      epoch : int;
      votes : int;
    }
  | Backend_switched of { t : int; region : int; from_ : string; to_ : string }
  | Collected of {
      t : int;
      ns : int;
      proc : int;
      sync : int;
      barrier : bool;
      bytes : int;
      diff : string;
      pages : int;
      dirty_bytes : int;
    }
  | Applied of { t : int; ns : int; proc : int; sync : int; barrier : bool; bytes : int }
  | Waited of { t : int; t1 : int; proc : int; sync : int; barrier : bool }
  | Replicated of { t : int; lock : int; proc : int; backups : int }
  | Failover_no_quorum of { t : int; lock : int; proc : int }
  | Proc_blocked of { t : int; t1 : int; proc : int; reason : string }
  | Reliable_sent of Reliable.episode

type t = {
  capacity : int;
  ring : event array;  (* valid slots: [start, start+size) mod capacity *)
  mutable start : int;
  mutable size : int;
  mutable recorded : int;
}

let dummy = Lock_local { t = 0; lock = -1; proc = -1 }

let create ~capacity =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  { capacity; ring = Array.make (max capacity 1) dummy; start = 0; size = 0; recorded = 0 }

let record t e =
  (* [recorded] counts every event offered, including those a
     zero-capacity (disabled) ring drops without storing. *)
  t.recorded <- t.recorded + 1;
  if t.capacity > 0 then begin
    if t.size < t.capacity then begin
      t.ring.((t.start + t.size) mod t.capacity) <- e;
      t.size <- t.size + 1
    end
    else begin
      t.ring.(t.start) <- e;
      t.start <- (t.start + 1) mod t.capacity
    end
  end

let proc_label p = Printf.sprintf "p%d" p

let sync_label p ~barrier id =
  if barrier then Printf.sprintf "p%d/barrier%d" p id else Printf.sprintf "p%d/lock%d" p id

(* The one place an event becomes its views.  The ring keeps the point
   events; the facts after [Backend_switched] exist for the span log and
   the metrics registry only.  Labels are built here, so only when obs is
   armed. *)
let emit t obs e =
  (match e with
  | Collected _ | Applied _ | Waited _ | Replicated _ | Failover_no_quorum _ | Proc_blocked _
  | Reliable_sent _ ->
      ()
  | _ -> record t e);
  match obs with
  | None -> ()
  | Some o -> (
      let m = Obs.metrics o in
      match e with
      | Lock_requested _ | Lock_granted _ | Lock_local _ | Lock_released _ | Lock_rebound _
      | Barrier_arrived _ | Barrier_completed _ ->
          ()
      | Proc_crashed { proc; _ } -> Metrics.incr m ~name:"crash_stops" ~label:(proc_label proc) 1
      | Proc_recovered { proc; _ } ->
          Metrics.incr m ~name:"crash_recoveries" ~label:(proc_label proc) 1
      | Lock_failover { t; since; lock; from_; to_; votes; _ } ->
          Obs.span o Obs.Failover ~proc:to_ ~sync:lock
            ~note:(Printf.sprintf "p%d suspected, %d vote(s)" from_ votes)
            ~t0:since ~t1:(max since t) ();
          Metrics.incr m ~name:"failovers" ~label:(sync_label to_ ~barrier:false lock) 1
      | Backend_switched { region; _ } ->
          Metrics.incr m ~name:"backend_switches" ~label:(Printf.sprintf "region%d" region) 1
      | Collected { t; ns; proc; sync; barrier; bytes; diff; pages; dirty_bytes } ->
          let label = sync_label proc ~barrier sync in
          Obs.span o Obs.Collect ~proc ~sync ~bytes ~t0:t ~t1:(t + ns) ();
          Obs.span o Obs.Diff ~proc ~sync ~note:diff ~t0:t ~t1:(t + ns) ();
          Metrics.observe m ~name:"collect_ns" ~label ns;
          Metrics.observe m ~name:"transfer_bytes" ~label ~buckets:Metrics.bytes_buckets bytes;
          if pages > 0 then
            Metrics.observe m ~name:"diff_bytes_per_page" ~label:(proc_label proc)
              ~buckets:Metrics.bytes_buckets (dirty_bytes / pages)
      | Applied { t; ns; proc; sync; barrier; bytes } ->
          Obs.span o Obs.Apply ~proc ~sync ~bytes ~t0:t ~t1:(t + ns) ();
          Metrics.observe m ~name:"apply_ns" ~label:(sync_label proc ~barrier sync) ns
      | Waited { t; t1; proc; sync; barrier } ->
          let kind = if barrier then Obs.Barrier_wait else Obs.Acquire_wait in
          Obs.span o kind ~proc ~sync ~t0:t ~t1 ();
          Metrics.observe m
            ~name:(if barrier then "barrier_wait_ns" else "acquire_latency_ns")
            ~label:(sync_label proc ~barrier sync) (t1 - t)
      | Replicated { proc; _ } -> Metrics.incr m ~name:"replications" ~label:(proc_label proc) 1
      | Failover_no_quorum { lock; _ } ->
          Metrics.incr m ~name:"failover_no_quorum" ~label:(Printf.sprintf "lock%d" lock) 1
      | Proc_blocked { t; t1; proc; reason } ->
          Obs.span o Obs.Sched_block ~proc ~note:reason ~t0:t ~t1 ()
      | Reliable_sent ep ->
          let chan = Printf.sprintf "p%d->p%d" ep.e_src ep.e_dst in
          Metrics.observe m ~name:"retransmits_per_send" ~label:chan
            ~buckets:Metrics.count_buckets ep.e_retransmits;
          Metrics.incr m ~name:"reliable_sends" ~label:chan 1;
          if ep.e_retransmits > 0 then
            Obs.span o Obs.Retransmit ~proc:ep.e_src ~bytes:ep.e_payload_bytes
              ~note:
                (Printf.sprintf "%s seq %d to p%d (%d retransmit(s))"
                   (Midway_simnet.Net.kind_name ep.e_kind) ep.e_seq ep.e_dst ep.e_retransmits)
              ~t0:ep.e_sent_at ~t1:ep.e_acked_at ())

let length t = t.size

let total t = t.recorded

let events t = List.init t.size (fun i -> t.ring.((t.start + i) mod t.capacity))

let event_time = function
  | Lock_requested { t; _ }
  | Lock_granted { t; _ }
  | Lock_local { t; _ }
  | Lock_released { t; _ }
  | Lock_rebound { t; _ }
  | Barrier_arrived { t; _ }
  | Barrier_completed { t; _ }
  | Proc_crashed { t; _ }
  | Proc_recovered { t; _ }
  | Lock_failover { t; _ }
  | Backend_switched { t; _ }
  | Collected { t; _ }
  | Applied { t; _ }
  | Waited { t; _ }
  | Replicated { t; _ }
  | Failover_no_quorum { t; _ }
  | Proc_blocked { t; _ } -> t
  | Reliable_sent ep -> ep.e_sent_at

let pp_event fmt e =
  let p f = Format.fprintf fmt ("%-12s " ^^ f) (Units.pp_time (event_time e)) in
  match e with
  | Lock_requested { lock; proc; shared; _ } ->
      p "lock %d <- p%d%s" lock proc (if shared then " (read)" else "")
  | Lock_granted { lock; from_; to_; shared; payload_bytes; _ } ->
      p "lock %d: p%d -> p%d%s, %s" lock from_ to_
        (if shared then " (read)" else "")
        (Units.pp_bytes payload_bytes)
  | Lock_local { lock; proc; _ } -> p "lock %d: local acquire by p%d" lock proc
  | Lock_released { lock; proc; _ } -> p "lock %d: released by p%d" lock proc
  | Lock_rebound { lock; proc; bound_bytes; _ } ->
      p "lock %d: rebound by p%d to %s" lock proc (Units.pp_bytes bound_bytes)
  | Barrier_arrived { barrier; proc; payload_bytes; _ } ->
      p "barrier %d: p%d arrived with %s" barrier proc (Units.pp_bytes payload_bytes)
  | Barrier_completed { barrier; episode; _ } ->
      p "barrier %d: episode %d complete" barrier episode
  | Proc_crashed { proc; _ } -> p "p%d crash-stopped" proc
  | Proc_recovered { proc; _ } -> p "p%d recovered (rejoined with amnesia)" proc
  | Lock_failover { lock; from_; to_; epoch; votes; _ } ->
      p "lock %d: failover p%d -> p%d (epoch %d, %d vote(s))" lock from_ to_ epoch votes
  | Backend_switched { region; from_; to_; _ } ->
      p "region %d: backend %s -> %s" region from_ to_
  | Collected _ | Applied _ | Waited _ | Replicated _ | Failover_no_quorum _ | Proc_blocked _
  | Reliable_sent _ ->
      p "(a span/metric fact: the ring never holds it)"

let render e = Format.asprintf "%a" pp_event e

let tail t n = List.filteri (fun i _ -> i >= t.size - n) (events t) |> List.map render

let dump t =
  let buf = Buffer.create 1024 in
  List.iter (fun e -> Buffer.add_string buf (render e ^ "\n")) (events t);
  Buffer.contents buf
