(* The span log: typed intervals on the *simulated* clock, for machine
   consumption (Perfetto export, metrics reconciliation).

   It is one view of the runtime's protocol event stream: Trace.emit in
   lib/core turns each event into its spans here and its metrics in the
   registry that rides along, next to the ring entry for the point
   events.  The KV store adds its request spans directly.

   Recording never touches the simulated clock — the events carry
   timestamps the runtime already computed, so an armed observability
   layer cannot perturb the run it measures. *)

type kind =
  | Acquire_wait  (* lock requested until ownership granted *)
  | Barrier_wait  (* barrier arrival until release *)
  | Collect  (* write collection on the releaser *)
  | Diff  (* the detection-scan / page-diff sub-phase of a collection *)
  | Apply  (* installing received updates on the requester *)
  | Retransmit  (* a reliable-channel episode that needed retransmissions *)
  | Sched_block  (* generic scheduler block, tagged with the reason *)
  | Failover  (* suspicion of a dead lock owner until quorum ownership transfer *)
  | Request  (* an application-level request, scheduled arrival to completion *)

let kind_name = function
  | Acquire_wait -> "lock_wait"
  | Barrier_wait -> "barrier_wait"
  | Collect -> "collect"
  | Diff -> "diff"
  | Apply -> "apply"
  | Retransmit -> "retransmit"
  | Sched_block -> "sched_block"
  | Failover -> "failover"
  | Request -> "kv_request"

type span = {
  kind : kind;
  proc : int;
  sync : int;  (* sync-object id; -1 = none *)
  bytes : int;  (* payload bytes attributed to the span; 0 = none *)
  t0 : int;  (* simulated ns *)
  t1 : int;
  note : string;
}

type t = {
  mutable log : span list;  (* newest first *)
  mutable count : int;
  metrics : Metrics.t;
}

let create () = { log = []; count = 0; metrics = Metrics.create () }

let metrics t = t.metrics

let span t kind ~proc ?(sync = -1) ?(bytes = 0) ?(note = "") ~t0 ~t1 () =
  if t1 < t0 then invalid_arg "Obs.span: t1 < t0";
  t.log <- { kind; proc; sync; bytes; t0; t1; note } :: t.log;
  t.count <- t.count + 1

let spans t = List.rev t.log
let span_count t = t.count
