(** The span log: typed intervals on the simulated clock.

    One view of the runtime's protocol event stream: [Midway.Trace.emit]
    turns each event into its spans here and its metrics in the
    registry that rides along, next to the ring entry the same stream
    keeps for point events.  The KV store adds its request spans
    directly.  Spans are machine-consumable (for
    Perfetto export and metric reconciliation), and the log keeps all of
    them.  Recording never advances simulated time — the events carry
    timestamps the runtime already computed. *)

type kind =
  | Acquire_wait  (** lock requested until ownership granted *)
  | Barrier_wait  (** barrier arrival until release *)
  | Collect  (** write collection on the releaser *)
  | Diff  (** detection-scan / page-diff sub-phase of a collection *)
  | Apply  (** installing received updates on the requester *)
  | Retransmit  (** a reliable-channel episode needing retransmissions *)
  | Sched_block  (** generic scheduler block, tagged with the reason *)
  | Failover
      (** suspicion of a dead lock owner until quorum ownership transfer *)
  | Request
      (** an application-level request (the sharded KV store's
          get/put/delete/scan), from scheduled open-loop arrival to
          completion — [t1 - t0] is the request's sojourn latency
          including queueing behind its client's earlier requests *)

val kind_name : kind -> string
(** Stable wire name: ["lock_wait"], ["barrier_wait"], ["collect"],
    ["diff"], ["apply"], ["retransmit"], ["sched_block"], ["failover"],
    ["kv_request"]. *)

type span = {
  kind : kind;
  proc : int;
  sync : int;  (** sync-object id; [-1] = none *)
  bytes : int;  (** payload bytes attributed to the span; [0] = none *)
  t0 : int;  (** simulated ns *)
  t1 : int;
  note : string;
}

type t

val create : unit -> t

val metrics : t -> Metrics.t
(** The metrics registry riding along with the span log. *)

val span :
  t ->
  kind ->
  proc:int ->
  ?sync:int ->
  ?bytes:int ->
  ?note:string ->
  t0:int ->
  t1:int ->
  unit ->
  unit
(** Record a closed span.  Raises [Invalid_argument] if [t1 < t0]. *)

val spans : t -> span list
(** In recording order. *)

val span_count : t -> int
