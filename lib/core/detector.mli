(** Write detection behind one interface (paper, sections 3.3-3.5).

    RT, VM, twin, vm-fine and blast are alternative implementations of
    one contract: trap a store, collect a processor's modifications when
    a synchronization object is transferred, apply them at the receiver.
    A detector is an instance of that contract — a record of operations
    closed over one processor's detection state (dirtybit table, page
    table and twins, per-object twins, or nothing).  {!create} is the
    only place that knows which backends exist; {!Runtime} holds one
    instance per (processor, backend in use) and finds it through the
    region a store or binding lives in.  See DESIGN.md §3b for the map
    from the paper's alternatives to these operations. *)

type env = {
  cfg : Config.t;
  space : Midway_memory.Space.t;
  lamport : int array;  (** per-processor Lamport clocks *)
  global_seen : Timestamp.t array;
      (** untargetted mode: per-processor everything-consistent-as-of
          cursor *)
  untargetted_history : (int, Timestamp.t) Hashtbl.t;
      (** untargetted update-queue mode: line address -> newest stamp *)
  guard_stale : bool;
      (** the reliable channel is armed, so a protocol retry may replay a
          logical update: RT applies skip lines already stamped newer *)
}
(** Machine-wide state the detectors share. *)

val env : Config.t -> Midway_memory.Space.t -> guard_stale:bool -> env

type proc
(** What one processor's detectors share: its counters and its reusable
    write-collection run buffer. *)

val proc : env -> id:int -> counters:Midway_stats.Counters.t -> proc

type collection = {
  payload : Payload.t;
  ns : int;  (** simulated collection cost *)
  cursor : int;
      (** what {!t.advance} records: the transfer's stamp (rt, vm-fine),
          the incarnation served (vm, twin), 0 otherwise *)
  rebound : bool;
      (** a rebinding-forced full transfer (first-ever or after
          {!Sync.rebind_lock}) — the adaptive policy's input *)
}

type t = {
  note : string;  (** what the "diff" of a collection is, for obs spans *)
  trap : Midway_memory.Region.t -> int -> int -> int;
      (** [trap region addr len]: run write trapping for a store of [len]
          bytes at [addr] in [region]; returns the simulated time to
          charge (already counted in [trap_time_ns]).  O(1) and
          allocation-free. *)
  collect_lock : Sync.lock -> for_:int -> collection;
      (** at the releaser: the update payload the requester [for_] is
          missing, stamping or logging this processor's fresh
          modifications on the way *)
  collect_barrier : Sync.barrier -> collection;
      (** at an arriving processor: its own fresh modifications of the
          bound data *)
  apply : id:int -> ranges:Range.t list -> Payload.t -> int;
      (** install a payload received for sync object [id] bound to
          [ranges]; returns the apply cost.  Raises [Invalid_argument]
          for a payload kind this detector does not produce. *)
  advance : Sync.lock -> releaser:int -> requester:int -> int -> unit;
      (** after a grant: move the lock's consistency cursors (and the
          requester's Lamport clock) to a collection's [cursor] *)
  install_replica : Sync.lock -> Payload.vm_piece list -> int;
      (** crash failover: install a replica of the lock's bound data as
          authoritative current state at this processor; returns the
          cost *)
  forget : Midway_memory.Region.t -> unit;
      (** drop every piece of detection state covering the region (a
          backend switch, whose epoch bump re-ships the data in full) *)
  stray_dirty_lines : Sync.lock -> int list;
      (** invariant check: lines of the lock's binding that this
          processor wrote without collecting them (rt only) *)
  untwinned_pages : unit -> int list;
      (** invariant check: dirty pages without a twin (vm only) *)
  table_lines : Midway_memory.Region.t -> int;
      (** footprint check: lines this processor's dirtybit table covers
          in the region (rt and vm-fine; 0 elsewhere) *)
}

val electable : Config.backend -> bool
(** Backends a single region may run: rt, vm, twin and blast.  Vm-fine
    and standalone are machine-wide. *)

val carries_barrier_data : Config.backend -> bool
(** False for the backends that detect nothing (blast, standalone): a
    barrier episode under them cannot tell what to ship. *)

val create : proc -> Config.backend -> t
(** A fresh detector of the given backend for the processor. *)
