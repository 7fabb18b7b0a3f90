(** The protocol event stream.

    Every protocol fact the runtime observes is one {!event}, built once
    at its site and handed to {!emit}, which derives every view from it:
    the bounded ring behind `midway-run --trace N`, and, when the
    observability layer is armed, the {!Midway_obs.Obs} span log and its
    {!Midway_obs.Metrics} registry.  The runtime builds an event only
    when some view will read it, so a default run (ring capacity 0, obs
    off) builds and offers none.  The simulator's {!Midway_stats.Counters}
    are not a view: they are the cost model's input and are kept
    directly. *)

type event =
  | Lock_requested of { t : int; lock : int; proc : int; shared : bool }
      (** a remote acquisition left [proc] at virtual time [t] *)
  | Lock_granted of {
      t : int;  (** when the requester resumes *)
      lock : int;
      from_ : int;  (** the releaser that served the request *)
      to_ : int;
      shared : bool;
      payload_bytes : int;
    }
  | Lock_local of { t : int; lock : int; proc : int }
      (** acquisition satisfied locally, no messages *)
  | Lock_released of { t : int; lock : int; proc : int }
  | Lock_rebound of { t : int; lock : int; proc : int; bound_bytes : int }
  | Barrier_arrived of { t : int; barrier : int; proc : int; payload_bytes : int }
  | Barrier_completed of { t : int; barrier : int; episode : int }
  | Proc_crashed of { t : int; proc : int }
      (** the processor's fiber crash-stopped at a synchronization point *)
  | Proc_recovered of { t : int; proc : int }
      (** the processor rejoined as a protocol participant with amnesia *)
  | Lock_failover of {
      t : int;  (** when the transfer completed *)
      since : int;  (** when the owner was suspected *)
      lock : int;
      from_ : int;
      to_ : int;
      epoch : int;
      votes : int;
    }
      (** quorum ownership transfer away from a suspected-dead owner:
          [epoch] is the lock's incarnation after the bump, [votes] the
          ballots collected (including the initiator's own) *)
  | Backend_switched of { t : int; region : int; from_ : string; to_ : string }
      (** hybrid write detection re-elected a region's backend
          ([Config.backend_name] strings) — manual or adaptive *)
  | Collected of {
      t : int;
      ns : int;
      proc : int;
      sync : int;
      barrier : bool;  (** [sync] is a barrier id, else a lock id *)
      bytes : int;  (** application payload shipped *)
      diff : string;  (** the detector's name for its scan/diff sub-phase *)
      pages : int;  (** pages diffed by this collection *)
      dirty_bytes : int;  (** dirty bytes those pages yielded *)
    }
      (** a write collection by [proc], from [t] for [ns] *)
  | Applied of { t : int; ns : int; proc : int; sync : int; barrier : bool; bytes : int }
      (** received updates installed at [proc], from [t] for [ns] *)
  | Waited of { t : int; t1 : int; proc : int; sync : int; barrier : bool }
      (** a remote acquisition from the request to the grant, or a
          barrier arrival until its release *)
  | Replicated of { t : int; lock : int; proc : int; backups : int }
      (** a release shipped the bound data to [backups] crash replicas *)
  | Failover_no_quorum of { t : int; lock : int; proc : int }
      (** [proc] suspected the owner but could not assemble a majority *)
  | Proc_blocked of { t : int; t1 : int; proc : int; reason : string }
      (** the scheduler parked [proc] from [t] to [t1] *)
  | Reliable_sent of Midway_simnet.Reliable.episode
      (** one completed reliable-channel exchange *)

(** The ring keeps the events up to [Backend_switched]; the rest are
    interval and accounting facts that only the span log and the
    metrics registry read. *)

type t

val create : capacity:int -> t
(** A ring holding the most recent [capacity] events ([capacity = 0]
    keeps none). *)

val emit : t -> Midway_obs.Obs.t option -> event -> unit
(** Derive every view of one event: the ring entry (point events only)
    and, with obs armed, the spans and metrics, whose labels are built
    only then. *)

val length : t -> int
(** Events currently held (at most the capacity). *)

val total : t -> int
(** Point events ever offered to the ring, including those it dropped. *)

val events : t -> event list
(** Retained events, oldest first. *)

val event_time : event -> int

val pp_event : Format.formatter -> event -> unit
(** One ring line.  The interval and accounting facts, which the ring
    never holds, print as a placeholder. *)

val tail : t -> int -> string list
(** The last [n] retained events, rendered, oldest first. *)

val dump : t -> string
(** All retained events, one per line, oldest first. *)
