(** Memory regions.

    Midway partitions the application's address space into large,
    fixed-size regions (paper, section 3.1 and Appendix A).  All data in a
    region is either shared between all processors or private to each
    processor, and all cache lines within a region have the same size
    (different regions may differ).  The base page of every region holds
    the dirtybit-update code template; here the template is represented by
    the region's {!kind}, which the RT backend dispatches on exactly as
    the generated code would jump through the template.

    Each simulated processor has its own physical copy of every region it
    touches — that is what makes the simulation a real DSM: data written
    on one processor becomes visible on another only when the consistency
    protocol ships it.  As in Midway, where untouched virtual memory costs
    nothing, a copy is sized to the region's allocated extent ({!t.used}),
    not to the whole reservation: it starts at the next power of two
    covering the extent (at least 4 KiB, at most [region_size]) and
    grows to the next power of two that fits when a later allocation or
    access needs more room.  Every
    address of the region reads as zero until written, whatever the
    copy's current size. *)

type kind =
  | Shared  (** one logical copy, replicated per processor, kept consistent by the DSM *)
  | Private  (** per-processor data that happens to live in the shared layout; its template is the null template *)

type t = {
  index : int;  (** region number; base address = index * region size *)
  kind : kind;
  line_size : int;  (** software cache-line size in bytes (power of two) *)
  region_size : int;  (** bytes covered by the region *)
  nprocs : int;
  mutable used : int;  (** bump-allocation high-water mark *)
  backing : Bytes.t array;
      (** per-processor physical copy: empty until first touch, then
          extent-sized (see above).  Read it through {!backing_for}. *)
}

val create : index:int -> kind:kind -> line_size:int -> region_size:int -> nprocs:int -> t
(** Raises [Invalid_argument] unless [line_size] is a positive power of two
    no larger than [region_size]. *)

val base : t -> int
(** First address of the region. *)

val limit : t -> int
(** One past the last address of the region. *)

val lines : t -> int
(** Number of cache lines in the region. *)

val line_of_offset : t -> int -> int
(** Cache-line index containing the given byte offset. *)

val capacity_for : t -> int -> int
(** [capacity_for t n]: the bytes a per-processor structure (a copy, a
    dirtybit table) covers when it must reach the region's first [n]
    bytes — the next power of two at least [n] and {!t.used}, at least
    4 KiB and one line, at most [region_size]. *)

val backing_for : t -> proc:int -> upto:int -> Bytes.t
(** The processor's physical copy, covering at least the allocated
    extent [used] and the region's first [upto] bytes ([upto <=
    region_size]): materialised zero-filled on first use, grown
    ({!capacity_for}, contents kept) when it falls short.  Growth
    replaces the buffer, so a caller that caches it must refresh its
    copy when it grows — within the library only {!Space} calls this,
    and it does. *)

val capacity : t -> proc:int -> int
(** Bytes the processor's copy currently covers (0 until first touch). *)

val touched : t -> proc:int -> bool
(** Whether the processor's copy has been materialized. *)
